"""Pinned SHA-256 digests of the emitted reports at the reduced configs.

Each digest covers ``emit_report(report, "json")`` followed by
``emit_report(report, "csv")`` for one experiment run at its
``REDUCED_CONFIGS`` entry.  A change meant to leave the reports alone must
keep every digest; a change that alters report bytes on purpose updates the
table and says why.  E8's reduced config is its default config; it runs in
about a second since the quasi-independence search holds its signed sums in
a bitset.

The digests were taken with numpy 2.4.6.  Another numpy release may round
an FFT or a transcendental function differently, which changes the last
digits of a statistic and so the digest.
"""

import hashlib

import pytest

from test_acceptance import REDUCED_CONFIGS
from thinset_lab import emit_report, run_experiment

DIGESTS = {
    "E1": "39cd8dd4f3a4656ccbfde8919853e9e710471776de3619677f19df5ad0f54591",
    "E2": "9ca6de8b27831c5600d4af267d7f16674b5ba288c2b7b99382d9db915b8ca56c",
    "E3": "fd24f793e45154562a76d92d69a9d2dc6f1574870bba154b07770d1cc64d4bfd",
    "E4": "8038e9102864e661a89b2b87393c1313fa8c0c62b64055d8cce11c4f80507a32",
    "E5": "764f0ec4d5c88ed9903af5339417e38f229c41610c49c4cf8c9d5733609b196f",
    "E6": "4cb8983eef52fc32a2cdbf93617a74674af478ef72f3d3f3b254fc63614cb149",
    "E7": "fc0e3bb2916baa3a35eaed22c54ad5cabc4b99aa6a8f71e8ae20e456058a91ec",
    "E8": "57560bf0e9592a2ec1b64f654b564ccd6669429532453a4c6a83289f42cc701d",
    "E9": "9d3a175b3bb6d474a9c52d1694955adbee3701817d61a0e1915e2c8d128a20dd",
    "E10": "af699d12e188f8338fb03cb53a66a048e61895d6b9cabc7b26c10881fec924fd",
    "E11": "69a1bc78c6c2bebe6ffa2cf5d91e1ef6878e7051d81e6e296d21561fcfa603ca",
}


@pytest.mark.parametrize("exp_id", list(DIGESTS))
def test_report_digest_at_reduced_config(exp_id):
    report = run_experiment(exp_id, REDUCED_CONFIGS[exp_id])
    payload = emit_report(report, fmt="json") + emit_report(report, fmt="csv")
    assert hashlib.sha256(payload).hexdigest() == DIGESTS[exp_id]
