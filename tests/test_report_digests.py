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
    "E1": "396d5bcdc50a32db952455c3926fd688bf1d620035d96453b8ffa46fc8add6ae",
    "E2": "eb7c04ce0b92056d78fcd5a626aa580ea66027a30106ee19ac873b0875a86734",
    "E3": "b1aae7ed3f017239e2d178dd03f5ca02e0d5a206a44cb55f4ab34a36bfb212ce",
    "E4": "c7bc9573147dcae4c4df3fd9a2e23adb8e0e102516a51d212db3b31f3bb4520b",
    "E5": "9f8d6c1bf8d9ccd4438660500fc7dcd36e306389f0dc11d68d3f104253e4fe28",
    "E6": "98eedd1a0538b98d287f48f16589ae50c2aa3f68033b5eca52a08448127a7993",
    "E7": "fc0e3bb2916baa3a35eaed22c54ad5cabc4b99aa6a8f71e8ae20e456058a91ec",
    "E8": "57560bf0e9592a2ec1b64f654b564ccd6669429532453a4c6a83289f42cc701d",
    "E9": "c5b0436d3081e02e779e596c79e761f826906557e7e40aa69517f2e62984c2d9",
    "E10": "af699d12e188f8338fb03cb53a66a048e61895d6b9cabc7b26c10881fec924fd",
    "E11": "69a1bc78c6c2bebe6ffa2cf5d91e1ef6878e7051d81e6e296d21561fcfa603ca",
}


@pytest.mark.parametrize("exp_id", list(DIGESTS))
def test_report_digest_at_reduced_config(exp_id):
    report = run_experiment(exp_id, REDUCED_CONFIGS[exp_id])
    payload = emit_report(report, fmt="json") + emit_report(report, fmt="csv")
    assert hashlib.sha256(payload).hexdigest() == DIGESTS[exp_id]
