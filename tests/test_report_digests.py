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
    "E2": "09a5394202539755f4985c443ebd41d3420d33a8ea008334405b3f6d56009e83",
    "E3": "c0ec7109f6d32dd9080c473c6dcdcce50b76084514ea5f01a4dfee622ac5b093",
    "E4": "e87876f3941b5e2ad6054153f4dfa376f69e6e553590e6003b60de29908fd228",
    "E5": "3d16bf27d511e8561f434e9e1d3be4f780cf5324ae633d94e4329161160af1b4",
    "E6": "0003117df02bb89c9a6cd5db7050a7911ce454fc9b9f232fa61bf86c908cc1dd",
    "E7": "fc0e3bb2916baa3a35eaed22c54ad5cabc4b99aa6a8f71e8ae20e456058a91ec",
    "E8": "57560bf0e9592a2ec1b64f654b564ccd6669429532453a4c6a83289f42cc701d",
    "E9": "3c9a8dde88d366d0c1bb8f4c548c8b923d87f1005c78e33c4f546c6b5ec9e599",
    "E10": "af699d12e188f8338fb03cb53a66a048e61895d6b9cabc7b26c10881fec924fd",
    "E11": "69a1bc78c6c2bebe6ffa2cf5d91e1ef6878e7051d81e6e296d21561fcfa603ca",
}


@pytest.mark.parametrize("exp_id", list(DIGESTS))
def test_report_digest_at_reduced_config(exp_id):
    report = run_experiment(exp_id, REDUCED_CONFIGS[exp_id])
    payload = emit_report(report, fmt="json") + emit_report(report, fmt="csv")
    assert hashlib.sha256(payload).hexdigest() == DIGESTS[exp_id]
