"""Pinned SHA-256 digests of the emitted reports at the reduced configs.

Each digest covers ``emit_report(report, "json")`` followed by
``emit_report(report, "csv")`` for one experiment run at its
``REDUCED_CONFIGS`` entry.  A change meant to leave the reports alone must
keep every digest; a change that alters report bytes on purpose updates the
table and says why.  E8's reduced config is its default config; it runs in
about a second since the quasi-independence search holds its signed sums in
a bitset.

E10 is pinned at its default config too: its ``size_max`` 16 reaches the
2^20- and 2^21-point grids and the adaptive cap of the Luxemburg norm, which
the reduced config does not; it runs in about 1.5 s.

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
    "E2": "961f9e8a7e370ed0537bffad4bc5be391248b0f448158055138613a8d80df3bb",
    "E3": "abfee7a18a35ee56f30ec644cc278a118aa2f05577690ebb1fc744dade64bb39",
    "E4": "7c82eb1a3be98f707411a8775d8d246f1aadbfda8f6ba499febd69ec95bf59a9",
    "E5": "3d00202fe1818351cd2fe6dd438fb1d245896b355d71d26588ed3fe22f9a1788",
    "E6": "888b042b39e6a323b05149f4d09e4f0b13ef5f95c86de4b7aad87ea9f7ea8c48",
    "E7": "fc0e3bb2916baa3a35eaed22c54ad5cabc4b99aa6a8f71e8ae20e456058a91ec",
    "E8": "57560bf0e9592a2ec1b64f654b564ccd6669429532453a4c6a83289f42cc701d",
    "E9": "03173853648686affd7ec698e436574909686c62b81cb1eed9eb2d10ca117e25",
    "E10": "af699d12e188f8338fb03cb53a66a048e61895d6b9cabc7b26c10881fec924fd",
    "E11": "69a1bc78c6c2bebe6ffa2cf5d91e1ef6878e7051d81e6e296d21561fcfa603ca",
}


DEFAULT_CONFIG_DIGESTS = {
    "E10": "e8c8a18ac1e09643a1f98098b70ac4fd1dbdb082a69dd1bc77e52e92cc610d96",
}


def _digest(exp_id, config):
    report = run_experiment(exp_id, config)
    return hashlib.sha256(emit_report(report, fmt="json") + emit_report(report, fmt="csv")).hexdigest()


@pytest.mark.parametrize("exp_id", list(DIGESTS))
def test_report_digest_at_reduced_config(exp_id):
    assert _digest(exp_id, REDUCED_CONFIGS[exp_id]) == DIGESTS[exp_id]


@pytest.mark.parametrize("exp_id", list(DEFAULT_CONFIG_DIGESTS))
def test_report_digest_at_default_config(exp_id):
    assert _digest(exp_id, None) == DEFAULT_CONFIG_DIGESTS[exp_id]
