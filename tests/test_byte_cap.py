"""The package's one allocation budget: every byte cap goes through errors._check_bytes.

Each case names a guarded call site, the bytes it charges for a size s, and
a size at which to set the cap.  With errors._BYTES_CAP patched to the
charge at that size, the site must run there within the cap and raise
ResourceLimitError one size above, before it allocates.  The charges are
written out here, so moving any per-item figure fails the test.
"""

import math

import numpy as np
import pytest

from thinset_lab import (
    DriverDistribution,
    ResourceLimitError,
    TrigPolynomial,
    default_grid_size,
    errors,
    estimate_bracket,
    evaluate_grid,
    generate,
    quasi,
    r_alpha,
    sample_driver,
    sup_norm,
    sup_norm_rows,
    trigpoly,
)
from test_quasi import _traced_peak


def _flat_sup(n, tol=0.05, rows=1):
    """Sup norms of n-term rows on a degree-63 spectrum, flat to 1e-6.

    Every one of the 1024 grid points survives the grid stage, and at tol
    0.05 a single refinement round follows on all of them.
    """
    freqs = np.concatenate([[-63], np.arange(n - 2), [63]])
    row = np.full(n, 1e-6, dtype=np.complex128)
    row[0] = 1.0
    return sup_norm_rows(freqs, np.tile(row, (rows, 1)), tol)

# site -> (call at size s, bytes charged at size s, size at the cap)
CASES = {
    "evaluate_grid": (
        lambda M: evaluate_grid(TrigPolynomial({1: 1.0, 3: 2.0}), M),
        lambda M: 64 * M,
        1024,
    ),
    # a dense spectrum of half-width s, so the FFT kernel grids it; at tol
    # 0.05 one bisection round follows, which charges less than the grid
    "sup_norm_rows": (
        lambda s: sup_norm(TrigPolynomial.indicator(range(-s, s + 1)), 0.05),
        lambda s: 64 * default_grid_size(s),
        255,
    ),
    # B rows of a 63-term spectrum share one FFT block
    "sup_norm_rows_block": (
        lambda B: sup_norm_rows(np.arange(-31, 32), np.ones((B, 63)), 0.05),
        lambda B: 64 * default_grid_size(31) * B,
        4,
    ),
    # a refinement round charges 16 bytes per term value and 64 per cell for
    # its chunk and the two halves each cell may build, 16 per kept grid
    # sample and 16 per term of its step table and of that table's
    # conjugate; here it outweighs the 64*1024-byte grid
    "sup_norm_rows_refine": (
        _flat_sup,
        lambda n: (16 * n + 64) * 3 * 1024 + 16 * 1024 + 16 * n * 2,
        12,
    ),
    "sample_driver": (
        lambda n: sample_driver(DriverDistribution("p_stable", p=1.5), n),
        lambda n: 16 * n + 96 * 2**14,
        1000,
    ),
    # one term, so each sup is |row| and the rows and draws are the whole charge
    "estimate_bracket": (
        lambda trials: estimate_bracket(TrigPolynomial.indicator([5]), DriverDistribution("rademacher"), trials),
        lambda trials: 32 * trials + 96 * 2**14,
        256,
    ),
    # powers of 3 have 3^s distinct signed sums
    "half_sums": (
        lambda s: quasi._half_sums(tuple(3**i for i in range(s))),
        lambda s: 56 * 3**s,
        9,
    ),
    # the right half's last level charges its new sums and the kept left
    # half's 12 bytes per sum; the collision test that follows charges less
    "is_quasi_independent": (
        lambda s: quasi.is_quasi_independent(tuple(3**i for i in range(s))),
        lambda s: 12 * 3 ** (s // 2) + 56 * 3 ** (s - s // 2),
        17,
    ),
    "generate_interval": (lambda N: generate("interval", N), lambda N: 56 * N, 1000),
    "generate_random": (lambda N: generate("random", N, density=0.5, seed=1), lambda N: 56 * N, 1000),
    "generate_squares": (lambda N: generate("squares", N), lambda N: 56 * math.isqrt(N), 1001**2 - 1),
    "generate_sums_of_powers": (
        lambda N: generate("sums_of_powers", N, base=2, d=2),
        lambda N: 56 * math.comb(N.bit_length() - 1, 2),
        2**21 - 1,
    ),
    "r_alpha": (lambda n: r_alpha([1, 2, 3], 2, n), lambda n: 16 * (n + 1) + 4096, 4095),
}


@pytest.mark.parametrize("site", list(CASES))
def test_byte_cap_admits_its_estimate_and_raises_one_size_above(monkeypatch, site):
    call, need, size = CASES[site]
    cap = need(size)
    assert need(size + 1) > cap
    monkeypatch.setattr(errors, "_BYTES_CAP", cap)
    call(size)  # numpy allocates some state once, on its first calls
    out, peak = _traced_peak(lambda: call(size))
    assert not isinstance(out, ResourceLimitError) and peak <= cap, peak / cap
    err, peak = _traced_peak(lambda: call(size + 1))
    assert isinstance(err, ResourceLimitError) and f"over the {cap}-byte cap" in str(err)
    assert peak <= cap


def test_checker_calls_stay_within_any_cap(monkeypatch):
    # the kept left half and the collision temporaries are charged too, so
    # each call either raises before allocating or keeps within the cap
    powers = tuple(3**i for i in range(18))
    quasi.is_quasi_independent(powers[:4])
    answered = 0
    for cap in (56 * 3**8, 1 << 20, 56 * 3**9):
        monkeypatch.setattr(errors, "_BYTES_CAP", cap)
        for size in (15, 16, 17, 18):
            out, peak = _traced_peak(lambda: quasi.is_quasi_independent(powers[:size]))
            assert peak <= cap, (cap, size)
            answered += out == (True, None)
    assert answered == 4


def test_refinement_rounds_charge_their_arrays_before_allocating(monkeypatch):
    # |f|^2 = 1.8075... - 0.1 t^4 + O(t^6) has a quartic maximum at t = 0, so
    # the kept cells grow by about sqrt(2) a round, from 45 grid samples to
    # 252 cells in the sixth round, which needs more than the grid's charge
    f = TrigPolynomial({0: 1.0, 1: 4 / 9, 2: -0.1})
    cap = 64 * default_grid_size(1)
    monkeypatch.setattr(errors, "_BYTES_CAP", cap)
    err, peak = _traced_peak(lambda: sup_norm(f, 1e-9))
    assert isinstance(err, ResourceLimitError) and "refining" in str(err)
    assert peak <= cap


# call -> share of its largest charge that the traced peak must reach; on
# 40-term flat rows, where carried term values dominate and every cell
# survives the first rounds, the peak reads about 4/5 of the charge
PEAK_CASES = {
    "flat-2-terms": (lambda: _flat_sup(2, 1e-3, rows=8), 0.0),
    "flat-40-terms": (lambda: _flat_sup(40, 1e-3, rows=64), 0.5),
    "dirichlet-2047": (lambda: sup_norm(TrigPolynomial.indicator(range(-1023, 1024)), 1e-9), 0.0),
    "interval-rows": (
        lambda: sup_norm_rows(np.arange(-255, 256), np.random.default_rng(3).standard_normal((20, 511)), 1e-3),
        0.0,
    ),
}


@pytest.mark.parametrize("case", list(PEAK_CASES))
def test_refinement_peak_stays_within_its_largest_charge(monkeypatch, case):
    call, floor = PEAK_CASES[case]
    # the per-round charge of all samples refined at a level bounds work,
    # not what is held at once; only the memory charges are compared here
    monkeypatch.setattr(trigpoly, "_BYTES_PER_LEVEL_POINT", 0)
    charges = []
    check = trigpoly._check_bytes
    monkeypatch.setattr(trigpoly, "_check_bytes", lambda need, what: (charges.append(need), check(need, what)))
    _, peak = _traced_peak(call)
    assert floor * max(charges) <= peak <= max(charges)
