"""Polynomial data model, norms, grid evaluation, sup and L^q norms."""

import decimal
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from thinset_lab import (
    DomainError,
    orlicz,
    ResourceLimitError,
    TrigPolynomial,
    default_grid_size,
    errors,
    evaluate_grid,
    fq_norm,
    lorentz_norms,
    lq_function_norm,
    psi_set_norm,
    sup_norm,
    sup_norm_rows,
    trigpoly,
)
from thinset_lab.trigpoly import _PRODUCT_TERMS_PER_LOG2, _fft_values, _product_values
from util_oracles import direct_values, uncentred_sup_norm_rows


def _random_poly(rng, max_abs_freq=512, size_hi=12):
    m = int(rng.integers(1, size_hi + 1))
    freqs = rng.choice(np.arange(-max_abs_freq, max_abs_freq + 1), size=m, replace=False)
    coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return TrigPolynomial(zip(freqs.tolist(), coeffs.tolist()))


# --- construction -----------------------------------------------------------


def test_construct_from_dict_pairs_and_copy():
    f = TrigPolynomial({3: 1.0, -1: 2j})
    g = TrigPolynomial([(-1, 2j), (3, 1.0)])
    assert f == g
    assert TrigPolynomial(f) == f
    assert list(f.freqs) == [-1, 3]
    assert f.terms() == {-1: 2j, 3: 1.0}


def test_zero_coefficients_dropped_and_norms_unchanged():
    f = TrigPolynomial({1: 1.0, 2: 0.0, 5: 3.0})
    assert len(f) == 2
    assert fq_norm(f, 2.0) == fq_norm(TrigPolynomial({1: 1.0, 5: 3.0}), 2.0)


def test_duplicate_frequencies_rejected():
    with pytest.raises(DomainError):
        TrigPolynomial([(1, 1.0), (1, 2.0)])


def test_frequency_magnitude_capped():
    with pytest.raises(DomainError):
        TrigPolynomial({1 << 62: 1.0})


@pytest.mark.parametrize("coeff", [math.nan, math.inf, complex(1.0, -math.inf), complex(math.nan, 0.0)])
def test_non_finite_coefficients_rejected(coeff):
    with pytest.raises(DomainError, match=r"term \(5, .*not finite"):
        TrigPolynomial({1: 1.0, 5: coeff})


@pytest.mark.parametrize("freq", [1.7, -0.5, math.nan, math.inf, "3"])
def test_non_integer_frequencies_rejected(freq):
    with pytest.raises(DomainError, match="frequency is not an integer"):
        TrigPolynomial([(2, 1.0), (freq, 1.0)])
    with pytest.raises(DomainError, match="frequency is not an integer"):
        TrigPolynomial.from_json_obj([[2, 1.0, 0.0], [freq, 1.0, 0.0]])
    # integral floats and numpy integers still pass
    assert TrigPolynomial([(3.0, 1.0), (np.int64(-2), 2.0)]).terms() == {-2: 2.0, 3: 1.0}


@pytest.mark.parametrize("member", [2.7, True])
def test_indicator_rejects_non_integer_members(member):
    with pytest.raises(DomainError, match=re.escape(f"term ({member!r}, 1.0): frequency is not an integer")):
        TrigPolynomial.indicator([1, member, 5])
    with pytest.raises(DomainError, match=re.escape(repr(member))):
        psi_set_norm([member, 4.2], 2.0)
    assert TrigPolynomial.indicator([3.0, np.int64(5)]).terms() == {3: 1.0, 5: 1.0}


def test_empty_polynomial_degree_and_norms():
    f = TrigPolynomial()
    assert len(f) == 0 and f.degree == 0
    assert fq_norm(f, 1.0) == 0.0
    assert fq_norm(f, math.inf) == 0.0
    assert sup_norm(f) == 0.0
    assert lq_function_norm(f, 2.0) == 0.0
    assert lorentz_norms(f, 1.5) == (0.0, 0.0)
    # an explicit grid is checked against the floor for every polynomial
    with pytest.raises(DomainError):
        lq_function_norm(f, 2.0, M=2)


def test_coefficient_arrays_read_only():
    f = TrigPolynomial({1: 1.0})
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


def test_json_round_trip():
    f = TrigPolynomial({4: 1 + 2j, -7: 0.5})
    assert TrigPolynomial.from_json_obj([[-7, 0.5, 0.0], [4, 1.0, 2.0]]) == f
    with pytest.raises(DomainError):
        TrigPolynomial.from_json_obj([[1, 2]])
    with pytest.raises(DomainError):
        TrigPolynomial.from_json_obj({"1": 2})


# --- coefficient norms ------------------------------------------------------


def test_fq_norm_examples():
    ind = TrigPolynomial.indicator([3, 10, 44, 100])
    assert math.isclose(fq_norm(ind, 2.0), 4.0**0.5, rel_tol=1e-15)
    assert math.isclose(fq_norm(ind, 4.0 / 3.0), 4.0**0.75, rel_tol=1e-15)
    f = TrigPolynomial({1: 3.0, 2: 4.0})
    assert math.isclose(fq_norm(f, 2.0), 5.0, rel_tol=1e-15)
    assert fq_norm(f, math.inf) == 4.0
    with pytest.raises(DomainError):
        fq_norm(f, 0.9)


def test_fq_norm_decreasing_in_q():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = _random_poly(rng)
        qs = [1.0, 1.3, 2.0, 3.5, math.inf]
        vals = [fq_norm(f, q) for q in qs]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12
        assert vals[-1] == np.abs(f.coeffs).max()


@pytest.mark.parametrize("q", [2000.0, 1e6])
def test_fq_norm_at_large_q_matches_a_decimal_oracle(q):
    # a largest modulus scaled into [1, 2) overflowed a**q once q*log2(a) > 1024
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = 60, 10**8
        want = float(((D(50).sqrt() ** D(q) + D(7) ** D(q)).ln() / D(q)).exp())
    assert math.isclose(fq_norm(TrigPolynomial({1: 1 + 7j, 2: 7j}), q), want, rel_tol=1e-15)


def test_lq_function_norm_at_large_q_stays_below_the_sup():
    f = TrigPolynomial({1: 1 + 7j, 2: 7j})
    value = lq_function_norm(f, 2000.0)
    assert math.isfinite(value)
    assert lq_function_norm(f, 1000.0) <= value <= sup_norm(f) * (1.0 + 1e-9)


def test_coefficient_norms_past_float64_raise():
    f = TrigPolynomial({0: 1e308, 1: 1e308, 2: 1e308})
    with pytest.raises(DomainError, match="float64"):
        fq_norm(f, 1.0)
    for q in (1.2, 1.5, 1.8):
        with pytest.raises(DomainError, match="float64"):
            lorentz_norms(f, q)
    # the largest modulus alone is still in range
    assert fq_norm(f, math.inf) == 1e308


def test_lorentz_single_coefficient_and_ordering():
    f = TrigPolynomial({9: -2.5})
    assert lorentz_norms(f, 1.5) == (2.5, 2.5)
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = _random_poly(rng)
        for q in (1.2, 1.5, 1.8):
            l1, linf = lorentz_norms(f, q)
            mid = fq_norm(f, q)
            assert linf <= mid + 1e-12
            assert mid <= l1 + 1e-12


def test_lorentz_geometric_coefficients():
    k = 8
    f = TrigPolynomial({j: 2.0 ** (-(j - 1)) for j in range(1, k + 1)})
    _, linf = lorentz_norms(f, 1.5)
    expect = max(n ** (2.0 / 3.0) * 2.0 ** (-(n - 1)) for n in range(1, k + 1))
    assert math.isclose(linf, expect, rel_tol=1e-12)


def test_lorentz_indicator_l_q1_bound():
    A = list(range(1, 21))
    f = TrigPolynomial.indicator(A)
    for q in (1.2, 1.5, 1.9):
        l1, _ = lorentz_norms(f, q)
        q_conj = q / (q - 1.0)
        assert math.isclose(l1, sum(k ** (-1.0 / q_conj) for k in range(1, 21)), rel_tol=1e-12)
        assert l1 <= q * 20.0 ** (1.0 / q)


def test_lorentz_domain():
    f = TrigPolynomial({1: 1.0})
    for q in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(DomainError):
            lorentz_norms(f, q)


# --- evaluation -------------------------------------------------------------


def test_evaluate_grid_examples():
    const = TrigPolynomial({0: 1.0})
    assert np.allclose(evaluate_grid(const, 4), np.ones(4))
    e1 = TrigPolynomial({1: 1.0})
    assert np.allclose(evaluate_grid(e1, 4), [1, 1j, -1, -1j])
    N = 5
    dirichlet = TrigPolynomial.indicator(range(-N, N + 1))
    assert math.isclose(evaluate_grid(dirichlet, 64)[0].real, 2 * N + 1, rel_tol=1e-12)


def test_evaluate_grid_direct_matches_fft_on_random_polys():
    rng = np.random.default_rng(11)
    for _ in range(100):
        f = _random_poly(rng, max_abs_freq=512)
        M = 2048
        # every frequency fits the grid, and at most 12 terms on 2^11 points
        # take the twiddle product
        a = evaluate_grid(f, M)
        assert np.max(np.abs(a - direct_values(f, M))) < 1e-9


def test_evaluate_grid_fft_requires_fitting_frequencies():
    # 100 lies outside [-32, 32) and aliases onto residue 36; placing each
    # term by its residue still gives f's values on the grid
    f = TrigPolynomial({100: 1.0, -3: 2.0 - 1.0j})
    assert np.max(np.abs(evaluate_grid(f, 64) - direct_values(f, 64))) < 1e-12


def _reduced(f, M):
    """f with each frequency replaced by its residue mod M, aliased terms summed:
    the same values on the M-point grid, with frequencies small enough that
    direct_values' k * g stays exact."""
    terms: dict = {}
    for g, c in zip(f.freqs.tolist(), f.coeffs.tolist()):
        terms[g % M] = terms.get(g % M, 0.0) + c
    return TrigPolynomial(terms)


@pytest.mark.parametrize(
    "M, n, kernel",
    [(1024, 40, "product"), (2**16, 3, "product"), (1000, 3, "fft"), (1024, 41, "fft"), (3 * 2**10, 8, "fft")],
)
def test_evaluate_grid_takes_one_kernel_rule(monkeypatch, M, n, kernel):
    # the product on a power-of-two grid with n <= 4*log2(M) terms, the FFT
    # otherwise; either way the values match a termwise sum, frequencies
    # near +-2^61 included
    calls = []
    for name in ("_product_values", "_fft_values"):
        real = getattr(trigpoly, name)
        monkeypatch.setattr(trigpoly, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    rng = np.random.default_rng(M + n)
    freqs = rng.choice(np.arange(-4 * M, 4 * M), size=n - 2, replace=False).tolist() + [2**61 - 5, 3 - 2**61]
    f = TrigPolynomial(zip(freqs, (rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist()))
    values = evaluate_grid(f, M)
    assert calls == [f"_{kernel}_values"]
    assert np.abs(values - direct_values(_reduced(f, M), M)).max() <= 1e-12 * np.abs(f.coeffs).sum()


def test_evaluate_grid_domain():
    with pytest.raises(DomainError):
        evaluate_grid(TrigPolynomial({1: 1.0}), 0)


def test_dense_grids_over_the_byte_cap_raise_before_allocating():
    huge = TrigPolynomial({1: 1.0, 2**40: 1.0})
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        sup_norm(huge)
    with pytest.raises(ResourceLimitError):
        evaluate_grid(TrigPolynomial({1: 1.0}), 2**46)
    with pytest.raises(ResourceLimitError):
        lq_function_norm(TrigPolynomial({1: 1.0}), 2.0, M=2**46)
    assert time.perf_counter() - start < 1.0


# --- sup norm ---------------------------------------------------------------


def test_sup_norm_past_float64_raises():
    # 3e308 has no float64; a row just inside the range keeps its S
    with pytest.raises(DomainError, match="float64"):
        sup_norm(TrigPolynomial({0: 1e308, 1: 1e308, 2: 1e308}))
    assert sup_norm(TrigPolynomial({0: 8e307, 1: 8e307})) == 1.6e308


def test_sup_norm_exact_cases():
    assert sup_norm(TrigPolynomial({17: 3 - 4j})) == 5.0
    assert math.isclose(sup_norm(TrigPolynomial({1: 1.0, -1: 1.0})), 2.0, rel_tol=1e-9)
    A = [1, 5, 25, 125]
    assert math.isclose(sup_norm(TrigPolynomial.indicator(A)), 4.0, rel_tol=1e-9)


@pytest.mark.parametrize("c", [1e300, 1e200, 1e-160, 1e-170, 1e-310])
@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-13])
def test_sup_norm_certified_at_extreme_magnitudes(c, tol):
    # the squared moduli of these rows overflow or underflow unless each row
    # is first scaled by a power of two
    s = sup_norm(TrigPolynomial({0: c, 3: c}), rel_tol=tol)
    assert s <= 2.0 * c <= s * (1.0 + tol)


def test_sup_norm_rel_tol_domain():
    f = TrigPolynomial({1: 1.0, 2: 1.0})
    for bad in (0.0, -1e-3, 0.2):
        with pytest.raises(DomainError):
            sup_norm(f, rel_tol=bad)


def test_sup_norm_certified_bracket_against_dense_grid():
    rng = np.random.default_rng(12)
    for _ in range(25):
        f = _random_poly(rng, max_abs_freq=40, size_hi=8)
        tol = 1e-6
        s = sup_norm(f, rel_tol=tol)
        dense = np.abs(evaluate_grid(f, 1 << 16)).max()
        # dense grid max is a lower bound for the true sup, which lies in
        # [s, s*(1+tol)]
        assert dense <= s * (1.0 + tol) * (1.0 + 1e-12)
        assert s <= dense * (1.0 + 1e-4)


def test_sup_norm_between_l2_and_l1_coefficient_norms():
    rng = np.random.default_rng(13)
    for _ in range(25):
        f = _random_poly(rng)
        s = sup_norm(f, rel_tol=1e-9)
        assert s >= fq_norm(f, 2.0) * (1.0 - 1e-9)
        assert s <= fq_norm(f, 1.0) * (1.0 + 1e-9)


def test_sup_norm_rel_tol_floor():
    f = TrigPolynomial({1: 1.0, 2: 1.0})
    # below float64 resolution the refinement would keep every sample
    for bad in (1e-16, 1e-300, math.nan):
        with pytest.raises(DomainError):
            sup_norm(f, rel_tol=bad)
        with pytest.raises(DomainError):
            sup_norm_rows(f.freqs, f.coeffs[None, :], bad)
    start = time.perf_counter()
    assert sup_norm(f, rel_tol=1e-15) == 2.0
    assert time.perf_counter() - start < 1.0


def _differential_spectra(rng):
    """(freqs, rows) pairs: mixed signs, odd widths, a lacunary run, one nonzero
    frequency, and two spectra too full for the twiddle product."""
    cases = []
    for _ in range(4):
        freqs = np.sort(rng.choice(np.arange(-60, 61), size=int(rng.integers(2, 10)), replace=False))
        cases.append(freqs)
    cases.append(np.array([3, 4, 9, 20, 40]))  # width 37
    cases.append(np.array([-7, 0, 2, 6]))  # width 13
    cases.append(np.array([2, 4, 8, 16, 32, 64, 128]))  # lacunary, width 126
    cases.append(np.array([0, 37]))
    cases.append(np.array([37]))
    cases.append(np.arange(-20, 21))  # 41 terms on a 1024-point grid
    cases.append(np.arange(-59, 60, 2))  # 60 terms, width 118
    out = []
    for freqs in cases:
        rows = rng.standard_normal((5, freqs.size)) + 1j * rng.standard_normal((5, freqs.size))
        out.append((freqs.astype(np.int64), rows))
    return out


def _assert_certified(freqs, rows, tol, *estimates):
    """Each estimate agrees with the termwise uncentred kernel and a fine direct grid.

    Both kernels certify true sup in [S, S(1+tol)], and a 2^16-point grid falls
    short of the true sup by at most (W pi / 2^16)^2 / 2 relative.
    """
    M = 1 << 16
    old = uncentred_sup_norm_rows(freqs, rows, tol)
    width = int(freqs[-1] - freqs[0])
    grid_gap = (width * math.pi / M) ** 2 / 2.0
    for i in range(rows.shape[0]):
        f = TrigPolynomial(zip(freqs.tolist(), rows[i].tolist()))
        dense = np.abs(direct_values(f, M)).max()
        for new in estimates:
            assert new[i] <= old[i] * (1.0 + tol) * (1.0 + 1e-12)
            assert old[i] <= new[i] * (1.0 + tol) * (1.0 + 1e-12)
            assert dense <= new[i] * (1.0 + tol) * (1.0 + 1e-12)
            assert new[i] <= dense / math.sqrt(1.0 - grid_gap) * (1.0 + 1e-12)


@pytest.mark.parametrize("tol", [1e-3, 1e-9])
def test_centred_sup_matches_uncentred_kernel_and_fine_grid(tol):
    rng = np.random.default_rng(16)
    product_path = set()
    for freqs, rows in _differential_spectra(rng):
        half = (int(freqs[-1]) - int(freqs[0]) + 1) // 2
        product_path.add(freqs.size <= _PRODUCT_TERMS_PER_LOG2 * math.log2(default_grid_size(half)))
        _assert_certified(freqs, rows, tol, sup_norm_rows(freqs, rows, tol))
    # the spectra exercise both grid kernels
    assert product_path == {True, False}


def _flat_heavy_tailed_rows(rng, n):
    """Three rows in which one coefficient is 10^3 times the rest, as when one
    heavy-tailed p-stable draw dominates: |f|^2 then varies by well under the
    first curvature gap, and the grid stage keeps nearly every sample."""
    rows = 1e-3 * (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
    rows[np.arange(3), rng.integers(0, n, 3)] = np.exp(2j * np.pi * rng.random(3))
    return rows


@pytest.mark.parametrize("tol", [1e-3, 1e-9])
def test_carried_refinement_matches_termwise_kernel_and_fine_grid(monkeypatch, tol):
    rng = np.random.default_rng(19)
    sparse = np.sort(rng.choice(np.arange(-60, 61), 8, replace=False)).astype(np.int64)
    interval = np.arange(-20, 21)  # 41 terms: the FFT grid
    cases = [
        (sparse, rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))),
        (sparse, _flat_heavy_tailed_rows(rng, 8)),
        (interval, _flat_heavy_tailed_rows(rng, interval.size)),
    ]
    waiting = []
    charge = trigpoly._charge_round

    def spy(n, kept, wait, seeds, levels):
        waiting.append(wait)
        charge(n, kept, wait, seeds, levels)

    for freqs, rows in cases:
        whole = sup_norm_rows(freqs, rows, tol)
        # chunks of 64 term values: survivors outgrow them and wait on the stack
        with monkeypatch.context() as m:
            m.setattr(trigpoly, "_REFINE_VALUES", 64)
            m.setattr(trigpoly, "_charge_round", spy)
            split = sup_norm_rows(freqs, rows, tol)
        _assert_certified(freqs, rows, tol, whole, split)
    assert max(waiting) > 0


def test_barely_flat_row_at_the_default_tolerance_is_answered():
    # |f|^2 varies by 4e-8 relative or less, so every cell survives six or
    # more of the nine rounds at tol 1e-9, and at c <= 3e-10 nearly all of
    # them: 2^19 cells in the ninth.  Splitting each kept cell in two keeps
    # that under the byte cap
    for c in (1e-8, 3e-10, 1e-20):
        s = sup_norm(TrigPolynomial({0: 1.0, 5: c}))
        assert s <= (1.0 + c) * (1.0 + 1e-12)
        assert 1.0 + c <= s * (1.0 + 1e-9) * (1.0 + 1e-12)


def test_refinement_splits_each_kept_cell_into_two_disjoint_halves(monkeypatch):
    # a round splits a kept cell into its two halves and drops it, so round
    # L splits at most 1024 * 2^L cells of the 1024-point grid; keeping each
    # sample next to both its midpoints would refine about three times more
    f = TrigPolynomial({0: 1.0, 5: 1e-8})
    rounds = _rounds(f.freqs, 1e-9)
    assert rounds == 9 and default_grid_size(3) == 1024
    split = [0]
    charge = trigpoly._charge_round

    def spy(n, kept, waiting, seeds, levels):
        split[0] += kept
        charge(n, kept, waiting, seeds, levels)

    monkeypatch.setattr(trigpoly, "_charge_round", spy)
    sup_norm(f)
    # the spy also counts each chunk once as it is seeded from the grid
    assert split[0] <= 1024 * (2 ** (rounds + 1) - 1)


def _rounds(freqs, tol):
    """Bisection rounds sup_norm_rows makes on this spectrum at tol."""
    c = (freqs[0] + freqs[-1]) // 2
    deg = max(c - freqs[0], freqs[-1] - c)
    M = default_grid_size(deg)
    return next(L for L in range(1, 64) if trigpoly._gap(deg, M, L) <= tol)


@pytest.mark.parametrize(
    "freqs, row, tol, cap",
    [
        ([0, 5], [1.0, 1e-20], 1e-15, None),  # constant modulus in float64
        (list(range(0, 112, 7)), [1.0] + [1e-9] * 15, 1e-15, 1 << 24),
        ([0, 5], [0.0, 0.0], 1e-9, 1 << 24),
    ],
)
def test_rows_of_nearly_constant_modulus_are_refused_by_the_byte_cap(monkeypatch, freqs, row, tol, cap):
    # every cell stays within the gap of the row maximum round after round,
    # so the kept set nearly doubles each round until the cells of one
    # round, charged as if held at once, outgrow the cap.  Small chunks keep
    # the rounds' own charges under a lowered cap
    if cap is not None:
        monkeypatch.setattr(errors, "_BYTES_CAP", cap)
        monkeypatch.setattr(trigpoly, "_REFINE_VALUES", 256)
    bound = _rounds(freqs, tol) * (errors._BYTES_CAP // trigpoly._BYTES_PER_LEVEL_POINT)
    refined = [0]
    charge = trigpoly._charge_round

    def spy(n, kept, waiting, seeds, levels):
        # no round refines more cells than the cap admits; failing here,
        # not after the call, keeps an unbounded refinement from hanging
        refined[0] += kept
        assert refined[0] <= bound
        charge(n, kept, waiting, seeds, levels)

    monkeypatch.setattr(trigpoly, "_charge_round", spy)
    with pytest.raises(ResourceLimitError, match="kept points of .* in round"):
        sup_norm_rows(np.array(freqs), np.array([row], dtype=np.complex128), tol)


def test_sup_norm_at_half_width_2_18_reaches_the_aligned_sum():
    # with c_g = a_g exp(-i g t*), a_g > 0, the sup is sum a_g, reached at
    # t* = 2 pi p / q, which lies on no dyadic grid; the phases use the exact
    # index g*p mod q.  The exact sum is the oracle here: the termwise kernel
    # and a fine direct grid would each need more than 2^23 points
    rng = np.random.default_rng(20)
    inner = rng.choice(np.arange(1 - 2**18, 2**18), 4, replace=False)
    freqs = np.sort(np.concatenate([[-(2**18), 2**18], inner])) + 12345
    q = 1_000_003
    p = int(rng.integers(1, q))
    a = rng.uniform(0.5, 2.0, (2, freqs.size))
    rows = a * np.exp(-2j * np.pi * (freqs * p % q) / q)
    exact = a.sum(axis=1)
    for tol in (1e-3, 1e-9):
        s = sup_norm_rows(freqs, rows, tol)
        assert np.all(s <= exact * (1.0 + 1e-12))
        assert np.all(exact <= s * (1.0 + tol) * (1.0 + 1e-12))


def _odd_width_spectrum(rng, M, n, width):
    """n sorted distinct frequencies in [-M/2, M/2) spanning exactly `width`."""
    lo = int(rng.integers(-(M // 2), M // 2 - width))
    inner = rng.choice(np.arange(lo + 1, lo + width), size=n - 2, replace=False)
    return np.sort(np.concatenate([[lo, lo + width], inner])).astype(np.int64)


@pytest.mark.parametrize("log2_M", [10, 12, 15, 17, 20])
def test_product_grid_matches_fft_grid(log2_M):
    rng = np.random.default_rng(18 + log2_M)
    M = 1 << log2_M
    rule = _PRODUCT_TERMS_PER_LOG2 * log2_M
    for n in (2, 7, rule, rule + 9):
        for width in (M // 2 - 1, (M // 7) | 1):
            freqs = _odd_width_spectrum(rng, M, n, width)
            rows = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
            product = _product_values(freqs, rows, M)
            fft = _fft_values(freqs, rows, M)
            mass = np.abs(rows).sum(axis=1)
            assert np.all(np.abs(product - fft).max(axis=1) <= 1e-12 * mass)


def test_product_grid_peaks_below_the_fft_grid():
    freqs = np.array([2**j for j in range(1, 17)], dtype=np.int64)
    rows = np.ones((8, freqs.size), dtype=np.complex128)
    centred = freqs - (freqs[0] + freqs[-1]) // 2
    M = default_grid_size(int(centred[-1]))
    assert freqs.size <= _PRODUCT_TERMS_PER_LOG2 * math.log2(M)
    tracemalloc.start()
    try:
        _fft_values(centred, rows, M)
        fft_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sups = sup_norm_rows(freqs, rows, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(sups, 16.0, rtol=1e-12)
    assert peak < fft_peak


@pytest.mark.parametrize("K", [1, -5, 17, 2**20, 2**40 - 3, 2**40, -(2**40)])
def test_sup_norm_is_shift_invariant(K):
    rng = np.random.default_rng(17)
    for freqs in ([0, 1], [-7, 0, 2, 6], [3, 4, 9, 20, 40]):
        coeffs = (rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))).tolist()
        f = TrigPolynomial(zip(freqs, coeffs))
        shifted = TrigPolynomial(zip([g + K for g in freqs], coeffs))
        for tol in (1e-3, 1e-9):
            assert sup_norm(shifted, rel_tol=tol) == sup_norm(f, rel_tol=tol)
    assert sup_norm(TrigPolynomial({2**40: 1.0, 2**40 + 1: 1.0})) == 2.0


def test_sup_norm_rows_matches_scalar_path():
    rng = np.random.default_rng(14)
    freqs = np.array([1, 3, 8, 20], dtype=np.int64)
    rows = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    batched = sup_norm_rows(freqs, rows, 1e-9)
    for i in range(6):
        f = TrigPolynomial(zip(freqs.tolist(), rows[i].tolist()))
        assert math.isclose(batched[i], sup_norm(f, rel_tol=1e-9), rel_tol=1e-8)


# --- function L^q norms -----------------------------------------------------


def test_lq_function_norm_examples():
    assert math.isclose(lq_function_norm(TrigPolynomial({7: 1.0}), 3.0), 1.0, rel_tol=1e-12)
    f = TrigPolynomial({1: 1.0, 2: 1.0})
    assert math.isclose(lq_function_norm(f, 2.0), math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(lq_function_norm(f, 4.0), 6.0**0.25, rel_tol=1e-12)


def test_lq_function_norm_doubles_the_default_grid_for_even_q():
    # |f|^q = |f^(q/2)|^2 spans frequencies up to q*degree.  At q = 18 on
    # {-63, 8, 63} that is 1134, past the default grid of 1024, where the mean
    # picks up the aliased frequency 1024 (7 of 63 and 2 of 8 against 9 of
    # -63): 2.3e-7 relative.  At q = 32 on {-32, 5, 32} it is exactly 1024,
    # where 16 of 32 against 16 of -32 alias: 4.5e-11 relative, so the grid
    # must double when q*degree equals it too.
    cases = [({-63: 1.0, 8: 1.0, 63: 1.0}, 18, 1e-8), ({-32: 1.0, 5: 0.125, 32: 1.0}, 32, 1e-11)]
    for terms, q, aliased_rel in cases:
        f = TrigPolynomial(terms)
        assert default_grid_size(f.degree) == 1024
        c = np.zeros(2 * f.degree + 1)
        for g, x in terms.items():
            c[g + f.degree] = x
        power = np.ones(1)
        for _ in range(q // 2):
            power = np.convolve(power, c)
        want = float(np.sum(power**2)) ** (1.0 / q)
        assert math.isclose(lq_function_norm(f, float(q)), want, rel_tol=1e-12)
        assert not math.isclose(lq_function_norm(f, float(q), M=1024), want, rel_tol=aliased_rel)


def test_lq_function_norm_parseval():
    rng = np.random.default_rng(15)
    for _ in range(20):
        f = _random_poly(rng, max_abs_freq=100)
        M = 4 * (f.degree + 1)
        val = lq_function_norm(f, 2.0, M=M)
        assert abs(val**2 - fq_norm(f, 2.0) ** 2) < 1e-9


@pytest.mark.parametrize("e", [-1000, -300, 500, 1015])
def test_grid_norms_scale_by_a_power_of_two_bit_for_bit(e):
    # the quadratures run on f scaled by the power of two that brings its
    # largest |c| into [1, 2), so a polynomial and its 2^e multiple give the
    # same bits up to 2^e, far out of the range where |f|^q or |f|^2 fit
    rng = np.random.default_rng(21)
    f = _random_poly(rng, max_abs_freq=60, size_hi=9)
    g = TrigPolynomial(zip(f.freqs.tolist(), (f.coeffs * 2.0**e).tolist()))
    for q in (1.0, 2.0, 3.3, 4.0):
        assert lq_function_norm(g, q) == math.ldexp(lq_function_norm(f, q), e)
    psi = orlicz.OrliczFunction("exp_type", 2.0)
    assert orlicz.luxemburg_norm(g, psi, M=2048) == math.ldexp(orlicz.luxemburg_norm(f, psi, M=2048), e)


def test_lq_function_norm_of_huge_coefficients():
    # the sup, 3e308, is past float64, but the L^2 norm sqrt(3)*1e308 is not;
    # at q = 4 the norm is past float64 too
    f = TrigPolynomial({0: 1e308, 1: 1e308, 2: 1e308})
    assert math.isclose(lq_function_norm(f, 2.0), math.sqrt(3.0) * 1e308, rel_tol=1e-15)
    with pytest.raises(DomainError, match="float64"):
        lq_function_norm(f, 4.0)


def test_sup_norm_rows_refuses_rows_that_are_not_finite():
    freqs = np.array([0, 1], dtype=np.int64)
    for bad in (math.inf, math.nan, complex(1.0, -math.inf)):
        with pytest.raises(DomainError, match="not finite"):
            sup_norm_rows(freqs, np.array([[1.0, 1.0], [1.0, bad]]), 1e-9)


def test_lq_function_norm_grid_floor():
    f = TrigPolynomial({10: 1.0})
    with pytest.raises(DomainError):
        lq_function_norm(f, 2.0, M=43)
    with pytest.raises(DomainError):
        lq_function_norm(f, 0.5)


def test_lq_function_norm_rejects_infinite_q():
    # mean(|f|^inf)^(1/inf) would read inf^0 = 1.0, though the sup here is 3
    f = TrigPolynomial.indicator([1, 2, 4])
    for q in (math.inf, math.nan):
        with pytest.raises(DomainError, match=f"q={q}"):
            lq_function_norm(f, q)


def test_default_grid_size_shape():
    assert default_grid_size(0) == 1024
    assert default_grid_size(63) == 1024
    assert default_grid_size(64) == 2048
    m = default_grid_size(1000)
    assert m >= 16 * 1001 and m & (m - 1) == 0
