"""Polynomial data model, norms, grid evaluation, sup and L^q norms."""

import math
import time

import numpy as np
import pytest

from thinset_lab import (
    DomainError,
    ResourceLimitError,
    TrigPolynomial,
    default_grid_size,
    evaluate_grid,
    fq_norm,
    lorentz_norms,
    lq_function_norm,
    sup_norm,
    sup_norm_rows,
)
from util_oracles import direct_values


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
    assert f.coeff(3) == 1.0 and f.coeff(-1) == 2j and f.coeff(7) == 0j


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


def test_empty_polynomial_degree_and_norms():
    f = TrigPolynomial()
    assert len(f) == 0 and f.degree == 0
    assert fq_norm(f, 1.0) == 0.0
    assert sup_norm(f) == 0.0
    assert lq_function_norm(f, 2.0) == 0.0
    assert lorentz_norms(f, 1.5) == (0.0, 0.0)


def test_coefficient_arrays_read_only():
    f = TrigPolynomial({1: 1.0})
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


def test_json_round_trip():
    f = TrigPolynomial({4: 1 + 2j, -7: 0.5})
    assert TrigPolynomial.from_json_obj(f.to_json_obj()) == f
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
        # every frequency fits the grid, so this is the FFT path
        a = evaluate_grid(f, M)
        assert np.max(np.abs(a - direct_values(f, M))) < 1e-9


def test_evaluate_grid_fft_requires_fitting_frequencies():
    # 100 lies outside [-32, 32), so the termwise path answers
    f = TrigPolynomial({100: 1.0, -3: 2.0 - 1.0j})
    assert np.max(np.abs(evaluate_grid(f, 64) - direct_values(f, 64))) < 1e-12


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


def test_sup_norm_exact_cases():
    assert sup_norm(TrigPolynomial({17: 3 - 4j})) == 5.0
    assert math.isclose(sup_norm(TrigPolynomial({1: 1.0, -1: 1.0})), 2.0, rel_tol=1e-9)
    A = [1, 5, 25, 125]
    assert math.isclose(sup_norm(TrigPolynomial.indicator(A)), 4.0, rel_tol=1e-9)


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


def test_lq_function_norm_parseval():
    rng = np.random.default_rng(15)
    for _ in range(20):
        f = _random_poly(rng, max_abs_freq=100)
        M = 4 * (f.degree + 1)
        val = lq_function_norm(f, 2.0, M=M)
        assert abs(val**2 - fq_norm(f, 2.0) ** 2) < 1e-9


def test_lq_function_norm_grid_floor():
    f = TrigPolynomial({10: 1.0})
    with pytest.raises(DomainError):
        lq_function_norm(f, 2.0, M=43)
    with pytest.raises(DomainError):
        lq_function_norm(f, 0.5)


def test_default_grid_size_shape():
    assert default_grid_size(0) == 1024
    assert default_grid_size(63) == 1024
    assert default_grid_size(64) == 2048
    m = default_grid_size(1000)
    assert m >= 16 * 1001 and m & (m - 1) == 0
