"""Orlicz gauge norms: Young functions, Luxemburg bisection, functionals."""

import math

import numpy as np
import pytest

from thinset_lab import (
    DomainError,
    OrliczFunction,
    TrigPolynomial,
    evaluate_grid,
    log_type_functional,
    luxemburg_norm,
    psi_norm_of_constant,
    psi_set_norm,
)
from thinset_lab.orlicz import FAMILIES, _luxemburg_of_samples


def test_young_function_values():
    psi = OrliczFunction("exp_type", 2.0)
    assert math.isclose(float(psi(1.0)), math.e - 1.0, rel_tol=1e-12)
    assert float(psi(0.0)) == 0.0
    phi = OrliczFunction("log_type", 3.0)
    assert math.isclose(float(phi(1.0)), (1.0 + math.log(2.0)) ** (1.0 / 3.0), rel_tol=1e-12)


def test_young_function_domain():
    with pytest.raises(DomainError):
        OrliczFunction("exp_type", 0.0)
    with pytest.raises(DomainError):
        OrliczFunction("poly", 1.0)


@pytest.mark.parametrize("r", [1e-300, 4e-4])
def test_young_function_rejects_r_with_vanishing_inverse_at_one(r):
    # log(2)^(1/r) underflows to 0, and the Luxemburg bracket divides by it
    with pytest.raises(DomainError):
        OrliczFunction("exp_type", r)
    assert OrliczFunction("exp_type", 1e-3).inverse(1.0) > 0.0


@pytest.mark.parametrize("r", [1e-300])
def test_log_type_rejects_r_whose_bisected_inverse_misses_one(r):
    # the true Phi^{-1}(1) (about 7e-298 at r = 1e-300) lies where phi
    # jumps from below 1 to inf in float64, so the bisection cannot place it
    with pytest.raises(DomainError, match="too small"):
        OrliczFunction("log_type", r)
    for ok in (2.0, 1e-3, 1e-9):
        phi = OrliczFunction("log_type", ok)
        assert math.isclose(float(phi(phi.inverse(1.0))), 1.0, rel_tol=1e-6)


@pytest.mark.parametrize("r", [1e-7, 1e-9, 1e-13, 1e-16])
def test_log_type_inverse_at_one_is_accurate_for_small_r(r):
    # phi is evaluated through log1p(log1p(x)); rounding 1 + log1p(x) first
    # would cost about 2^-53/r relative accuracy, 1e-7 at r = 1e-9
    phi = OrliczFunction("log_type", r)
    assert abs(float(phi(phi.inverse(1.0))) - 1.0) <= 1e-12


@pytest.mark.parametrize("family,r", [("exp_type", 1.0), ("exp_type", 3.0), ("log_type", 2.0)])
def test_inverse_round_trip(family, r):
    phi = OrliczFunction(family, r)
    ys = np.array([1e-6, 0.25, 1.0, 7.0, 1000.0])
    xs = phi.inverse(ys)
    assert np.allclose(phi(xs), ys, rtol=1e-7)
    with pytest.raises(DomainError):
        phi.inverse(-1.0)


@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
def test_constant_norm_closed_form(r):
    psi = OrliczFunction("exp_type", r)
    for c in (1.0, 2.5, -0.7):
        f = TrigPolynomial({0: c})
        want = psi_norm_of_constant(c, r)
        assert math.isclose(luxemburg_norm(f, psi), want, rel_tol=1e-8)
    assert math.isclose(psi_norm_of_constant(1.0, r), math.log(2.0) ** (-1.0 / r), rel_tol=1e-15)


def test_luxemburg_gauge_property():
    # the returned t is feasible, and barely smaller t is not
    rng = np.random.default_rng(21)
    f = TrigPolynomial({1: 1.0, 4: complex(rng.standard_normal(), 1.0), 9: 0.5})
    for phi in (OrliczFunction("exp_type", 2.0), OrliczFunction("log_type", 2.0)):
        t = luxemburg_norm(f, phi, M=4096)
        samples = np.abs(evaluate_grid(f, 4096))
        assert float(np.mean(phi(samples / t))) <= 1.0 + 1e-9
        assert float(np.mean(phi(samples / (t * (1.0 - 1e-6))))) >= 1.0 - 1e-7


def test_homogeneity():
    rng = np.random.default_rng(22)
    for family in ("exp_type", "log_type"):
        phi = OrliczFunction(family, 2.0)
        for _ in range(5):
            m = int(rng.integers(1, 8))
            freqs = rng.choice(np.arange(1, 60), size=m, replace=False)
            coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            f = TrigPolynomial(zip(freqs.tolist(), coeffs.tolist()))
            base = luxemburg_norm(f, phi, M=4096)
            for lam in (0.1, 7.3):
                g = TrigPolynomial(zip(freqs.tolist(), (lam * coeffs).tolist()))
                assert math.isclose(luxemburg_norm(g, phi, M=4096), lam * base, rel_tol=1e-8)


def test_grid_doubling_stability():
    f = TrigPolynomial.indicator([2, 4, 8, 16, 32])
    for family in ("exp_type", "log_type"):
        phi = OrliczFunction(family, 2.0)
        a = luxemburg_norm(f, phi, M=1 << 14)
        b = luxemburg_norm(f, phi, M=1 << 15)
        assert abs(a - b) <= 1e-6 * max(a, b)


def test_explicit_grid_floor():
    f = TrigPolynomial({10: 1.0})
    with pytest.raises(DomainError):
        luxemburg_norm(f, OrliczFunction("exp_type", 2.0), M=128)
    with pytest.raises(DomainError):
        log_type_functional(f, 2.0, M=128)


def test_empty_inputs():
    phi = OrliczFunction("exp_type", 2.0)
    assert luxemburg_norm(TrigPolynomial(), phi) == 0.0
    assert psi_set_norm([], 2.0) == 0.0
    with pytest.raises(DomainError):
        psi_set_norm([], -1.0)
    assert log_type_functional(TrigPolynomial(), 2.0) == 0.0
    # an explicit grid is checked against the floor for every polynomial
    with pytest.raises(DomainError):
        luxemburg_norm(TrigPolynomial(), phi, M=8)
    with pytest.raises(DomainError):
        log_type_functional(TrigPolynomial(), 2.0, M=8)


def test_psi_set_norm_matches_indicator_norm():
    A = [1, 2, 4, 8]
    direct = luxemburg_norm(TrigPolynomial.indicator(A), OrliczFunction("exp_type", 3.0))
    assert math.isclose(psi_set_norm(A, 3.0), direct, rel_tol=1e-12)


def test_psi_set_norm_monotone_in_size():
    vals = [psi_set_norm([2**j for j in range(1, n + 1)], 2.0) for n in range(1, 7)]
    for a, b in zip(vals, vals[1:]):
        assert b > a


def test_log_type_functional_constant():
    c = 3.0
    f = TrigPolynomial({0: c})
    want = c * (1.0 + math.log1p(c)) ** (1.0 / 2.0)
    assert math.isclose(log_type_functional(f, 2.0, M=1024), want, rel_tol=1e-12)
    assert math.isclose(
        log_type_functional(TrigPolynomial({5: 1.0}), 3.0),
        (1.0 + math.log(2.0)) ** (1.0 / 3.0),
        rel_tol=1e-12,
    )
    with pytest.raises(DomainError):
        log_type_functional(f, 0.0)


@pytest.mark.parametrize("r", [1e-3, 5e-324])
def test_log_type_functional_past_float64_raises(r):
    # the grid mean is about 1e322 at r = 1e-3; at 5e-324 already log1p(log1p(x)) / r overflows
    with pytest.raises(DomainError, match="float64"):
        log_type_functional(TrigPolynomial({1: 1.0, 3: 1.0}), r)


def test_luxemburg_norm_near_the_top_of_float64():
    # |f| is within 1e-288 relative of the constant |1e308 + 1e308i| = 1.414e308:
    # a finite grid whose unscaled bisection midpoint (lo + hi) / 2 overflowed
    f = TrigPolynomial({4095: 1e20, 0: 1e308 + 1e308j})
    want = psi_norm_of_constant(abs(1e308 + 1e308j), 7.0)
    assert math.isclose(luxemburg_norm(f, OrliczFunction("exp_type", 7.0)), want, rel_tol=1e-9)


def test_grid_norms_past_float64_raise():
    # three coefficients of 1e308 overflowed the unscaled grid
    huge = TrigPolynomial({0: 1e308, 1: 1e308, 2: 1e308})
    for family in FAMILIES:
        with pytest.raises(DomainError, match="float64"):
            luxemburg_norm(huge, OrliczFunction(family, 2.0))
    with pytest.raises(DomainError, match="float64"):
        log_type_functional(huge, 2.0)


def _bisection_oracle(v, phi):
    """The Luxemburg bisection that evaluates every midpoint, as
    _luxemburg_of_samples computed it before its root search: (value,
    full-grid evaluations)."""
    vmax = float(v.max())
    if vmax == 0.0:
        return 0.0, 0
    lo = vmax / float(phi.inverse(float(v.size)))
    hi = vmax / float(phi.inverse(1.0))
    evals = 0
    # mean phi(v/t) is decreasing in t; keep hi feasible
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        evals += 1
        if float(np.mean(phi(v / mid))) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi, evals


_SAMPLE_SIZES = (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18)
_SAMPLE_KINDS = ("random", "indicator", "spiky", "constant", "padded")
_FAMILY_R = [("exp_type", 0.1)] + [(family, r) for family in FAMILIES for r in (0.3, 1.0, 2.0, 3.0, 10.0)]


def _samples(kind, M, rng):
    """|f| on M points, or samples shaped like it."""
    deg = M // 16 - 1
    if kind == "random":
        freqs = rng.choice(deg + 1, size=int(rng.integers(2, 41)), replace=False)
        coeffs = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
        return np.abs(evaluate_grid(TrigPolynomial(zip(freqs.tolist(), coeffs.tolist())), M))
    if kind == "indicator":
        A = rng.choice(np.arange(1, deg + 1), size=int(rng.integers(3, 30)), replace=False)
        return np.abs(evaluate_grid(TrigPolynomial.indicator(A.tolist()), M))
    if kind == "spiky":
        v = rng.random(M) * 1e-3
        v[rng.integers(0, M, 3)] = 1.0 + 10.0 * rng.random(3)
        return v
    if kind == "constant":
        # a monomial's grid modulus is constant up to the FFT's rounding
        return np.abs(evaluate_grid(TrigPolynomial({int(rng.integers(0, deg + 1)): 2.5 - 1.5j}), M))
    v = np.zeros(M)
    v[: M // 4] = rng.random(M // 4)
    return v


@pytest.fixture
def phi_grid_calls(monkeypatch):
    """Counts of OrliczFunction calls on arrays of each size."""
    counts = {}
    call = OrliczFunction.__call__

    def counted(self, x):
        counts[np.size(x)] = counts.get(np.size(x), 0) + 1
        return call(self, x)

    monkeypatch.setattr(OrliczFunction, "__call__", counted)
    return counts


@pytest.mark.parametrize("family,r", _FAMILY_R)
def test_luxemburg_of_samples_replays_the_bisection_bit_for_bit(family, r, phi_grid_calls):
    phi = OrliczFunction(family, r)
    rng = np.random.default_rng([int(family == "log_type"), int(100 * r)])
    random_evals = []
    for i, kind in enumerate(_SAMPLE_KINDS * 2):
        M = _SAMPLE_SIZES[(i + int(r)) % len(_SAMPLE_SIZES)]
        v = _samples(kind, M, rng)
        want, oracle_evals = _bisection_oracle(v, phi)
        phi_grid_calls.clear()
        got = _luxemburg_of_samples(v, phi)
        assert got == want, (kind, M)
        assert phi_grid_calls.get(M, 0) <= oracle_evals, (kind, M)
        if kind == "random":
            random_evals.append(phi_grid_calls.get(M, 0))
    assert np.mean(random_evals) <= 12.0
    zeros = np.zeros(1024)
    assert _luxemburg_of_samples(zeros, phi) == _bisection_oracle(zeros, phi)[0] == 0.0


def _stress_samples(rng):
    """A Young function and samples: either family, r log-uniform in
    [10^-2.5, 10^3], 2^8 to 2^14 points of random-spectrum, spiky, Pareto,
    zero-padded or 1e-14-noisy constant samples."""
    phi = OrliczFunction(FAMILIES[int(rng.integers(2))], float(10.0 ** rng.uniform(-2.5, 3.0)))
    M = 1 << int(rng.integers(8, 15))
    kind = ("random", "spiky", "pareto", "padded", "noisy")[int(rng.integers(5))]
    if kind == "random":
        freqs = rng.choice(M // 16, size=min(int(rng.integers(2, 41)), M // 16), replace=False)
        coeffs = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
        return phi, np.abs(evaluate_grid(TrigPolynomial(zip(freqs.tolist(), coeffs.tolist())), M))
    if kind == "pareto":
        return phi, rng.pareto(rng.uniform(0.5, 3.0), M)
    if kind == "noisy":
        return phi, 2.5 * (1.0 + 1e-14 * rng.standard_normal(M))
    return phi, _samples(kind, M, rng)


def test_root_search_cost_on_a_stress_corpus(phi_grid_calls):
    # secant steps spend 1651 evaluations here and the bound allows 2% more,
    # so a search 5% costlier (Illinois regula falsi spent 1733) fails it
    rng = np.random.default_rng(31)
    evals = 0
    for case in range(240):
        phi, v = _stress_samples(rng)
        want, _ = _bisection_oracle(v, phi)
        phi_grid_calls.clear()
        assert _luxemburg_of_samples(v, phi) == want, (case, phi)
        evals += phi_grid_calls.get(v.size, 0)
    assert evals <= 1684


def test_adaptive_grid_doubles_past_its_second_grid(phi_grid_calls):
    rng = np.random.default_rng([0, 30])
    freqs = rng.choice(np.arange(1, 60), size=5, replace=False)
    f = TrigPolynomial(zip(freqs.tolist(), rng.standard_normal(5).tolist()))
    phi = OrliczFunction("exp_type", 30.0)
    got = luxemburg_norm(f, phi)
    grids = sorted(phi_grid_calls)
    assert grids == [1024, 2048, 4096]
    assert got == luxemburg_norm(f, phi, M=grids[-1])


def test_exp_type_at_tiny_r_starts_the_bracket_at_zero():
    # log1p(M)^(1/r) is inf at r = 1e-3, with no overflow warning, so the
    # bracket's lower end is 0
    phi = OrliczFunction("exp_type", 1e-3)
    assert float(phi.inverse(1024.0)) == math.inf
    v = np.abs(evaluate_grid(TrigPolynomial({1: 1.0, 3: 0.5}), 1024))
    assert _luxemburg_of_samples(v, phi) == _bisection_oracle(v, phi)[0]


@pytest.mark.parametrize("family", FAMILIES)
def test_luxemburg_of_samples_is_bit_identical_from_any_guess(family):
    phi = OrliczFunction(family, 2.0)
    rng = np.random.default_rng(7)
    for kind in _SAMPLE_KINDS:
        v = _samples(kind, 1 << 12, rng)
        want, _ = _bisection_oracle(v, phi)
        for guess in (want, want * (1.0 + 1e-7), want * (1.0 - 1e-12), want / 3.0, want * 1e6, 1e-300):
            assert _luxemburg_of_samples(v, phi, guess=guess) == want, (kind, guess)


@pytest.mark.parametrize("r", [1e-3, 0.3, 2.0, 10.0])
def test_log_type_inverse_stops_where_its_bisection_stops_moving(r):
    # the same bytes as all 100 steps of the bisection
    phi = OrliczFunction("log_type", r)
    y = np.array([0.0, 1e-300, 1e-6, 0.25, 1.0, 7.0, 1024.0, float(1 << 21), 1e300])
    lo, hi = np.zeros_like(y), np.maximum(y, np.finfo(np.float64).tiny)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = phi(mid) < y
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    assert np.array_equal(phi.inverse(y), 0.5 * (lo + hi))
    assert float(phi.inverse(1.0)) == phi._inverse_at_one


def test_cached_inverse_is_not_part_of_the_value():
    psi = OrliczFunction("exp_type", 2.0)
    assert repr(psi) == "OrliczFunction(family='exp_type', r=2.0)"
    assert psi == OrliczFunction("exp_type", 2) and hash(psi) == hash(OrliczFunction("exp_type", 2.0))
