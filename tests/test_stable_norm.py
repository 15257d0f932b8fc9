"""Monte Carlo bracket estimates and their deterministic comparators."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from thinset_lab import (
    DomainError,
    DriverDistribution,
    SUP_REL_TOL,
    TrigPolynomial,
    estimate_bracket,
    fq_norm,
    median_of_means,
    sz_lower,
    zero_one_upper,
)


def test_median_of_means_hand_value():
    med, means = median_of_means([1.0, 3.0, 2.0, 8.0, 0.0, 1.0], 3)
    assert list(means) == [2.0, 5.0, 0.5]
    assert med == 2.0
    with pytest.raises(DomainError):
        median_of_means([1.0], 2)
    with pytest.raises(DomainError):
        median_of_means([], 1)


def test_estimate_bracket_empty_polynomial():
    d = DriverDistribution("rademacher")
    est = estimate_bracket(TrigPolynomial(), d, trials=10)
    assert est.value == 0.0 and est.spread == 0.0
    assert est.trials == 10 and est.groups == 3
    assert est.group_means == (0.0,) * est.groups


def test_estimate_bracket_determinism():
    f = TrigPolynomial.indicator([1, 2, 4, 8])
    d = DriverDistribution("p_stable", p=1.5, seed=5, stream_id=2)
    a = estimate_bracket(f, d, trials=64)
    b = estimate_bracket(f, d, trials=64)
    assert a == b
    c = estimate_bracket(f, DriverDistribution("p_stable", p=1.5, seed=6, stream_id=2), trials=64)
    assert a.value != c.value


def test_estimate_bracket_fields_and_groups_default():
    f = TrigPolynomial.indicator([1, 3, 9])
    d = DriverDistribution("p_stable", p=1.5)
    est = estimate_bracket(f, d, trials=64)
    assert est.groups == 4
    assert est.kind == "p_stable" and est.p == 1.5
    assert est.grid_tol == SUP_REL_TOL
    assert len(est.group_means) == 4
    assert est.spread >= 0.0
    obj = asdict(est)
    assert obj["value"] == est.value and obj["trials"] == 64
    with pytest.raises(DomainError):
        estimate_bracket(f, d, trials=0)
    with pytest.raises(DomainError):
        estimate_bracket(f, d, trials=4, groups=9)


def test_heavy_tail_aggregation_switch():
    # 27 trials split into 3 equal groups, so the group-mean average equals
    # the plain mean and the two aggregation rules are distinguishable
    f = TrigPolynomial.indicator([1, 2, 4])
    heavy = estimate_bracket(f, DriverDistribution("p_stable", p=1.5), trials=27)
    assert math.isclose(heavy.value, float(np.median(heavy.group_means)), rel_tol=1e-12)
    light = estimate_bracket(f, DriverDistribution("rademacher"), trials=27)
    assert math.isclose(light.value, float(np.mean(light.group_means)), rel_tol=1e-12)
    p2 = estimate_bracket(f, DriverDistribution("p_stable", p=2.0), trials=27)
    assert math.isclose(p2.value, float(np.mean(p2.group_means)), rel_tol=1e-12)


def test_rademacher_estimate_bounds():
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = int(rng.integers(2, 9))
        freqs = rng.choice(np.arange(1, 80), size=m, replace=False)
        coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = TrigPolynomial(zip(freqs.tolist(), coeffs.tolist()))
        est = estimate_bracket(f, DriverDistribution("rademacher", seed=1), trials=200)
        # per trial the sup dominates the L2 norm, which sign flips preserve
        assert est.value >= fq_norm(f, 2.0) * (1.0 - SUP_REL_TOL) - 3.0 * est.spread
        assert est.value <= fq_norm(f, 1.0) * (1.0 + SUP_REL_TOL)


def test_zero_one_upper_formula():
    assert math.isclose(
        zero_one_upper(9, 512, 1.5),
        9.0 ** (2.0 / 3.0) * math.log(512.0) ** (1.0 / 3.0),
        rel_tol=1e-12,
    )
    assert zero_one_upper(7, 100, 1.0) == 7.0
    with pytest.raises(DomainError):
        zero_one_upper(0, 10, 1.5)
    with pytest.raises(DomainError):
        zero_one_upper(3, 1, 1.5)


def test_sz_lower_matches_counting_bound_on_intervals():
    # sz_lower is zero_one_upper(N, N, p) * N / N there, which rounds back
    # exactly at N = 2, 17 and 4096
    for N in (2, 16, 17, 1000, 4096):
        f = TrigPolynomial.indicator(range(1, N + 1))
        for p in (1.0, 1.2, 1.5, 2.0):
            got, want = sz_lower(f, p), zero_one_upper(N, N, p)
            assert got == want if N in (2, 17, 4096) else math.isclose(got, want, rel_tol=1e-12)


def test_sz_lower_formula_and_domain():
    f = TrigPolynomial.indicator([1, 2, 4, 8])
    want = 8.0 ** (2.0 / 3.0) * math.log(8.0) ** (1.0 / 3.0) * 4.0 / 8.0
    assert math.isclose(sz_lower(f, 1.5), want, rel_tol=1e-12)
    with pytest.raises(DomainError):
        sz_lower(TrigPolynomial(), 1.5)
    with pytest.raises(DomainError):
        sz_lower(TrigPolynomial({0: 1.0, 2: 1.0}), 1.5)
    with pytest.raises(DomainError):
        sz_lower(TrigPolynomial({1: 1.0}), 1.5)
