"""Example set generators, mesh counting, growth fits, representation counts."""

import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from thinset_lab import (
    DomainError,
    FitError,
    ResourceLimitError,
    fit_mesh_exponent,
    generate,
    mesh_counts,
    r_alpha,
)
from util_oracles import brute_r_alpha


def test_generate_squares():
    assert generate("squares", 30) == (1, 4, 9, 16, 25)
    assert generate("squares", 1) == (1,)


def test_generate_powers():
    assert generate("powers", 100) == (2, 4, 8, 16, 32, 64)
    assert generate("powers", 100, base=3) == (3, 9, 27, 81)
    with pytest.raises(DomainError):
        generate("powers", 100, base=1)


def test_generate_sums_of_powers():
    assert generate("sums_of_powers", 100, base=3, d=2) == (12, 30, 36, 84, 90)
    # d = 1 degenerates to the powers themselves
    assert generate("sums_of_powers", 100, base=3, d=1) == (3, 9, 27, 81)


def test_generate_interval_and_random():
    assert generate("interval", 5) == (1, 2, 3, 4, 5)
    a = generate("random", 1000, density=0.3, seed=5)
    b = generate("random", 1000, density=0.3, seed=5)
    c = generate("random", 1000, density=0.3, seed=6)
    assert a == b != c
    assert all(1 <= g <= 1000 for g in a)
    assert 200 < len(a) < 400
    with pytest.raises(DomainError):
        generate("random", 100, density=1.5)
    with pytest.raises(DomainError):
        generate("random", 100)


def test_generate_domain():
    with pytest.raises(DomainError):
        generate("cubes", 10)
    with pytest.raises(DomainError):
        generate("squares", 0)


def test_mesh_counts_matches_brute_force():
    rng = np.random.default_rng(51)
    A = sorted(int(g) for g in rng.choice(np.arange(1, 10_000), size=300, replace=False))
    pts = [10, 100, 1000, 5000, 9999]
    counts = mesh_counts(A, pts)
    assert counts == [sum(1 for g in A if g <= N) for N in pts]
    assert mesh_counts(generate("squares", 10**6), [10**2, 10**4, 10**6]) == [10, 100, 1000]
    with pytest.raises(DomainError):
        mesh_counts(A, [10, 10])


def test_fit_mesh_exponent_exact_power_law():
    pts = [10**k for k in range(2, 9)]
    counts = [math.isqrt(N) for N in pts]
    exponent, resid = fit_mesh_exponent(counts, pts, "power_log")
    assert abs(exponent - 0.5) < 0.02
    assert resid < 0.01


def test_fit_mesh_exponent_polylog():
    pts = [10**k for k in range(2, 9)]
    counts = [int(math.log2(N)) for N in pts]
    exponent, _ = fit_mesh_exponent(counts, pts, "polylog")
    assert abs(exponent - 1.0) < 0.15


def test_fit_mesh_exponent_errors():
    pts = [10, 100, 1000, 10000]
    with pytest.raises(DomainError):
        fit_mesh_exponent([1, 2, 3], pts, "power_log")
    with pytest.raises(DomainError):
        fit_mesh_exponent([1, 2, 3], [10, 100, 1000], "power_log")
    with pytest.raises(FitError):
        fit_mesh_exponent([5, 5, 5, 5], pts, "power_log")
    with pytest.raises(FitError):
        fit_mesh_exponent([0, 1, 2, 3], pts, "power_log")
    with pytest.raises(DomainError):
        fit_mesh_exponent([1, 2, 3, 4], pts, "loglinear")


def test_r_alpha_small_set_by_hand():
    rc = r_alpha([1, 2, 3], 2, 6)
    # ordered pairs from {1,2,3} summing to j
    assert rc.counts == (0, 0, 1, 2, 3, 2, 1)
    assert sum(rc.counts) == 9
    assert math.isclose(rc.mean_square, (1 + 4 + 9 + 4 + 1) / 6.0, rel_tol=1e-12)


def test_r_alpha_matches_indicator_power():
    # r_alpha(j) is the coefficient at j of the alpha-th power of the
    # indicator polynomial; the oracle counts the tuples one by one
    rng = np.random.default_rng(52)
    A = sorted(int(g) for g in rng.choice(np.arange(1, 40), size=6, replace=False))
    for alpha in (2, 3):
        n = alpha * max(A)
        rc = r_alpha(A, alpha, n)
        assert list(rc.counts) == brute_r_alpha(A, alpha, n)
        assert sum(rc.counts) == len(A) ** alpha


def test_r_alpha_on_powers_of_two():
    # the E11 family: sparse members far apart, every sum counted exactly
    A = generate("powers", 2**12, base=2)
    for alpha in (2, 3):
        n = alpha * 2**12
        rc = r_alpha(A, alpha, n)
        assert list(rc.counts) == brute_r_alpha(A, alpha, n)
        assert sum(rc.counts) == len(A) ** alpha
        # n below alpha * max(A), and below some members
        for short in (5000, 3000, 100):
            assert list(r_alpha(A, alpha, short).counts) == brute_r_alpha(A, alpha, short)


def test_r_alpha_one_member_set_is_closed_form_for_huge_alpha():
    start = time.perf_counter()
    assert r_alpha([0], 10**12, 5).counts == (1, 0, 0, 0, 0, 0)
    assert r_alpha([3], 10**12, 5).counts == (0,) * 6
    assert r_alpha([3], 2, 6).counts == (0, 0, 0, 0, 0, 0, 1)
    assert time.perf_counter() - start < 0.5
    for g, alpha, n in [(0, 2, 3), (1, 4, 6), (5, 2, 12)]:
        assert list(r_alpha([g], alpha, n).counts) == brute_r_alpha([g], alpha, n)


def test_r_alpha_truncation_and_padding():
    rc = r_alpha([1, 2], 2, 3)
    assert rc.counts == (0, 0, 1, 2)
    padded = r_alpha([1, 2], 2, 10)
    assert padded.counts[4] == 1 and padded.counts[5] == 0


def test_r_alpha_domain_and_caps():
    with pytest.raises(DomainError):
        r_alpha([1, 2], 1, 5)
    with pytest.raises(DomainError):
        r_alpha([-1, 2], 2, 5)
    with pytest.raises(DomainError):
        r_alpha([], 2, 5)
    # sums above n are never held, so a far member costs nothing
    assert r_alpha([1, 1 << 30], 2, 5).counts == (0, 0, 1, 0, 0, 0)
    with pytest.raises(ResourceLimitError):
        r_alpha(list(range(1, 2000)), 8, 5)
    # a huge alpha is rejected without computing k**alpha
    with pytest.raises(ResourceLimitError):
        r_alpha([1, 2, 3], 2**63, 5)


def test_representation_counts_serialization():
    rc = r_alpha([1, 2, 3], 2, 4)
    obj = json.loads(json.dumps(asdict(rc)))
    assert obj["alpha"] == 2 and obj["counts"] == list(rc.counts)
