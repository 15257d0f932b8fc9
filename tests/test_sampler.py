"""Driver distributions: reproducible streams, laws, degenerate cases."""

import math

import numpy as np
import pytest

from thinset_lab import (
    DomainError,
    DriverDistribution,
    SEED_ENV_VAR,
    make_rng,
    resolve_seed,
    sample_driver,
    sample_isotropic_stable,
    sample_positive_stable,
)


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert resolve_seed(None) == 0
    monkeypatch.setenv(SEED_ENV_VAR, "42")
    assert resolve_seed(None) == 42
    assert resolve_seed(7) == 7
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(DomainError):
        resolve_seed(None)


def test_make_rng_keyed_streams():
    a = make_rng(1, 2, 3).standard_normal(8)
    b = make_rng(1, 2, 3).standard_normal(8)
    c = make_rng(1, 2, 4).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)



@pytest.mark.parametrize("key", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_make_rng_rejects_negative_keys(key):
    with pytest.raises(DomainError, match=">= 0"):
        make_rng(*key)


def test_driver_distribution_validation():
    DriverDistribution("p_stable", p=1.5)
    DriverDistribution("rademacher")
    with pytest.raises(DomainError):
        DriverDistribution("p_stable")
    with pytest.raises(DomainError):
        DriverDistribution("p_stable", p=1.0)
    with pytest.raises(DomainError):
        DriverDistribution("p_stable", p=2.5)
    with pytest.raises(DomainError):
        DriverDistribution("rademacher", p=1.5)
    with pytest.raises(DomainError):
        DriverDistribution("levy", p=1.5)


def test_sample_driver_determinism_and_kinds():
    d = DriverDistribution("p_stable", p=1.5, seed=3, stream_id=9)
    x = sample_driver(d, 100, trial_index=5)
    y = sample_driver(d, 100, trial_index=5)
    z = sample_driver(d, 100, trial_index=6)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)

    r = sample_driver(DriverDistribution("rademacher"), 1000)
    assert r.dtype == np.float64
    assert set(np.unique(r)) == {-1.0, 1.0}

    g = sample_driver(DriverDistribution("complex_gaussian"), 1000)
    assert g.dtype == np.complex128


def test_positive_stable_laplace_transform():
    rng = make_rng(0, 50)
    n = 200_000
    for alpha in (0.6, 0.75, 0.9):
        x = sample_positive_stable(alpha, n, rng)
        assert np.all(x > 0)
        for lam in (0.5, 1.0, 2.0):
            emp = float(np.mean(np.exp(-lam * x)))
            assert abs(emp - math.exp(-(lam**alpha))) < 4.0 / math.sqrt(n)


def test_positive_stable_domain():
    rng = make_rng(0)
    with pytest.raises(DomainError):
        sample_positive_stable(1.0, 10, rng)
    with pytest.raises(DomainError):
        sample_positive_stable(0.5, 0, rng)


def test_isotropic_stable_characteristic_function():
    n = 200_000
    for p in (1.3, 1.7, 2.0):
        z = sample_isotropic_stable(p, n, make_rng(0, 60))
        for radius in (0.5, 1.0):
            emp = float(np.mean(np.cos(radius * z.real)))
            assert abs(emp - math.exp(-(radius**p))) < 4.0 / math.sqrt(n)
            # isotropy: the imaginary axis obeys the same law
            emp_im = float(np.mean(np.cos(radius * z.imag)))
            assert abs(emp_im - math.exp(-(radius**p))) < 4.0 / math.sqrt(n)


def test_p2_reduces_to_complex_gaussian():
    z = sample_isotropic_stable(2.0, 100_000, make_rng(0, 61))
    # subordinator degenerates to the constant 2: Re Z ~ N(0, 2)
    assert abs(float(np.var(z.real)) - 2.0) < 0.05
    assert abs(float(np.var(z.imag)) - 2.0) < 0.05
    a = sample_driver(DriverDistribution("complex_gaussian", seed=1, stream_id=2), 50)
    b = sample_isotropic_stable(2.0, 50, make_rng(1, 2, 0))
    assert np.array_equal(a, b)


def test_stability_under_averaging():
    n = 200_000
    p = 1.5
    z1 = sample_isotropic_stable(p, n, make_rng(0, 70))
    z2 = sample_isotropic_stable(p, n, make_rng(0, 71))
    mixed = (z1 + z2) / 2.0 ** (1.0 / p)
    for radius in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.cos(radius * mixed.real)))
        assert abs(emp - math.exp(-(radius**p))) < 4.0 / math.sqrt(n)
