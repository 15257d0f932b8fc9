"""Driver distributions: reproducible streams, laws, degenerate cases."""

import math

import numpy as np
import pytest

from thinset_lab import (
    DomainError,
    DriverDistribution,
    SEED_ENV_VAR,
    TrigPolynomial,
    estimate_bracket,
    make_rng,
    resolve_seed,
    sample_driver,
    stable_norm,
)
from thinset_lab.sampler import _kanter


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
    a = make_rng(1, 2).standard_normal(8)
    b = make_rng(1, 2).standard_normal(8)
    c = make_rng(1, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # the key [seed, stream_id, 0] of the streams' contract; the trailing 0
    # changes the seed state once the key spans more than four 32-bit words
    for seed, stream_id in ((1, 2), (2**40 + 5, 2**33 + 1)):
        want = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream_id, 0])))
        assert np.array_equal(make_rng(seed, stream_id).standard_normal(8), want.standard_normal(8))


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (-1, -1)])
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


def _p_stable(p, n, stream_id, seed=0):
    return sample_driver(DriverDistribution("p_stable", p, seed=seed, stream_id=stream_id), n)


def test_positive_stable_laplace_transform():
    rng = make_rng(0, 50)
    n = 200_000
    for alpha in (0.6, 0.75, 0.9):
        x = _kanter(alpha, rng.random((n, 4)))
        assert np.all(x > 0)
        for lam in (0.5, 1.0, 2.0):
            emp = float(np.mean(np.exp(-lam * x)))
            assert abs(emp - math.exp(-(lam**alpha))) < 4.0 / math.sqrt(n)


def test_isotropic_stable_characteristic_function():
    n = 200_000
    for p in (1.3, 1.7, 2.0):
        z = _p_stable(p, n, 60)
        for radius in (0.5, 1.0):
            emp = float(np.mean(np.cos(radius * z.real)))
            assert abs(emp - math.exp(-(radius**p))) < 4.0 / math.sqrt(n)
            # isotropy: the imaginary axis obeys the same law
            emp_im = float(np.mean(np.cos(radius * z.imag)))
            assert abs(emp_im - math.exp(-(radius**p))) < 4.0 / math.sqrt(n)


def test_p2_reduces_to_complex_gaussian():
    z = _p_stable(2.0, 100_000, 61)
    # subordinator degenerates to the constant 2: Re Z ~ N(0, 2)
    assert abs(float(np.var(z.real)) - 2.0) < 0.05
    assert abs(float(np.var(z.imag)) - 2.0) < 0.05
    a = sample_driver(DriverDistribution("complex_gaussian", seed=1, stream_id=2), 50)
    b = _p_stable(2.0, 50, 2, seed=1)
    assert np.array_equal(a, b)


def test_stability_under_averaging():
    n = 200_000
    p = 1.5
    z1 = _p_stable(p, n, 70)
    z2 = _p_stable(p, n, 71)
    mixed = (z1 + z2) / 2.0 ** (1.0 / p)
    for radius in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.cos(radius * mixed.real)))
        assert abs(emp - math.exp(-(radius**p))) < 4.0 / math.sqrt(n)


KINDS = [("rademacher", None), ("complex_gaussian", None), ("p_stable", 1.3)]


@pytest.mark.parametrize("kind,p", KINDS)
def test_trial_i_is_draws_i_n_to_i_plus_1_n(kind, p):
    d = DriverDistribution(kind, p=p, seed=4, stream_id=11)
    T, n = 6, 7
    block = sample_driver(d, T * n).reshape(T, n)
    for i in range(T):
        assert np.array_equal(block[i], sample_driver(d, n, trial_index=i))


@pytest.mark.parametrize("kind,p", KINDS)
def test_counter_addressing_holds_across_chunks(kind, p):
    # rows longer than one working chunk of the block transform
    d = DriverDistribution(kind, p=p, seed=2)
    n = 20_000
    block = sample_driver(d, 3 * n)
    assert np.array_equal(block[2 * n :], sample_driver(d, n, trial_index=2))


@pytest.mark.parametrize("kind,p", KINDS)
def test_estimate_bracket_rows_are_regenerable_trials(monkeypatch, kind, p):
    seen = []

    def capture(freqs, rows, rel_tol):
        seen.append(np.array(rows))
        return real_sup(freqs, rows, rel_tol)

    real_sup = stable_norm.sup_norm_rows
    monkeypatch.setattr(stable_norm, "sup_norm_rows", capture)
    f = TrigPolynomial({g: complex(1.0, 0.1 * g) for g in range(1, 13)})
    d = DriverDistribution(kind, p=p, seed=3, stream_id=8)
    trials = 40
    estimate_bracket(f, d, trials)
    (rows,) = seen
    assert rows.shape == (trials, len(f))
    for i in (0, trials - 1):
        assert np.array_equal(rows[i], sample_driver(d, len(f), trial_index=i) * f.coeffs)


def test_sample_driver_rejects_negative_and_wrapping_counters():
    d = DriverDistribution("rademacher")
    with pytest.raises(DomainError, match=">= 0"):
        sample_driver(d, 4, trial_index=-1)
    with pytest.raises(DomainError, match=">= 0"):
        sample_driver(DriverDistribution("rademacher", stream_id=-2), 4)
    with pytest.raises(DomainError, match="2\\^64"):
        sample_driver(d, 4, trial_index=2**62)
    with pytest.raises(DomainError, match="n >= 1"):
        sample_driver(d, 0)
    last = sample_driver(d, 4, trial_index=2**62 - 1)
    assert set(np.unique(last)) <= {-1.0, 1.0}
