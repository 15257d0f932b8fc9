"""Exponent algebra: fixed values, identities, inverses, domain errors."""

import math

import numpy as np
import pytest

from thinset_lab import (
    DomainError,
    InfeasibleError,
    conjugate,
    derive_exponents,
    invert_for_p,
    invert_for_q,
    orlicz_params,
)


def test_conjugate_fixed_points_and_limits():
    assert conjugate(2.0) == 2.0
    assert conjugate(math.inf) == 1.0
    assert math.isclose(conjugate(4.0 / 3.0), 4.0, rel_tol=1e-15)
    assert math.isclose(conjugate(1.5), 3.0, rel_tol=1e-15)


@pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -3.0])
def test_conjugate_rejects_x_at_most_one(bad):
    with pytest.raises(DomainError):
        conjugate(bad)


def test_table_at_p2_q_four_thirds():
    t = derive_exponents(2.0, 4.0 / 3.0)
    assert math.isclose(t.epsilon, 0.5, rel_tol=1e-12)
    assert math.isclose(t.alpha, 4.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(t.beta, 0.25, rel_tol=1e-12)
    assert math.isclose(t.s, 4.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(t.mesh_exp, 2.0, rel_tol=1e-12)


def test_table_at_q_one_degenerates():
    t = derive_exponents(1.5, 1.0)
    assert t.q_conj == math.inf
    assert t.epsilon == 1.0
    assert t.s == 1.0
    assert math.isclose(t.alpha, 1.5, rel_tol=1e-15)
    assert math.isclose(t.mesh_exp, 1.0, rel_tol=1e-15)


@pytest.mark.parametrize("q", [1.1, 1.25, 4.0 / 3.0, 1.5, 1.75])
def test_s_equals_q_when_p_is_two(q):
    assert math.isclose(derive_exponents(2.0, q).s, q, rel_tol=1e-12)


def test_invert_for_q_known_values():
    assert math.isclose(invert_for_q(1.5, 4.0 / 3.0), 1.2, rel_tol=1e-12)
    assert math.isclose(invert_for_q(1.6, 4.0 / 3.0), 16.0 / 13.0, rel_tol=1e-12)


def test_invert_for_p_matches_forward_map():
    t = derive_exponents(1.7, 1.3)
    assert math.isclose(invert_for_p(1.3, t.s), 1.7, rel_tol=1e-12)


def test_invert_for_p_infeasible_when_s_below_q():
    with pytest.raises(InfeasibleError):
        invert_for_p(1.5, 1.2)


@pytest.mark.parametrize("p,q", [(1.5, 1.5), (1.0, 1.0), (2.5, 1.5), (1.5, 0.9), (1.2, 1.4)])
def test_derive_exponents_domain(p, q):
    with pytest.raises(DomainError):
        derive_exponents(p, q)


def test_identities_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        p = float(rng.uniform(1.05, 2.0))
        q = float(1.0 + rng.uniform(0.01, 0.99) * (p - 1.0))
        t = derive_exponents(p, q)
        ratio = t.p_conj / t.q_conj
        assert abs(t.epsilon - (1.0 - ratio)) <= 1e-12 * max(1.0, ratio)
        assert abs(1.0 / t.alpha - (1.0 / p + 1.0 / t.q_conj)) <= 1e-12
        assert abs(t.beta - (t.epsilon / t.p_conj + 1.0 / p - 0.5)) <= 1e-12
        assert math.isclose(2.0 * t.q_conj, conjugate(t.s) * t.p_conj, rel_tol=1e-12)
        assert math.isclose(t.mesh_exp, 1.0 / t.epsilon, rel_tol=1e-12)
        assert math.isclose(t.mesh_exp, t.s / (2.0 - t.s), rel_tol=1e-12)
        assert math.isclose(invert_for_q(p, t.s), q, rel_tol=1e-12)
        assert math.isclose(invert_for_p(q, t.s), p, rel_tol=1e-12)


def test_orlicz_params_known_values():
    a = orlicz_params(1.5, 2.0)
    assert math.isclose(a.rho, 1.0, rel_tol=1e-12)
    assert math.isclose(a.p_tilde, 4.0 / 3.0, rel_tol=1e-12)
    b = orlicz_params(1.2, 4.0)
    assert math.isclose(b.rho, 4.0, rel_tol=1e-12)
    assert math.isclose(b.p_tilde, 2.0, rel_tol=1e-12)
    c = orlicz_params(4.0 / 3.0, 2.0)
    assert math.isclose(c.rho, 2.0, rel_tol=1e-12)
    assert math.isclose(c.p_tilde, 2.0, rel_tol=1e-12)
    assert math.isclose(c.p_tilde_conj, conjugate(c.p_tilde), rel_tol=1e-12)


def test_orlicz_params_domain():
    with pytest.raises(DomainError):
        orlicz_params(2.0, 3.0)
    with pytest.raises(DomainError):
        orlicz_params(1.0, 3.0)
    # rho(1.2) = 4, so r = 3 sits below max(2, rho)
    with pytest.raises(DomainError):
        orlicz_params(1.2, 3.0)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_orlicz_params_rejects_non_finite_r(r):
    with pytest.raises(DomainError, match="finite r"):
        orlicz_params(1.5, r)
