"""Exponent arithmetic for the thin-set parameter family.

For 1 <= q < p <= 2 the derived quantities are

    epsilon  = (p - q) / (q (p - 1)) = 1 - p'/q'
    1/alpha  = 1/p + 1/q'
    beta     = epsilon/p' + 1/p - 1/2 = 1/q - 1/2
    s        = 2 q' / (2 q' - p')          (equivalently 2 q' = s' p')
    mesh_exp = 1/epsilon = s / (2 - s)

where x' = x/(x-1) denotes the conjugate exponent.  q = 1 is admitted with
q' = inf, giving epsilon = 1 and s = 1.  The Orlicz-side parameters are
rho = (2 - s)/(s - 1) and p_tilde = 2r/(2r - rho) for r >= max(2, rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleError

__all__ = [
    "ExponentTable",
    "OrliczParams",
    "conjugate",
    "derive_exponents",
    "invert_for_q",
    "invert_for_p",
    "orlicz_params",
]

INF = math.inf


def conjugate(x: float) -> float:
    """Conjugate exponent x/(x-1); conjugate(inf) = 1.

    Raises DomainError for finite x <= 1.
    """
    if x == INF:
        return 1.0
    if not x > 1.0:
        raise DomainError(f"conjugate requires x > 1, got {x}")
    return x / (x - 1.0)


@dataclass(frozen=True)
class ExponentTable:
    """All derived exponents for a pair 1 <= q < p <= 2."""

    p: float
    q: float
    p_conj: float
    q_conj: float
    epsilon: float
    alpha: float
    beta: float
    s: float
    mesh_exp: float


@dataclass(frozen=True)
class OrliczParams:
    """Parameters (rho, p_tilde) attached to a pair (s, r)."""

    s: float
    r: float
    rho: float
    p_tilde: float

    @property
    def p_tilde_conj(self) -> float:
        return 2.0 * self.r / self.rho


def derive_exponents(p: float, q: float) -> ExponentTable:
    """Populate the full exponent table for 1 <= q < p <= 2.

    When p = 2 the derived s equals q (classical case); when q = 1,
    q' = inf, epsilon = 1 and s = 1.
    """
    if not (1.0 <= q < p <= 2.0):
        raise DomainError(f"need 1 <= q < p <= 2, got p={p}, q={q}")
    p_conj = conjugate(p)
    q_conj = INF if q == 1.0 else conjugate(q)
    epsilon = (p - q) / (q * (p - 1.0))
    alpha = 1.0 / (1.0 / p + 1.0 / q_conj)
    beta = 1.0 / q - 0.5
    s = 1.0 if q_conj == INF else 2.0 * q_conj / (2.0 * q_conj - p_conj)
    mesh_exp = 1.0 / epsilon
    return ExponentTable(
        p=p,
        q=q,
        p_conj=p_conj,
        q_conj=q_conj,
        epsilon=epsilon,
        alpha=alpha,
        beta=beta,
        s=s,
        mesh_exp=mesh_exp,
    )


def invert_for_q(p: float, s: float) -> float:
    """The q with q' = s'p'/2, i.e. the q for which (p, q) derives this s.

    Requires 1 < p <= 2 and 1 < s < 2; the result always satisfies q < p.
    """
    if not (1.0 < p <= 2.0):
        raise DomainError(f"need 1 < p <= 2, got p={p}")
    if not (1.0 < s < 2.0):
        raise DomainError(f"need 1 < s < 2, got s={s}")
    q_conj = conjugate(s) * conjugate(p) / 2.0
    return conjugate(q_conj)


def invert_for_p(q: float, s: float) -> float:
    """The p with p' = 2q'/s'; requires q <= s (otherwise no p <= 2 exists)."""
    if not (1.0 < q < 2.0):
        raise DomainError(f"need 1 < q < 2, got q={q}")
    if not s < 2.0:
        raise DomainError(f"need s < 2, got s={s}")
    if s < q:
        raise InfeasibleError(f"no p in (1, 2] exists when s < q (s={s}, q={q})")
    p_conj = 2.0 * conjugate(q) / conjugate(s)
    return conjugate(p_conj)


def orlicz_params(s: float, r: float) -> OrliczParams:
    """rho = (2-s)/(s-1) and p_tilde = 2r/(2r - rho) for finite r >= max(2, rho)."""
    if not (1.0 < s < 2.0):
        raise DomainError(f"need 1 < s < 2, got s={s}")
    rho = (2.0 - s) / (s - 1.0)
    if not max(2.0, rho) - 1e-12 <= r < INF:
        raise DomainError(f"need finite r >= max(2, rho) = {max(2.0, rho)}, got r={r}")
    p_tilde = 2.0 * r / (2.0 * r - rho)
    return OrliczParams(s=s, r=r, rho=rho, p_tilde=p_tilde)
