"""Luxemburg norms on the circle for two Young-function families.

* ``"exp_type"``: psi_r(x) = exp(x^r) - 1, the subgaussian-scale family.
* ``"log_type"``: phi_r(x) = x * (1 + log(1 + x))^(1/r).

The Haar integral is a uniform grid mean.  The Luxemburg norm is the least
t > 0 with mean Phi(|f|/t) <= 1, found by bisection to relative width 1e-9
on a bracket [sup/Phi_inv(big), sup/Phi_inv(1)]; the feasible bracket end
is returned.  Grid exactness is unavailable for these integrands, so when
no grid size is given the grid doubles until two successive values agree
to 1e-7 relative (cap 2^20 points).

The log-family Luxemburg norm is only ever needed up to equivalence, and
the quantity actually used downstream is the explicit integral
log_type_functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .trigpoly import TrigPolynomial, _grid_abs, default_grid_size

__all__ = [
    "FAMILIES",
    "OrliczFunction",
    "luxemburg_norm",
    "psi_set_norm",
    "log_type_functional",
    "psi_norm_of_constant",
]

FAMILIES = ("exp_type", "log_type")

_ADAPTIVE_REL_TOL = 1e-7
_ADAPTIVE_GRID_CAP = 1 << 20
_BISECT_REL_TOL = 1e-9
# largest relative miss of phi(Phi^{-1}(1)) from 1 that OrliczFunction accepts
_INVERSE_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class OrliczFunction:
    """Young function, one of exp_type(x) = e^{x^r} - 1 or
    log_type(x) = x (1 + log(1+x))^{1/r}, with r > 0."""

    family: str
    r: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; want one of {FAMILIES}")
        r = float(self.r)
        if not r > 0.0:
            raise DomainError(f"need r > 0, got r={r}")
        object.__setattr__(self, "r", r)
        # the Luxemburg bracket divides by Phi^{-1}(1)
        inv = float(self.inverse(1.0))
        if not (inv > 0.0 and math.isfinite(1.0 / inv)):
            raise DomainError(f"r={r} puts the {self.family} inverse at 1 at {inv}, outside float range")
        if self.family == "log_type":
            # at tiny r the root of phi(x) = 1 lies below the bisection's
            # resolution, where phi jumps from under 1 to inf
            at_inv = float(self(inv))
            if not abs(at_inv - 1.0) <= _INVERSE_CHECK_TOL:
                raise DomainError(
                    f"r={r} is too small for float64: the log_type inverse at 1 comes out at {inv:.9g}, "
                    f"where phi is {at_inv:.9g}, not 1"
                )

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            if self.family == "exp_type":
                return np.expm1(x**self.r)
            # (1 + log1p(x))^(1/r) as exp(log1p(log1p(x))/r): rounding
            # 1 + log1p(x) would cost about 2^-53/r relative accuracy
            return x * np.exp(np.log1p(np.log1p(x)) / self.r)

    def inverse(self, y):
        """Inverse on y >= 0; exact for exp_type, bisection for log_type."""
        y = np.asarray(y, dtype=np.float64)
        if np.any(y < 0):
            raise DomainError("inverse needs y >= 0")
        if self.family == "exp_type":
            return np.log1p(y) ** (1.0 / self.r)
        # phi_r(x) >= x for x >= 0, so the root lies in [0, y]
        lo = np.zeros_like(y)
        hi = np.maximum(y, np.finfo(np.float64).tiny)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = self(mid) < y
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def _luxemburg_of_samples(v: np.ndarray, phi: OrliczFunction) -> float:
    vmax = float(v.max())
    if vmax == 0.0:
        return 0.0
    lo = vmax / float(phi.inverse(float(v.size)))
    hi = vmax / float(phi.inverse(1.0))
    # mean phi(v/t) is decreasing in t; keep hi feasible
    while hi - lo > _BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if float(np.mean(phi(v / mid))) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def luxemburg_norm(f: TrigPolynomial, phi: OrliczFunction, M: int | None = None) -> float:
    """Luxemburg norm inf{t > 0 : grid mean of phi(|f|/t) <= 1}.

    Explicit M must be at least 16*(degree+1); without it the grid doubles
    adaptively.  Empty polynomial gives 0.
    """
    if len(f) == 0:
        return 0.0
    if M is not None:
        return _luxemburg_of_samples(_grid_abs(f, M, 16), phi)
    M = default_grid_size(f.degree)
    prev = _luxemburg_of_samples(_grid_abs(f, M, 16), phi)
    while M < _ADAPTIVE_GRID_CAP:
        M *= 2
        cur = _luxemburg_of_samples(_grid_abs(f, M, 16), phi)
        if abs(cur - prev) <= _ADAPTIVE_REL_TOL * max(cur, prev):
            return cur
        prev = cur
    return prev


def psi_set_norm(A, r: float) -> float:
    """exp_type Luxemburg norm of the indicator polynomial of A, on the
    adaptive grid."""
    f = TrigPolynomial.indicator(A)
    if len(f) == 0:
        return 0.0
    return luxemburg_norm(f, OrliczFunction("exp_type", r))


def log_type_functional(f: TrigPolynomial, p_conj: float, M: int | None = None) -> float:
    """Grid mean of |f| (1 + log(1 + |f|))^(1/p_conj).

    Equivalent (not equal) to the log-family Luxemburg norm; this integral
    form is the quantity used by the estimates downstream.
    """
    p_conj = float(p_conj)
    if not p_conj > 0.0:
        raise DomainError(f"need p_conj > 0, got {p_conj}")
    if len(f) == 0:
        return 0.0
    a = _grid_abs(f, M, 16)
    return float(np.mean(a * (1.0 + np.log1p(a)) ** (1.0 / p_conj)))


def psi_norm_of_constant(c: float, r: float) -> float:
    """Closed form |c| (ln 2)^(-1/r) for the exp_type norm of a constant."""
    r = float(r)
    if not r > 0.0:
        raise DomainError(f"need r > 0, got r={r}")
    return abs(float(c)) * math.log(2.0) ** (-1.0 / r)
