"""Luxemburg norms on the circle for two Young-function families.

* ``"exp_type"``: psi_r(x) = exp(x^r) - 1, the subgaussian-scale family.
* ``"log_type"``: phi_r(x) = x * (1 + log(1 + x))^(1/r).

The Haar integral is a uniform grid mean.  The Luxemburg norm is the least
t > 0 with F(t) = mean Phi(|f|/t) <= 1.  It is defined by a bisection to
relative width 1e-9 on the bracket [sup/Phi_inv(M), sup/Phi_inv(1)] that
returns the feasible bracket end, and it is computed in two steps that give
that bisection's result bit for bit from a quarter to a third of its grid
evaluations:

1. Find the root.  Secant steps in log t, on log F (log_type) or
   log log(1 + F) (exp_type), levels that are close to linear in log t.  It
   keeps the largest point a with computed F(a) > 1 + 3E and the smallest b
   with computed F(b) <= 1 - 3E, where E bounds the relative rounding of a
   computed F, and aims each step just off the root on the side still far
   from it.
2. Replay the bisection.  The true F is strictly decreasing, so the
   bisection's computed test fails at every midpoint <= a and passes at
   every midpoint >= b, even where the computed F is not monotone; only a
   midpoint inside (a, b) is evaluated, by the bisection's own expression.

Grid exactness is unavailable for these integrands, so when no grid size is
given the grid doubles until two successive values agree to 1e-7 relative
(cap 2^20 points); each grid's value seeds the next grid's root search.

The log-family Luxemburg norm is only ever needed up to equivalence, and
the quantity actually used downstream is the explicit integral
log_type_functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
# E, a relative bound on the rounding of a computed grid mean of phi(v/t):
# v/t is off by half an ulp, which phi magnifies by its elasticity x phi'/phi
# (up to about r log(M) for exp_type, a few for log_type near its root);
# phi adds a few ulp more and numpy's pairwise mean about log2(M).  The
# budget is about 100 ulp: against extended precision near the root, grids
# of 2^10 to 2^18 points miss by at most 70 ulp (7.7e-15) for exp_type at
# r = 10 and 40 ulp for log_type at any r from 1e-9 to 10.  The exp_type
# miss grows like r (1.3e-12 at r = 1000), so E scales by r / 10 above 10.
_ROUNDING = 1e-12
_ROOT_SEARCH_STEPS = 64
_FLOAT_MAX = float(np.finfo(np.float64).max)
# largest relative miss of phi(Phi^{-1}(1)) from 1 that OrliczFunction accepts
_INVERSE_CHECK_TOL = 1e-6


def _exp_type_rounding(r: float) -> float:
    """E for exp_type at r; its root search aims at F = 1 - 5E, so r needs 5E < 1."""
    return _ROUNDING * max(1.0, r / 10.0)


def _log_type(x: np.ndarray, r: float) -> np.ndarray:
    """x (1 + log(1 + x))^(1/r), as x exp(log1p(log1p(x)) / r): rounding
    1 + log1p(x) would cost about 2^-53/r relative accuracy."""
    return x * np.exp(np.log1p(np.log1p(x)) / r)


@dataclass(frozen=True)
class OrliczFunction:
    """Young function, one of exp_type(x) = e^{x^r} - 1 or
    log_type(x) = x (1 + log(1+x))^{1/r}, with r > 0.

    exp_type needs r below about 2e12: the Luxemburg root search bounds the
    rounding of a computed grid mean by E = 1e-12 r / 10 and aims at
    F = 1 - 5E, which is not positive from there on.  log_type refuses an r
    so small that its inverse at 1 falls below float64 resolution.
    """

    family: str
    r: float
    _inverse_at_one: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; want one of {FAMILIES}")
        r = float(self.r)
        if not r > 0.0:
            raise DomainError(f"need r > 0, got r={r}")
        object.__setattr__(self, "r", r)
        if self.family == "exp_type" and not 5.0 * _exp_type_rounding(r) < 1.0:
            raise DomainError(
                f"r={r} is too large for exp_type: the Luxemburg root search needs r below "
                f"about {2.0 / _ROUNDING:g}, where its rounding bound 1e-12*r/10 stays under 1/5"
            )
        # the Luxemburg bracket divides by Phi^{-1}(1)
        inv = float(self.inverse(1.0))
        if not (inv > 0.0 and math.isfinite(1.0 / inv)):
            raise DomainError(f"r={r} puts the {self.family} inverse at 1 at {inv}, outside float range")
        object.__setattr__(self, "_inverse_at_one", inv)
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
            return _log_type(x, self.r)

    def inverse(self, y):
        """Inverse on y >= 0; exact for exp_type, bisection for log_type."""
        y = np.asarray(y, dtype=np.float64)
        if np.any(y < 0):
            raise DomainError("inverse needs y >= 0")
        if self.family == "exp_type":
            # overflows to inf at tiny r, which puts the Luxemburg bracket's lower end at 0
            with np.errstate(over="ignore"):
                return np.log1p(y) ** (1.0 / self.r)
        # phi_r(x) >= x for x >= 0, so the root lies in [0, y]
        lo = np.zeros_like(y)
        hi = np.maximum(y, np.finfo(np.float64).tiny)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = self(mid) < y
            new_lo = np.where(below, mid, lo)
            new_hi = np.where(below, hi, mid)
            # an iteration that moves nothing repeats itself from here on
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        return 0.5 * (lo + hi)


def _certified_bracket(
    v: np.ndarray, phi: OrliczFunction, lo: float, hi: float, guess: float | None
) -> tuple[float, float]:
    """Points lo <= a < b <= hi with computed F(a) > 1 + 3E and computed
    F(b) <= 1 - 3E, where F(t) = mean phi(v/t); lo or hi stands in for a
    side never certified.

    The computed F is within a factor 1 +- E of the true F, which strictly
    decreases, so the computed F exceeds 1 at every t <= a and is at most 1
    at every t >= b.  The search starts at guess (else hi) and stops once
    b - a is an eighth of the bisection's last width, or once both ends sit
    within 10E of 1, the closest that rounding lets it certify.
    """
    if phi.family == "exp_type":
        # log(1 + F) is c t^-r when |v| is constant
        E = _exp_type_rounding(phi.r)
        slope = phi.r

        def level(F):
            return math.log(math.log1p(F) / math.log(2.0))

    else:
        # phi(x) = x (1 + log(1 + x))^(1/r) is close to linear in x
        E, slope, level = _ROUNDING, 1.0, math.log
    aim_above, aim_below = level(1.0 + 5.0 * E), level(1.0 - 5.0 * E)
    a, b, Fa, Fb = lo, hi, math.inf, -math.inf
    t = hi if guess is None else min(max(guess, lo), hi)
    prev = None  # (log t, level) of the last evaluation
    for _ in range(_ROOT_SEARCH_STEPS):
        if b - a <= _BISECT_REL_TOL * a / 8.0 or (Fa <= 1.0 + 10.0 * E and Fb >= 1.0 - 10.0 * E):
            break
        F = float(np.mean(phi(v / t)))
        # no midpoint reaches lo or hi, so they need no certificate
        if F > 1.0 + 3.0 * E or t == lo:
            a, Fa = t, F
        if F <= 1.0 - 3.0 * E or t == hi:
            b, Fb = t, F
        s, g = math.log(t), level(min(F, _FLOAT_MAX))  # F overflows where lo is 0
        if prev is not None and s != prev[0] and (prev[1] - g) / (s - prev[0]) > 0.0:
            slope = (prev[1] - g) / (s - prev[0])  # the secant's through the last two points
        prev = (s, g)
        aim = aim_above if t - a > b - t else aim_below
        t_next = math.exp(min(s + (g - aim) / slope, math.log(b)))
        if not a < t_next < b:
            end = a if t_next <= a else b
            t_next = math.sqrt(t) * math.sqrt(end) if end > 0.0 else 0.5 * t
        t = t_next
    return a, b


def _luxemburg_of_samples(v: np.ndarray, phi: OrliczFunction, guess: float | None = None) -> float:
    vmax = float(v.max())
    if vmax == 0.0:
        return 0.0
    lo = vmax / float(phi.inverse(float(v.size)))
    hi = vmax / phi._inverse_at_one
    a, b = _certified_bracket(v, phi, lo, hi, guess)
    # mean phi(v/t) is decreasing in t; keep hi feasible.  A midpoint
    # outside (a, b) takes the decision the test below would take there.
    while hi - lo > _BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
        elif mid >= b or float(np.mean(phi(v / mid))) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def luxemburg_norm(f: TrigPolynomial, phi: OrliczFunction, M: int | None = None) -> float:
    """Luxemburg norm inf{t > 0 : grid mean of phi(|f|/t) <= 1}.

    Explicit M must be at least 16*(degree+1); without it the grid doubles
    adaptively.  Empty polynomial gives 0.  The norm is homogeneous, so it
    is taken on the grid of f 2^-e (_grid_abs) and scaled back by 2^e; a
    norm past float64 raises DomainError.
    """
    a, e = _grid_abs(f, M, 16)
    value = _luxemburg_of_samples(a, phi)
    del a  # no two grids are held at once
    if M is None:
        M = default_grid_size(f.degree)
        while M < _ADAPTIVE_GRID_CAP:
            M *= 2
            prev, value = value, _luxemburg_of_samples(_grid_abs(f, M, 16)[0], phi, guess=value)
            if abs(value - prev) <= _ADAPTIVE_REL_TOL * max(value, prev):
                break
    value *= 2.0**e
    if not math.isfinite(value):
        raise DomainError(f"the {phi.family} Luxemburg norm at r={phi.r} lies past the float64 range")
    return value


def psi_set_norm(A, r: float) -> float:
    """exp_type Luxemburg norm of the indicator polynomial of A, on the
    adaptive grid."""
    return luxemburg_norm(TrigPolynomial.indicator(A), OrliczFunction("exp_type", r))


def log_type_functional(f: TrigPolynomial, p_conj: float, M: int | None = None) -> float:
    """Grid mean of |f| (1 + log(1 + |f|))^(1/p_conj).

    Equivalent (not equal) to the log-family Luxemburg norm; this integral
    form is the quantity used by the estimates downstream.
    """
    p_conj = float(p_conj)
    if not p_conj > 0.0:
        raise DomainError(f"need p_conj > 0, got {p_conj}")
    a, e = _grid_abs(f, M, 16)
    with np.errstate(over="ignore"):
        value = float(np.mean(_log_type(np.ldexp(a, e), p_conj)))
    if not math.isfinite(value):
        raise DomainError(f"the log_type functional at r={p_conj} lies past the float64 range")
    return value


def psi_norm_of_constant(c: float, r: float) -> float:
    """Closed form |c| (ln 2)^(-1/r) for the exp_type norm of a constant."""
    r = float(r)
    if not r > 0.0:
        raise DomainError(f"need r > 0, got r={r}")
    return abs(float(c)) * math.log(2.0) ** (-1.0 / r)
