"""Random coefficient drivers with reproducible counter-based streams.

Three driver families: Rademacher signs, complex Gaussians, and complex
isotropic p-stable variables with characteristic function
E exp(i Re(conj(z) Z)) = exp(-|z|^p).  The stable family is built by
subordination: Z = sqrt(A) * (G1 + i G2) with independent standard normals
and a positive (p/2)-stable factor A scaled so E exp(-u A) = exp(-(2u)^(p/2)).
At p = 2 the factor is the constant 2 and Z is exactly the complex Gaussian
driver, so both kinds share one code path and one law.

Streams are Philox counter-based generators keyed by (seed, stream_id,
trial_index): any trial regenerates in isolation, and estimates do not
depend on how trials are batched or scheduled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_bytes

__all__ = [
    "DRIVER_KINDS",
    "SEED_ENV_VAR",
    "DriverDistribution",
    "resolve_seed",
    "make_rng",
    "sample_positive_stable",
    "sample_isotropic_stable",
    "sample_driver",
]

DRIVER_KINDS = ("rademacher", "complex_gaussian", "p_stable")

SEED_ENV_VAR = "THINSET_LAB_SEED"

# one sample_driver call peaks at about 49 bytes per complex draw (measured)
_BYTES_PER_DRAW = 56


def resolve_seed(seed: int | None = None) -> int:
    """Explicit seed if given, else the THINSET_LAB_SEED variable, else 0."""
    if seed is not None:
        return int(seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None and env.strip():
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return 0


def make_rng(seed: int, stream_id: int = 0, trial_index: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream_id, trial_index), all >= 0."""
    key = [int(seed), int(stream_id), int(trial_index)]
    if min(key) < 0:
        raise DomainError(f"need seed, stream_id and trial_index >= 0, got {key}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class DriverDistribution:
    """A driver family plus its stream key.

    p is used only by the p_stable kind and must lie in (1, 2].
    """

    kind: str
    p: float | None = None
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        if self.kind not in DRIVER_KINDS:
            raise DomainError(f"unknown driver kind {self.kind!r}; want one of {DRIVER_KINDS}")
        if self.kind == "p_stable":
            if self.p is None:
                raise DomainError("p_stable driver needs p")
            p = float(self.p)
            if not 1.0 < p <= 2.0:
                raise DomainError(f"need 1 < p <= 2, got p={p}")
            object.__setattr__(self, "p", p)
        elif self.p is not None:
            raise DomainError(f"driver kind {self.kind!r} takes no p")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream_id", int(self.stream_id))


def sample_positive_stable(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Positive alpha-stable draws with E exp(-lam X) = exp(-lam^alpha).

    Kanter's representation: with U uniform on (0, pi) and W standard
    exponential,

        X = sin(alpha U) * sin(U)^(-1/alpha)
              * (sin((1 - alpha) U) / W)^((1 - alpha)/alpha).

    Requires 0 < alpha < 1.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"need 0 < alpha < 1, got alpha={alpha}")
    n = int(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    u = rng.uniform(0.0, np.pi, n)
    w = rng.standard_exponential(n)
    # exact-zero draws have measure zero; clamp so the 0^negative branch
    # cannot produce inf
    u = np.maximum(u, 1e-12)
    w = np.maximum(w, 1e-300)
    return (
        np.sin(alpha * u)
        * np.sin(u) ** (-1.0 / alpha)
        * (np.sin((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_isotropic_stable(p: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Isotropic complex draws with CF exp(-|z|^p), 1 < p <= 2."""
    p = float(p)
    if not 1.0 < p <= 2.0:
        raise DomainError(f"need 1 < p <= 2, got p={p}")
    n = int(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    if p == 2.0:
        a = np.full(n, 2.0)
    else:
        a = 2.0 * sample_positive_stable(p / 2.0, n, rng)
    g = rng.standard_normal((2, n))
    return np.sqrt(a) * (g[0] + 1j * g[1])


def sample_driver(d: DriverDistribution, n: int, trial_index: int = 0) -> np.ndarray:
    """n driver draws from the (d.seed, d.stream_id, trial_index) stream.

    rademacher yields real +-1 values; the other kinds yield complex.
    """
    rng = make_rng(d.seed, d.stream_id, trial_index)
    n = int(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    _check_bytes(n * _BYTES_PER_DRAW, f"{n} draws")
    if d.kind == "rademacher":
        return rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0
    if d.kind == "complex_gaussian":
        return sample_isotropic_stable(2.0, n, rng)
    return sample_isotropic_stable(d.p, n, rng)
