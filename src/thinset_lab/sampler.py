"""Random coefficient drivers with reproducible counter-based streams.

Three driver families: Rademacher signs, complex Gaussians, and complex
isotropic p-stable variables with characteristic function
E exp(i Re(conj(z) Z)) = exp(-|z|^p).  The stable family is built by
subordination: Z = sqrt(A) * (G1 + i G2) with independent standard normals
and a positive (p/2)-stable factor A scaled so E exp(-u A) = exp(-(2u)^(p/2)).
At p = 2 the factor is the constant 2 and Z is exactly the complex Gaussian
driver, so both kinds share one code path and one law.

Stream contract: draw j of stream (seed, stream_id) is Philox block j;
trial i of an n-term row is draws [i*n, (i+1)*n).  The Philox key is the
one make_rng(seed, stream_id) derives, and block j is the j-th
four-uniform block that generator emits: Kanter's angle from lane 0, the
exponential -log1p(-u) from lane 1 and one Box-Muller pair from lanes 2
and 3.  A Rademacher draw takes its sign from lane 0 and leaves the other
lanes unused.  No draw rejects or takes a variable number of uniforms, so
trial i regenerates alone from counter i*n, T trials are one
sample_driver(d, T*n) call, and estimates do not depend on how trials are
batched or scheduled.
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
    "sample_driver",
]

DRIVER_KINDS = ("rademacher", "complex_gaussian", "p_stable")

SEED_ENV_VAR = "THINSET_LAB_SEED"

# uniforms per draw: one Philox4x64 block
_LANES = 4
# draws per chunk of the block transform, which bounds its temporaries
_CHUNK_DRAWS = 1 << 14
# bytes per output draw (complex; a Rademacher draw needs 8) and the peak of
# one chunk's temporaries, which tracemalloc reads at 88 bytes per draw
_BYTES_PER_DRAW = 16
_CHUNK_BYTES = 96 * _CHUNK_DRAWS


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


def make_rng(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream_id), both >= 0.

    sample_driver advances make_rng(d.seed, d.stream_id) to a trial's first
    block instead of keying a generator per trial.
    """
    key = [int(seed), int(stream_id)]
    if min(key) < 0:
        raise DomainError(f"need seed and stream_id >= 0, got {key}")
    # the stream contract keys Philox by [seed, stream_id, 0]; the trailing 0
    # changes the seed state once the key spans more than four 32-bit words
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key + [0])))


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


def _draw_bytes(n: int) -> int:
    """Bytes charged for n draws: the output plus one working chunk."""
    return n * _BYTES_PER_DRAW + _CHUNK_BYTES


def _kanter(alpha: float, u: np.ndarray) -> np.ndarray:
    """Positive alpha-stable values, E exp(-lam X) = exp(-lam^alpha), 0 < alpha < 1.

    Kanter's representation from lanes 0 and 1 of a uniform block: with
    U = pi u0 uniform on (0, pi) and W = -log1p(-u1) standard exponential,

        X = sin(alpha U) * sin(U)^(-1/alpha)
              * (sin((1 - alpha) U) / W)^((1 - alpha)/alpha).
    """
    # exact-zero uniforms have measure zero; clamp so the 0^negative branch
    # cannot produce inf
    a = np.maximum(np.pi * u[:, 0], 1e-12)
    w = np.maximum(-np.log1p(-u[:, 1]), 1e-300)
    return (
        np.sin(alpha * a)
        * np.sin(a) ** (-1.0 / alpha)
        * (np.sin((1.0 - alpha) * a) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_driver(d: DriverDistribution, n: int, trial_index: int = 0) -> np.ndarray:
    """Draws [trial_index*n, (trial_index+1)*n) of the (d.seed, d.stream_id) stream.

    The generator is make_rng(d.seed, d.stream_id) advanced by trial_index*n
    blocks, so sample_driver(d, T*n).reshape(T, n)[i] equals
    sample_driver(d, n, trial_index=i).  rademacher yields real +-1 values
    from lane 0.  The other kinds yield complex Z = sqrt(A) (G1 + i G2), with
    A = 2 for complex_gaussian (p = 2) and A = 2X, X positive (p/2)-stable
    from lanes 0 and 1, for p_stable; the Box-Muller pair of lanes 2 and 3
    gives G1 + i G2 = sqrt(2E) exp(2 pi i u3) with E = -log1p(-u2) standard
    exponential.  So |Z| = 2 sqrt(X E), with X = 1 at p = 2.
    """
    key = [d.seed, d.stream_id, int(trial_index)]
    if min(key) < 0:
        raise DomainError(f"need seed, stream_id and trial_index >= 0, got {key}")
    n = int(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    start = key[2] * n
    if start >= 1 << 64:
        raise DomainError(f"start draw trial_index*n = {start} is past the 2^64-block stream")
    _check_bytes(_draw_bytes(n), f"{n} draws")
    rng = make_rng(d.seed, d.stream_id)
    rng.bit_generator.advance(start)
    p = 2.0 if d.kind == "complex_gaussian" else d.p  # None for rademacher
    out = np.empty(n) if p is None else np.empty(n, dtype=np.complex128)
    for lo in range(0, n, _CHUNK_DRAWS):
        hi = min(n, lo + _CHUNK_DRAWS)
        u = rng.random((hi - lo, _LANES))  # the uniforms of draws lo..hi-1
        if p is None:
            out[lo:hi] = np.where(u[:, 0] < 0.5, -1.0, 1.0)
            continue
        modulus = -np.log1p(-u[:, 2])
        if p < 2.0:
            modulus *= _kanter(p / 2.0, u)
        np.sqrt(modulus, out=modulus)
        modulus *= 2.0
        angle = (2.0 * np.pi) * u[:, 3]
        np.multiply(modulus, np.cos(angle), out=out.real[lo:hi])
        np.multiply(modulus, np.sin(angle), out=out.imag[lo:hi])
    return out
