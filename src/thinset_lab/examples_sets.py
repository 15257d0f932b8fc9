"""Generators for the example frequency sets and their counting statistics.

Provides the standard thin and thick sets (squares, geometric powers, sums
of powers, full intervals, independent random subsets), counting of a set
below increasing checkpoints, log-log regression of those counts under two
growth models, and exact representation counts r_alpha(j) = number of
ordered alpha-tuples from a set summing to j, computed by sparse
shift-and-add in exact int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, FitError, ResourceLimitError, _check_bytes
from .quasi import as_freqset
from .sampler import make_rng, resolve_seed

__all__ = [
    "GENERATOR_KINDS",
    "RepresentationCounts",
    "generate",
    "mesh_counts",
    "fit_mesh_exponent",
    "r_alpha",
]

GENERATOR_KINDS = ("squares", "powers", "sums_of_powers", "interval", "random")

# an interval or random set below N peaks at _BYTES_PER_CANDIDATE bytes per
# integer in [1, N]: a tuple slot and an int object (measured 40 for
# interval) plus, for random, the uniform draw and mask (measured 50 at
# density 1); the 2^30-byte cap admits N up to about 19M
_BYTES_PER_CANDIDATE = 56


@dataclass(frozen=True)
class RepresentationCounts:
    """r_alpha(j) for j = 0..n plus the mean of squares over j = 1..n."""

    alpha: int
    counts: tuple
    mean_square: float


def generate(
    kind: str,
    N: int,
    base: int | None = None,
    d: int | None = None,
    density: float | None = None,
    seed: int | None = None,
) -> tuple:
    """Frequency set of the named family inside [1, N].

    squares: {k^2}.  powers: {base^k, k >= 1}.  sums_of_powers: sums of d
    distinct powers base^{k_1} + ... + base^{k_d} with 1 <= k_1 < ... < k_d.
    interval: {1..N}.  random: each integer kept independently with the
    given density, drawn from the shared seeding scheme.  interval, random
    and squares raise ResourceLimitError before allocating over the byte cap.
    """
    N = int(N)
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    candidates = N if kind in ("interval", "random") else math.isqrt(N) if kind == "squares" else 0
    _check_bytes(candidates * _BYTES_PER_CANDIDATE, f"{kind} set below {N}")
    if kind == "squares":
        return tuple(k * k for k in range(1, math.isqrt(N) + 1))
    if kind in ("powers", "sums_of_powers"):
        b = int(base) if base is not None else 2 if kind == "powers" else 3
        if b < 2:
            raise DomainError(f"need base >= 2, got {b}")
        pows = []
        v = b
        while v <= N:
            pows.append(v)
            v *= b
        if kind == "powers":
            return tuple(pows)
        dd = 2 if d is None else int(d)
        if dd < 1:
            raise DomainError(f"need d >= 1, got {dd}")
        if dd > len(pows):
            raise DomainError(f"need d <= {len(pows)}, the number of powers of {b} in [1, {N}], got d = {dd}")
        _check_bytes(math.comb(len(pows), dd) * _BYTES_PER_CANDIDATE, f"sums of {dd} of {len(pows)} powers")
        vals = {sum(tup) for tup in combinations(pows, dd)}
        return tuple(sorted(v for v in vals if v <= N))
    if kind == "interval":
        return tuple(range(1, N + 1))
    if kind == "random":
        if density is None:
            raise DomainError("random kind needs density")
        density = float(density)
        if not 0.0 <= density <= 1.0:
            raise DomainError(f"need density in [0,1], got {density}")
        rng = make_rng(resolve_seed(seed))
        mask = rng.random(N) < density
        return tuple(int(k) for k in np.nonzero(mask)[0] + 1)
    raise DomainError(f"unknown generator kind {kind!r}; want one of {GENERATOR_KINDS}")


def mesh_counts(freqs, checkpoints) -> list:
    """|freqs ∩ [1, N]| for each checkpoint N; checkpoints must increase."""
    freqs = as_freqset(freqs)
    pts = [int(N) for N in checkpoints]
    for a, b in zip(pts, pts[1:]):
        if b <= a:
            raise DomainError("checkpoints must be strictly increasing")
    if freqs and freqs[-1] >= 1 << 63:
        raise DomainError(f"set member {freqs[-1]} is outside the signed 64-bit range")
    arr = np.asarray([g for g in freqs if g >= 1], dtype=np.int64)
    return [int(np.searchsorted(arr, N, side="right")) for N in pts]


def fit_mesh_exponent(counts, checkpoints, model: str) -> tuple:
    """Least-squares exponent of log(count) against the model's predictor.

    model "power_log" regresses on log N (count ~ N^e up to slowly varying
    factors); model "polylog" regresses on log log N (count ~ (log N)^e).
    Returns (exponent, rms_residual).  Needs at least 4 checkpoints and
    nonconstant positive counts.
    """
    counts = [int(x) for x in counts]
    pts = [int(N) for N in checkpoints]
    if len(counts) != len(pts):
        raise DomainError("counts and checkpoints must have equal length")
    if len(pts) < 4:
        raise DomainError(f"need at least 4 checkpoints, got {len(pts)}")
    if any(x <= 0 for x in counts):
        raise FitError("counts must be positive to fit a log model")
    if min(counts) == max(counts):
        raise FitError("constant counts admit no growth exponent")
    if model == "power_log":
        x = np.log(np.asarray(pts, dtype=np.float64))
    elif model == "polylog":
        if any(N <= 1 for N in pts):
            raise DomainError("polylog model needs checkpoints > 1")
        x = np.log(np.log(np.asarray(pts, dtype=np.float64)))
    else:
        raise DomainError(f"unknown model {model!r}; want power_log or polylog")
    y = np.log(np.asarray(counts, dtype=np.float64))
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return (float(coef[0]), float(np.sqrt(np.mean(resid**2))))


def r_alpha(freqs, alpha: int, n: int) -> RepresentationCounts:
    """Exact ordered representation counts of the set's alpha-fold sums.

    counts[j] is the number of ordered alpha-tuples of elements summing to
    j, for j = 0..n; their total over all j is k^alpha with k = |freqs|.
    mean_square is (1/n) sum_{j=1}^n counts[j]^2.  Sparse shift-and-add on
    one array of length n + 1, since sums only grow and none above n is
    returned: starting from counts[0] = 1, each of the alpha rounds adds the
    current counts shifted by every member g, costing at most
    O(alpha * k * n) exact int64 additions; a one-member set {g} takes the
    closed form counts[alpha*g] = 1 instead.  The array and the next round's
    are charged 16 * (n + 1) bytes against the byte cap, which admits n up
    to 2^26 - 1.
    """
    freqs = as_freqset(freqs)
    alpha = int(alpha)
    if alpha < 2:
        raise DomainError(f"need alpha >= 2, got {alpha}")
    n = int(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not freqs or freqs[0] < 0:
        raise DomainError("r_alpha needs a set of nonnegative integers")
    k = len(freqs)
    if (k > 1 and alpha >= 62) or k**alpha >= 1 << 62:
        raise ResourceLimitError("k^alpha too large for exact int64 counts")
    _check_bytes(16 * (n + 1), f"representation counts of length {n + 1}")
    counts = np.zeros(n + 1, dtype=np.int64)
    if k == 1:
        # {g} has the one alpha-fold sum alpha*g, whatever alpha is
        if freqs[0] * alpha <= n:
            counts[freqs[0] * alpha] = 1
    else:
        counts[0] = 1
        for i in range(alpha):
            width = min(i * freqs[-1], n) + 1  # sums of i members are at most i*max
            nxt = np.zeros(n + 1, dtype=np.int64)
            for g in freqs:
                if g > n:
                    break
                m = min(width, n + 1 - g)
                nxt[g : g + m] += counts[:m]
            counts = nxt
    mean_square = float((counts[1:].astype(np.float64) ** 2).mean())
    return RepresentationCounts(
        alpha=alpha, counts=tuple(int(x) for x in counts), mean_square=mean_square
    )

