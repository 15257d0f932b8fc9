"""Monte Carlo estimation of randomized sup norms and their comparators.

estimate_bracket measures E || sum_g Z_g c_g e^{igt} ||_inf by drawing one
driver vector per trial and taking each trial's certified sup norm on the
circle (relative grid tolerance 1e-3; Monte Carlo error dominates).  The
p-stable drivers with p < 2 are heavy-tailed, so their trials aggregate by
median-of-means; Rademacher and Gaussian trials use the plain mean.  The
spread field (interquartile range of group means) scales the tolerance
bands used by the experiment suites.

The deterministic comparators carry unit constants: the counting upper
bound zero_one_upper for 0-1 spectra and the lower comparator sz_lower.
On a 0-1 spectrum of n terms in {1..N}, sz_lower is the counting bound
times (n/N)^(1/p'): the two match on the interval {1..N}, where both sides
of E||sum Z_k e_k||_inf ~ N^(1/p) (log N)^(1/p') hold, and sz_lower is
only a lower bound on sparser spectra.  All downstream checks are ratio
bands, never absolute thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_bytes
from .exponents import conjugate
from .sampler import DriverDistribution, _draw_bytes, sample_driver
from .trigpoly import TrigPolynomial, sup_norm_rows

__all__ = [
    "NormEstimate",
    "estimate_bracket",
    "median_of_means",
    "zero_one_upper",
    "sz_lower",
    "SUP_REL_TOL",
]

SUP_REL_TOL = 1e-3


@dataclass(frozen=True)
class NormEstimate:
    """Aggregated Monte Carlo estimate of a randomized sup norm.

    value: median of group means (heavy-tailed drivers) or plain mean.
    spread: interquartile range of the group means.
    grid_tol: certified relative tolerance of each trial's sup norm.
    """

    value: float
    trials: int
    groups: int
    spread: float
    grid_tol: float
    group_means: tuple
    kind: str
    p: float | None
    seed: int
    stream_id: int


def median_of_means(samples, groups: int) -> tuple:
    """Median of contiguous-group means; returns (median, group_means)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise DomainError("median_of_means needs at least one sample")
    groups = int(groups)
    if not 1 <= groups <= samples.size:
        raise DomainError(f"need 1 <= groups <= {samples.size}, got {groups}")
    means = np.array([chunk.mean() for chunk in np.array_split(samples, groups)])
    return float(np.median(means)), means


def estimate_bracket(
    f: TrigPolynomial,
    d: DriverDistribution,
    trials: int,
    groups: int | None = None,
) -> NormEstimate:
    """Monte Carlo estimate of the expected randomized sup norm.

    Draw j of the (d.seed, d.stream_id) stream is Philox block j, and
    trial i multiplies the coefficients by draws [i*n, (i+1)*n), which is
    sample_driver(d, n, trial_index=i).  All trials come from one
    sample_driver(d, trials*n) call.  The estimate is a deterministic
    function of the trial multiset.  groups defaults to ceil(trials^(1/3)).
    """
    trials = int(trials)
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    if groups is None:
        groups = math.ceil(trials ** (1.0 / 3.0))
    groups = int(groups)
    if not 1 <= groups <= trials:
        raise DomainError(f"need 1 <= groups <= trials, got groups={groups}")

    n = len(f)
    # the driver rows and draws, or the empty polynomial's `trials` zero sups
    _check_bytes(16 * trials * max(n, 1) + _draw_bytes(trials * n), f"{trials} x {n} driver rows")
    if n == 0:
        sups = np.zeros(trials)
    else:
        z = sample_driver(d, trials * n).reshape(trials, n)
        # complex draws take the coefficients in place; real signs need a complex copy.
        # A product past float64 is refused by sup_norm_rows.
        with np.errstate(over="ignore", invalid="ignore"):
            rows = z * f.coeffs if d.kind == "rademacher" else np.multiply(z, f.coeffs, out=z)
        sups = sup_norm_rows(f.freqs, rows, SUP_REL_TOL)

    # aggregate the sups scaled by 2^-e, below 1, so no sum overflows; the
    # scaling is exact, so an in-range aggregate keeps every bit
    e = int(np.frexp(sups.max())[1])
    sups = np.ldexp(sups, -e)
    mom, means = median_of_means(sups, groups)
    heavy = d.kind == "p_stable" and d.p < 2.0
    value = mom if heavy else float(sups.mean())
    spread = float(np.percentile(means, 75) - np.percentile(means, 25))
    return NormEstimate(
        value=math.ldexp(value, e),
        trials=trials,
        groups=groups,
        spread=math.ldexp(spread, e),
        grid_tol=SUP_REL_TOL,
        group_means=tuple(math.ldexp(float(m), e) for m in means),
        kind=d.kind,
        p=d.p,
        seed=d.seed,
        stream_id=d.stream_id,
    )


def zero_one_upper(n: int, lambda_max: int, p: float) -> float:
    """Counting comparator n^(1/p) (log lambda_max)^(1/p') for 0-1 spectra."""
    n = int(n)
    lambda_max = int(lambda_max)
    p = float(p)
    if not 1.0 <= p <= 2.0:
        raise DomainError(f"need 1 <= p <= 2, got p={p}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if lambda_max < 2:
        raise DomainError(f"need lambda_max >= 2, got {lambda_max}")
    if p == 1.0:
        return float(n)
    return n ** (1.0 / p) * math.log(lambda_max) ** (1.0 / conjugate(p))


def sz_lower(f: TrigPolynomial, p: float) -> float:
    """Interval-calibrated lower comparator with unit constant.

    zero_one_upper(N, N, p) * (sum |c|) / N, that is N^(1/p) (log N)^(1/p')
    * (sum |c|) / N, with N the largest frequency; the spectrum must lie in
    {1..N} and N must be at least 2.  On the indicator of {1..N} it equals
    zero_one_upper(N, N, p), so the two comparators match there.  On a 0-1
    spectrum of n < N terms it is smaller by (n/N)^(1/p') and is only a
    lower bound: on the lacunary {2, 4, ..., 2^n} it decays against the
    counting bound.
    """
    if len(f) == 0:
        raise DomainError("sz_lower needs a nonempty polynomial")
    if f.freqs[0] < 1:
        raise DomainError("sz_lower needs a spectrum of positive integers")
    N = int(f.freqs[-1])
    if N < 2:
        raise DomainError(f"need max frequency >= 2, got {N}")
    return zero_one_upper(N, N, p) * float(np.abs(f.coeffs).sum()) / N
