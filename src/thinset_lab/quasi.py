"""Quasi-independence: exact checking, maximum subsets, and partitions.

A finite integer set B is quasi-independent when no nonzero sign vector
theta in {-1, 0, 1}^|B| has sum theta_i gamma_i = 0.  The checker splits B
in halves, enumerates each half's achievable signed sums exactly once
(keeping one packed sign-vector representative per sum), and looks for a
collision between one half's sums and the negation of the other's; zero
sums with a nonzero representative are caught while the halves are built.

q(A), the largest size of a quasi-independent subset, is computed by
branch-and-bound over inclusion order.  The search state carries the
sorted array of all signed sums achievable from the chosen set; an element
gamma can extend the set exactly when gamma is not an achievable sum, and
|chosen| + |still addable| is an upper bound that prunes.

partition_lemma repeatedly extracts a maximum (or greedy, above the
exact-size cap) quasi-independent subset from the remainder, trims it
into the target size window, and stops once the union covers half of A.

Frequency sets are plain sorted tuples of distinct Python ints throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExtractionError, ResourceLimitError

__all__ = [
    "QiSearchResult",
    "PartitionResult",
    "as_freqset",
    "is_quasi_independent",
    "max_quasi_independent",
    "partition_lemma",
    "DEFAULT_BUDGET",
]

_CHECK_SIZE_CAP = 40
_EXACT_SIZE_CAP = 25
_SUM_MAGNITUDE_CAP = 1 << 62
_HALF_ENTRIES_CAP = 1 << 26

DEFAULT_BUDGET = 2_000_000


def as_freqset(elements) -> tuple:
    """Sorted tuple of distinct ints; duplicates are a domain error."""
    out = tuple(sorted(int(g) for g in elements))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise DomainError(f"duplicate element {a}")
    return out


@dataclass(frozen=True)
class QiSearchResult:
    """Outcome of max_quasi_independent.

    exact means the search ran to completion, certifying optimality;
    budget exhaustion downgrades to exact=False with the best witness.
    """

    q_value: int
    witness: tuple
    exact: bool
    nodes_explored: int

    def to_json_obj(self) -> dict:
        return {
            "q_value": self.q_value,
            "witness": list(self.witness),
            "exact": self.exact,
            "nodes_explored": self.nodes_explored,
        }


@dataclass(frozen=True)
class PartitionResult:
    """Disjoint quasi-independent subsets from partition_lemma.

    Behaves as a sequence of frequency tuples; modes records whether each
    subset came from exact or greedy extraction.
    """

    subsets: tuple
    modes: tuple
    window: tuple
    covered: int

    def __len__(self) -> int:
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)

    def __getitem__(self, i):
        return self.subsets[i]

    def to_json_obj(self) -> dict:
        return {
            "subsets": [list(b) for b in self.subsets],
            "modes": list(self.modes),
            "window": list(self.window),
            "covered": self.covered,
        }


def _decode_rep(rep: int, members: tuple, positions: dict, size: int) -> list:
    # rep packs base-3 digits over the half's local indices: 1 -> +1, 2 -> -1
    theta = [0] * size
    for local, g in enumerate(members):
        digit = (rep // 3**local) % 3
        if digit == 1:
            theta[positions[g]] = 1
        elif digit == 2:
            theta[positions[g]] = -1
    return theta


def _half_sums(members: tuple):
    """All achievable signed sums of one half with one representative each.

    Returns (sums sorted int64 array, base-3 packed representatives aligned
    with it, zero_witness_rep or None).  A zero sum achievable with a
    nonzero sign vector is detected before deduplication collapses it onto
    the always-present empty representative.
    """
    sums = np.zeros(1, dtype=np.int64)
    reps = np.zeros(1, dtype=np.int64)
    for local, g in enumerate(members):
        step = 3**local
        plus_s = sums + g
        minus_s = sums - g
        plus_r = reps + step
        minus_r = reps + 2 * step
        for cand_s, cand_r in ((plus_s, plus_r), (minus_s, minus_r)):
            zero_at = np.nonzero(cand_s == 0)[0]
            if zero_at.size:
                return sums, reps, int(cand_r[zero_at[0]])
        all_s = np.concatenate([sums, plus_s, minus_s])
        all_r = np.concatenate([reps, plus_r, minus_r])
        sums, first = np.unique(all_s, return_index=True)
        reps = all_r[first]
        if sums.size > _HALF_ENTRIES_CAP:
            raise ResourceLimitError(
                f"half enumeration exceeded {_HALF_ENTRIES_CAP} distinct sums"
            )
    return sums, reps, None


def is_quasi_independent(B) -> tuple:
    """Whether B admits no nonzero {-1,0,1} relation summing to zero.

    Returns (True, None) or (False, theta) with theta a witness sign
    vector aligned with sorted(B).  Size is capped at 40 and the absolute
    sum of elements must stay below 2^62 so all arithmetic is exact int64.
    """
    B = as_freqset(B)
    if len(B) > _CHECK_SIZE_CAP:
        raise ResourceLimitError(f"is_quasi_independent caps |B| at {_CHECK_SIZE_CAP}, got {len(B)}")
    if sum(abs(g) for g in B) >= _SUM_MAGNITUDE_CAP:
        raise ResourceLimitError("sum of |elements| too large for exact int64 sums")
    if not B:
        return (True, None)
    positions = {g: i for i, g in enumerate(B)}
    half = len(B) // 2
    left, right = B[:half], B[half:]

    sums_l, reps_l, zero_rep = _half_sums(left)
    if zero_rep is not None:
        return (False, _decode_rep(zero_rep, left, positions, len(B)))
    sums_r, reps_r, zero_rep = _half_sums(right)
    if zero_rep is not None:
        return (False, _decode_rep(zero_rep, right, positions, len(B)))

    # cross collision: s in left sums, -s in right sums, s != 0 means both
    # representatives are nonzero (zero sums with nonzero reps were caught
    # above, so the kept rep of a zero sum is empty on both sides)
    idx = np.searchsorted(sums_l, -sums_r)
    idx = np.minimum(idx, sums_l.size - 1)
    hit = (sums_l[idx] == -sums_r) & (sums_r != 0)
    where = np.nonzero(hit)[0]
    if where.size:
        j = int(where[0])
        theta_l = _decode_rep(int(reps_l[idx[j]]), left, positions, len(B))
        theta_r = _decode_rep(int(reps_r[j]), right, positions, len(B))
        return (False, [a + b for a, b in zip(theta_l, theta_r)])
    return (True, None)


def _extend_sums(ss: np.ndarray, g: int) -> np.ndarray:
    out = np.unique(np.concatenate([ss, ss + g, ss - g]))
    if out.size > _HALF_ENTRIES_CAP:
        raise ResourceLimitError("signed-sum set exceeded the memory cap")
    return out


class _Budget(Exception):
    pass


def max_quasi_independent(A, budget: int = DEFAULT_BUDGET) -> QiSearchResult:
    """Largest quasi-independent subset of A by branch-and-bound.

    Elements are considered in decreasing magnitude (they take part in
    fewer zero-sum relations, so pruning bites earlier).  gamma extends a
    quasi-independent chosen set exactly when gamma is not an achievable
    signed sum of it; elements failing that test now fail it forever, so
    candidates are filtered monotonically and |chosen| + |candidates|
    prunes against the best known size.  Budget exhaustion returns the
    best witness found with exact=False; exact results are optimal.
    """
    A = as_freqset(A)
    if sum(abs(g) for g in A) >= _SUM_MAGNITUDE_CAP:
        raise ResourceLimitError("sum of |elements| too large for exact int64 sums")
    budget = int(budget)
    if budget < 1:
        raise DomainError(f"need budget >= 1, got {budget}")

    order = sorted(A, key=abs, reverse=True)
    best: list = []
    nodes = 0
    exhausted = False

    def visit(chosen: list, ss: np.ndarray, candidates: list) -> None:
        nonlocal best, nodes, exhausted
        nodes += 1
        if nodes > budget:
            raise _Budget()
        addable = [g for g in candidates if not _contains(ss, g)]
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + len(addable) <= len(best):
            return
        for i, g in enumerate(addable):
            rest = addable[i + 1 :]
            if len(chosen) + 1 + len(rest) <= len(best):
                break
            try:
                visit(chosen + [g], _extend_sums(ss, g), rest)
            except ResourceLimitError:
                exhausted = True
        return

    try:
        visit([], np.zeros(1, dtype=np.int64), order)
        exact = not exhausted
    except _Budget:
        exact = False
    return QiSearchResult(
        q_value=len(best),
        witness=tuple(sorted(best)),
        exact=exact,
        nodes_explored=nodes,
    )


def _contains(ss: np.ndarray, g: int) -> bool:
    i = int(np.searchsorted(ss, g))
    return i < ss.size and ss[i] == g


def _greedy_extract(remainder: tuple, cap: int) -> tuple:
    """Inclusion-greedy quasi-independent subset, largest magnitudes first,
    stopping at cap elements."""
    ss = np.zeros(1, dtype=np.int64)
    chosen: list = []
    for g in sorted(remainder, key=abs, reverse=True):
        if len(chosen) >= cap:
            break
        if not _contains(ss, g):
            chosen.append(g)
            ss = _extend_sums(ss, g)
    return tuple(sorted(chosen))


def partition_lemma(A, c: float, epsilon: float, budget: int = DEFAULT_BUDGET) -> PartitionResult:
    """Disjoint quasi-independent subsets with sizes in the (c, epsilon) window.

    Loop of the underlying proof: extract a maximum quasi-independent
    subset of the remainder (exact when the remainder has at most 25
    elements, greedy above that), trim it to at most floor(c |A|^eps)
    elements, and stop once the union covers at least |A|/2.  Every
    returned subset has size in [c/2 |A|^eps, c |A|^eps]; a smaller
    extraction means A violates the size hypothesis at these (c, epsilon)
    and raises ExtractionError carrying the offending remainder.
    """
    A = as_freqset(A)
    c = float(c)
    epsilon = float(epsilon)
    if A == (0,):
        raise DomainError("partition_lemma is undefined for A = {0}")
    hi_real = c * len(A) ** epsilon
    if not hi_real >= 2.0:
        raise DomainError(f"need c*|A|^epsilon >= 2, got {hi_real}")
    lo = hi_real / 2.0
    hi = math.floor(hi_real)

    remainder = list(A)
    subsets: list = []
    modes: list = []
    covered = 0
    target = len(A) / 2.0
    while covered < target:
        if len(remainder) <= _EXACT_SIZE_CAP:
            res = max_quasi_independent(remainder, budget=budget)
            B = list(res.witness)
            mode = "exact" if res.exact else "budget"
        else:
            B = list(_greedy_extract(tuple(remainder), hi))
            mode = "greedy"
        if len(B) > hi:
            # any subset of a quasi-independent set stays quasi-independent
            B = sorted(sorted(B, key=abs, reverse=True)[:hi])
        if len(B) < lo:
            raise ExtractionError(
                f"extracted size {len(B)} below window floor {lo}",
                remainder=tuple(remainder),
            )
        subsets.append(tuple(B))
        modes.append(mode)
        covered += len(B)
        drop = set(B)
        remainder = [g for g in remainder if g not in drop]
    return PartitionResult(
        subsets=tuple(subsets),
        modes=tuple(modes),
        window=(lo, hi),
        covered=covered,
    )

