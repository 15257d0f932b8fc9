"""Quasi-independence: exact checking, maximum subsets, and partitions.

A finite integer set B is quasi-independent when no nonzero sign vector
theta in {-1, 0, 1}^|B| has sum theta_i gamma_i = 0.  The checker splits B
in halves and enumerates each half's achievable signed sums one member at a
time.  Signed sums are symmetric about 0, so each level holds only the
nonnegative ones, sorted and distinct.  A relation inside a half shows when
a member's negation is already a sum of the members before it; across the
halves, B is dependent exactly when some c > 0 is a sum of both.  Every
level is kept, and a witness is rebuilt from them only for a dependent B.

q(A), the largest size of a quasi-independent subset, is computed by
branch-and-bound over inclusion order.  An element gamma can extend the
chosen set exactly when gamma is not one of its achievable signed sums, and
|chosen| + |still addable| is an upper bound that prunes.  When
sum |A| < 2^24 the search state is those sums as a Python-int bitset (one
bit probe per membership test, three shifts per extension); above that it
is the chosen members alone, and the checker answers each membership test
on chosen + {gamma}, holding 3^(k/2) sums per half instead of 3^k.  The
node budget or the byte cap ends the search; the result keeps the largest
set it certified, with exact=False.

Every array level of signed sums (a half enumeration step, the collision
test) checks its bytes, with those of the arrays it keeps alive, against
the package byte cap (errors._BYTES_CAP) before allocating; that cap is
the only resource limit of the checker, the search and greedy extraction.

partition_lemma repeatedly extracts a maximum (or greedy, above the
exact-size cap) quasi-independent subset from the remainder, trims it
into the target size window, and stops once the union covers half of A.

Frequency sets are plain sorted tuples of distinct Python ints throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExtractionError, ResourceLimitError, _check_bytes
from .trigpoly import _integral

__all__ = [
    "QiSearchResult",
    "PartitionResult",
    "as_freqset",
    "is_quasi_independent",
    "max_quasi_independent",
    "partition_lemma",
    "DEFAULT_BUDGET",
]

_EXACT_SIZE_CAP = 25
_SUM_MAGNITUDE_CAP = 1 << 62
# below this sum |A| the signed sums of any subset fit a bitset of < 2^25 bits
_BITSET_SUM_LIMIT = 1 << 24
# bytes charged per new signed sum of one half level, counted over the whole
# symmetric set (3n for n sums): the level's nonnegative candidates, their
# mask and its deduplicated copy read about 8.5, and 10.5 with the kept
# levels (measured); 56 keeps the cap's decisions, under which a 15-element
# half (3^15 sums) fits and a 16-element one with distinct sums does not
_BYTES_PER_SUM = 56
# bytes charged per signed sum of a finished half: its kept levels hold 6
# (random members) to 8 (powers of 2), and the charge takes their own bytes
# when those are larger
_BYTES_PER_KEPT_SUM = 12
# peak bytes charged per probe of one collision chunk's temporaries
# (measured 17 to 25)
_BYTES_PER_PROBE = 40
# bytes per nonnegative candidate of a level: the candidate, its mask entry
# and its deduplicated copy (measured 17); with the kept levels this bounds
# a level's real peak, which 56 per signed sum already covers for halves of
# at most 20 members
_BYTES_PER_CANDIDATE = 17
_COLLISION_CHUNK = 1 << 16

DEFAULT_BUDGET = 2_000_000


def as_freqset(elements) -> tuple:
    """Sorted tuple of distinct ints; a bool, a g with int(g) != g or a duplicate is a domain error."""
    elements = list(elements)
    ints = [_integral(g) for g in elements]
    if None in ints:
        raise DomainError(f"want a set of integers, got element {elements[ints.index(None)]!r}")
    out = tuple(sorted(ints))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise DomainError(f"duplicate element {a}")
    return out


@dataclass(frozen=True)
class QiSearchResult:
    """Outcome of max_quasi_independent.

    exact means the search ran to completion, certifying optimality; the
    node budget or the byte cap ends it early, keeping the largest set it
    certified, with exact=False.
    """

    q_value: int
    witness: tuple
    exact: bool
    nodes_explored: int


@dataclass(frozen=True)
class PartitionResult:
    """Disjoint quasi-independent subsets from partition_lemma.

    modes records whether each subset came from exact, budget-capped or
    greedy extraction.
    """

    subsets: tuple
    modes: tuple
    window: tuple
    covered: int

    def to_json_obj(self) -> dict:
        return {
            "subsets": [list(b) for b in self.subsets],
            "modes": list(self.modes),
            "window": list(self.window),
            "covered": self.covered,
        }


def _check_magnitude(A: tuple) -> None:
    if sum(abs(g) for g in A) >= _SUM_MAGNITUDE_CAP:
        raise ResourceLimitError("sum of |elements| too large for exact int64 sums")


def _holds(level, x: int) -> bool:
    """Whether the sorted nonnegative level holds |x|, that is, x is one of its signed sums."""
    x = abs(x)
    i = level.searchsorted(x)
    return i < level.size and level[i] == x


def _kept_bytes(levels: list) -> int:
    # the kept levels' own bytes, and no less than 12 per signed sum of the last
    return max(_BYTES_PER_KEPT_SUM * (2 * levels[-1].size - 1), 8 * sum(level.size for level in levels))


def _rebuild(levels: list, members: tuple, v: int) -> list:
    """Signs over members[:k] of the representative of the sum v at the last level k.

    From the top down, each member takes sign 0, then +1 (v - g), then -1
    (v + g): the first whose remainder the level below holds, that is, the
    first of the blocks S, S + g, S - g that holds v.
    """
    signs = []
    for j in range(len(levels) - 1, 0, -1):
        g = members[j - 1]
        sign = next(t for t in (0, 1, -1) if _holds(levels[j - 1], v - t * g))
        signs.append(sign)
        v -= sign * g
    return signs[::-1]


def _half_sums(members: tuple, held: int = 0):
    """Every level of one half's nonnegative signed sums, and a zero relation if one shows.

    Level j is the sorted int64 array of |v| over the signed sums v of
    members[:j]; signed sums are symmetric about 0, so v is a sum exactly
    when |v| is held.  Level j + 1 is the union of level j, level j + |g|
    and |level j - |g||, sorted in place and deduplicated by one mask.
    Returns (levels, signs): signs is None, or a nonzero sign vector over
    members summing to 0, found at the first member g for which -g is
    already a sum (the levels then stop below g).  Each level's byte charge
    adds the held bytes that the caller keeps alive meanwhile.
    """
    levels = [np.zeros(1, dtype=np.int64)]
    for local, g in enumerate(members):
        sums = levels[-1]
        m = sums.size
        n = 2 * m - 1
        need = max(3 * n * _BYTES_PER_SUM, _kept_bytes(levels) + 3 * m * _BYTES_PER_CANDIDATE)
        _check_bytes(held + need, f"half enumeration of {3 * n} signed sums")
        # g with sign +1 and the representative of -g make the relation
        if _holds(sums, g):
            return levels, _rebuild(levels, members, -g) + [1] + [0] * (len(members) - local - 1)
        a = abs(g)
        new = np.empty(3 * m, dtype=np.int64)
        new[:m] = sums
        np.add(sums, a, out=new[m : 2 * m])
        np.subtract(sums, a, out=new[2 * m :])
        np.abs(new[2 * m :], out=new[2 * m :])
        new.sort()
        keep = np.empty(3 * m, dtype=bool)
        keep[0] = True
        np.not_equal(new[1:], new[:-1], out=keep[1:])
        levels.append(new[keep])
        del new, keep
    return levels, None


def is_quasi_independent(B) -> tuple:
    """Whether B admits no nonzero {-1,0,1} relation summing to zero.

    Returns (True, None) or (False, theta) with theta a witness sign
    vector aligned with sorted(B).  The absolute sum of elements must stay
    below 2^62 so all arithmetic is exact int64; the size of B is bounded
    by the byte cap alone, which every level charges before allocating.
    """
    B = as_freqset(B)
    _check_magnitude(B)
    half = len(B) // 2
    left, right = B[:half], B[half:]

    levels_l, signs = _half_sums(left)
    if signs is not None:
        return (False, signs + [0] * len(right))
    kept_l = _kept_bytes(levels_l)
    levels_r, signs = _half_sums(right, kept_l)
    if signs is not None:
        return (False, [0] * half + signs)
    sums_l, sums_r = levels_l[-1], levels_r[-1]
    n_r = 2 * sums_r.size - 1
    chunk = min(_COLLISION_CHUNK, n_r)
    _check_bytes(kept_l + _kept_bytes(levels_r) + _BYTES_PER_PROBE * chunk, f"collision test of {n_r} signed sums")

    # B is dependent across the halves exactly when some c > 0 is a sum of
    # both; the witness takes the largest such c, as c on the left and -c
    # on the right.  Chunks of the right half's sums, scanned down from the
    # top, keep the temporaries small and stop at the first hit.
    for stop in range(sums_r.size, 1, -chunk):
        probe = sums_r[max(1, stop - chunk) : stop]
        idx = np.searchsorted(sums_l, probe)
        np.minimum(idx, sums_l.size - 1, out=idx)
        hit = np.flatnonzero(sums_l[idx] == probe)
        if hit.size:
            c = int(probe[hit[-1]])
            return (False, _rebuild(levels_l, left, c) + _rebuild(levels_r, right, -c))
    return (True, None)


class _BitSums:
    """Signed sums of a chosen set as a Python int: bit x + off is set for
    each achievable sum x, where off = sum |chosen| bounds the symmetric set."""

    __slots__ = ("bits", "off")

    def __init__(self, bits: int = 1, off: int = 0):
        self.bits = bits
        self.off = off

    def addable(self, candidates) -> list:
        """The candidates that are not achievable sums, in order."""
        # the set is symmetric, so probe +|g|: the shift keeps at most the
        # upper half, and for |g| > off it leaves 0
        bits, off = self.bits, self.off
        return [g for g in candidates if not bits >> (off + abs(g)) & 1]

    def extend(self, g: int) -> "_BitSums":
        # S | S+g | S-g re-offset by |g|: the set is symmetric about 0
        a = abs(g)
        b = self.bits
        return _BitSums(b | b << a | b << (2 * a), self.off + a)


class _CheckedSums:
    """A quasi-independent chosen set, tested against each candidate by the
    checker: g is not an achievable signed sum of chosen exactly when
    chosen + (g,) is quasi-independent."""

    __slots__ = ("chosen",)

    def __init__(self, chosen: tuple = ()):
        self.chosen = chosen

    def addable(self, candidates) -> list:
        """The candidates that are not achievable sums, in order."""
        return [g for g in candidates if is_quasi_independent(self.chosen + (g,))[0]]

    def extend(self, g: int) -> "_CheckedSums":
        return _CheckedSums(self.chosen + (g,))


def _empty_sums(elements):
    """Signed sums of the empty set: a bitset when sum |elements| < 2^24,
    the checker on the chosen members above that."""
    return _BitSums() if sum(abs(g) for g in elements) < _BITSET_SUM_LIMIT else _CheckedSums()


def max_quasi_independent(A, budget: int = DEFAULT_BUDGET) -> QiSearchResult:
    """Largest quasi-independent subset of A by branch-and-bound.

    Elements are considered in decreasing magnitude (they take part in
    fewer zero-sum relations, so pruning bites earlier).  gamma extends a
    quasi-independent chosen set exactly when gamma is not an achievable
    signed sum of it; elements failing that test now fail it forever, so
    candidates are filtered monotonically and |chosen| + |candidates|
    prunes against the best known size.  Each node tests its candidates
    on a bitset of signed sums when sum |A| < 2^24 and with the checker
    above that (see the module docstring).  The node budget or the byte cap
    ends the search; the result keeps the largest set it certified, with
    exact=False.  Exact results are optimal.
    """
    A = as_freqset(A)
    _check_magnitude(A)
    budget = int(budget)
    if budget < 1:
        raise DomainError(f"need budget >= 1, got {budget}")

    order = sorted(A, key=abs, reverse=True)
    best: list = []
    nodes = 0

    def visit(chosen: list, sums, candidates: list) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError(f"search budget of {budget} nodes exhausted")
        if len(chosen) > len(best):
            best = list(chosen)
        addable = sums.addable(candidates)
        # taking addable[i] leaves room for at most room - i elements
        room = len(chosen) + len(addable)
        for i, g in enumerate(addable):
            if room - i <= len(best):
                break
            visit(chosen + [g], sums.extend(g), addable[i + 1 :])

    # past the budget no node is certified; the byte cap prices distinct sums,
    # so a set whose sums collide might still have passed it
    try:
        visit([], _empty_sums(A), order)
        exact = True
    except ResourceLimitError:
        exact = False
    return QiSearchResult(
        q_value=len(best),
        witness=tuple(sorted(best)),
        exact=exact,
        nodes_explored=nodes,
    )


def _greedy_extract(remainder: tuple, cap: int) -> tuple:
    """Inclusion-greedy quasi-independent subset, largest magnitudes first,
    stopping at cap elements."""
    sums = _empty_sums(remainder)
    chosen: list = []
    for g in sorted(remainder, key=abs, reverse=True):
        if len(chosen) >= cap:
            break
        if sums.addable((g,)):
            chosen.append(g)
            sums = sums.extend(g)
    return tuple(sorted(chosen))


def partition_lemma(A, c: float, epsilon: float, budget: int = DEFAULT_BUDGET) -> PartitionResult:
    """Disjoint quasi-independent subsets with sizes in the (c, epsilon) window.

    Loop of the underlying proof: extract a maximum quasi-independent
    subset of the remainder (exact when the remainder has at most 25
    elements, greedy above that), trim it to at most floor(c |A|^eps)
    elements, and stop once the union covers at least |A|/2.  Mode
    "budget" marks a search that the node budget or the byte cap ended
    early.  Every returned subset has size in [c/2 |A|^eps, c |A|^eps]; a
    smaller extraction means A violates the size hypothesis at these
    (c, epsilon) and raises ExtractionError carrying the offending
    remainder.  A floor above the most members a quasi-independent subset
    of A can have raises it before any extraction, with remainder A.  Like
    the checker and the search, it needs sum |A| < 2^62.
    """
    A = as_freqset(A)
    _check_magnitude(A)
    c = float(c)
    epsilon = float(epsilon)
    try:
        hi_real = c * len(A) ** epsilon
    except (OverflowError, ZeroDivisionError):  # a huge power, or 0 to a negative one
        hi_real = math.inf
    if not 2.0 <= hi_real < math.inf:
        raise DomainError(f"need finite c*|A|^epsilon >= 2, got {hi_real}")
    lo = hi_real / 2.0
    hi = math.floor(hi_real)
    # two equal subset sums of the moduli would differ by a relation, so a
    # quasi-independent subset of k members has 2^k <= k max|A| + 1
    top = max(map(abs, A), default=0)
    k_max = 0
    while 2 ** (k_max + 1) <= (k_max + 1) * top + 1:
        k_max += 1
    if A and lo > k_max:
        raise ExtractionError(
            f"window floor {lo} above {k_max}, the most members a quasi-independent subset can have",
            remainder=A,
        )

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

