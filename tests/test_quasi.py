"""Quasi-independence: checker, maximum search, partitions, comparators."""

import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from thinset_lab import (
    DomainError,
    ExtractionError,
    ResourceLimitError,
    as_freqset,
    is_quasi_independent,
    max_quasi_independent,
    errors,
    partition_lemma,
    quasi,
)
from util_oracles import brute_is_qi, brute_q_value

# scaling by 2^25 keeps every relation and pushes sum |A| past the bitset limit
ARRAY_SCALE = 2**25


def test_as_freqset_sorts_and_rejects_duplicates():
    assert as_freqset([5, -2, 3]) == (-2, 3, 5)
    assert as_freqset([]) == ()
    with pytest.raises(DomainError):
        as_freqset([1, 1])


@pytest.mark.parametrize("bad", [2.7, True, math.nan, math.inf, "4", None])
def test_as_freqset_rejects_non_integers_naming_the_element(bad):
    with pytest.raises(DomainError, match=f"element {bad!r}"):
        as_freqset([2, bad, 8])
    with pytest.raises(DomainError, match=f"element {bad!r}"):
        max_quasi_independent([2, bad, 8])
    # integral floats and numpy integers are still integers
    assert as_freqset([4.0, np.int64(2)]) == (2, 4)


def test_search_no_longer_truncates_fractional_members():
    with pytest.raises(DomainError, match="2.7"):
        max_quasi_independent([2.7, 4.2])


def test_known_small_sets():
    ok, witness = is_quasi_independent([1, 2, 3])
    assert not ok
    assert witness == [1, 1, -1]
    assert is_quasi_independent([1, 2, 4, 8]) == (True, None)
    assert is_quasi_independent([]) == (True, None)
    assert is_quasi_independent([7]) == (True, None)
    ok, witness = is_quasi_independent([0])
    assert not ok and witness == [1]


def test_witness_is_a_valid_relation():
    rng = np.random.default_rng(41)
    found_false = 0
    for _ in range(100):
        size = int(rng.integers(2, 9))
        A = sorted(int(g) for g in rng.choice(np.arange(1, 13), size=size, replace=False))
        ok, witness = is_quasi_independent(A)
        assert ok == brute_is_qi(A)
        if not ok:
            found_false += 1
            assert len(witness) == len(A)
            assert set(witness) <= {-1, 0, 1}
            assert any(witness)
            assert sum(t * g for t, g in zip(witness, A)) == 0
    assert found_false > 10


def test_checker_resource_caps():
    # no count limit: the byte cap alone bounds the size of B
    A = list(range(1, 43))
    ok, witness = is_quasi_independent(A)
    assert not ok and any(witness) and sum(t * g for t, g in zip(witness, A)) == 0
    assert is_quasi_independent([2**k for k in range(41)]) == (True, None)
    with pytest.raises(ResourceLimitError):
        is_quasi_independent([(1 << 61) + 1, 1 << 61])


def test_checker_on_many_random_members_stops_at_the_byte_cap():
    # 61 members with distinct signed sums: the 30-member left half is
    # refused before it allocates its 16th level (3^16 sums)
    B = random.Random(61).sample(range(1, 2**56), 61)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="byte cap"):
        is_quasi_independent(B)
    assert time.perf_counter() - start < 2.0


def test_max_quasi_independent_known_values():
    res = max_quasi_independent([1, 2, 3])
    assert res.q_value == 2 and res.exact
    ok, _ = is_quasi_independent(res.witness)
    assert ok
    assert max_quasi_independent([0]).q_value == 0
    assert max_quasi_independent([]).q_value == 0
    for k in (3, 6, 9):
        A = [2**j for j in range(k + 1)]
        res = max_quasi_independent(A)
        assert res.q_value == k + 1
        assert res.witness == tuple(A)


def test_max_quasi_independent_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(40):
        size = int(rng.integers(1, 9))
        A = sorted(int(g) for g in rng.choice(np.arange(1, 13), size=size, replace=False))
        res = max_quasi_independent(A)
        assert res.exact
        assert res.q_value == brute_q_value(A)
        ok, _ = is_quasi_independent(res.witness)
        assert ok and len(res.witness) == res.q_value


def test_max_quasi_independent_budget_downgrade():
    res = max_quasi_independent(list(range(1, 13)), budget=3)
    assert not res.exact
    assert res.nodes_explored >= 3
    ok, _ = is_quasi_independent(res.witness)
    assert ok
    # bit-exact pins: the budget stops the search on the node past it
    for budget, pinned in [
        (3, (2, (11, 12), False, 4)),
        (50, (4, (8, 10, 11, 12), False, 51)),
        (500, (4, (8, 10, 11, 12), True, 215)),
    ]:
        res = max_quasi_independent(list(range(1, 13)), budget=budget)
        assert (res.q_value, res.witness, res.exact, res.nodes_explored) == pinned
    with pytest.raises(DomainError):
        max_quasi_independent([1, 2], budget=0)


def test_partition_lemma_postconditions():
    A = [2**j for j in range(1, 15)]
    res = partition_lemma(A, 1.0, 0.5)
    lo, hi = res.window
    assert hi == math.floor(len(A) ** 0.5)
    seen = set()
    for B in res.subsets:
        assert lo <= len(B) <= hi
        assert not (seen & set(B))
        seen |= set(B)
        ok, _ = is_quasi_independent(B)
        assert ok
    assert res.covered >= len(A) / 2
    assert res.covered == sum(len(B) for B in res.subsets)
    assert all(m in ("exact", "greedy", "budget") for m in res.modes)


def test_partition_lemma_infeasible_window_raises():
    # a dense arithmetic progression has tiny quasi-independent subsets,
    # far below the demanded window floor
    A = list(range(1, 41))
    with pytest.raises(ExtractionError) as err:
        partition_lemma(A, 1.0, 0.9)
    assert err.value.remainder is not None


def test_partition_lemma_window_above_the_subset_sum_bound_raises_at_once():
    # a quasi-independent subset of k members below 10^12 has
    # 2^k <= k 10^12 + 1, so k <= 45, far under the window floor 99.4
    A = random.Random(1).sample(range(1, 10**12), 400)
    start = time.perf_counter()
    with pytest.raises(ExtractionError, match="45") as err:
        partition_lemma(A, 3.0, 0.7)
    assert time.perf_counter() - start < 1.0
    assert err.value.remainder == tuple(sorted(A))


def test_partition_lemma_domain():
    with pytest.raises(DomainError):
        partition_lemma([0], 1.0, 0.5)
    with pytest.raises(DomainError):
        partition_lemma([1, 2], 0.5, 0.5)
    # {0} has no quasi-independent member, so k_max = 0 is below any window floor
    with pytest.raises(ExtractionError, match="above 0") as err:
        partition_lemma([0], 2.0, 0.5)
    assert err.value.remainder == (0,)


def _signed_sets(rng, count, size_hi, bound):
    """Seeded sets of distinct ints in [-bound, bound], 0 allowed."""
    for _ in range(count):
        size = int(rng.integers(2, size_hi + 1))
        yield sorted(int(g) for g in rng.choice(np.arange(-bound, bound + 1), size=size, replace=False))


def test_bitset_and_array_search_agree_with_the_oracle():
    rng = np.random.default_rng(43)
    for A in _signed_sets(rng, 60, 8, 15):
        scaled = [ARRAY_SCALE * g for g in A]
        assert isinstance(quasi._empty_sums(A), quasi._BitSums)
        assert isinstance(quasi._empty_sums(scaled), quasi._CheckedSums)
        res = max_quasi_independent(A)
        res_scaled = max_quasi_independent(scaled)
        assert res.exact and res_scaled.exact
        assert res.q_value == res_scaled.q_value == brute_q_value(A), A
        assert res_scaled.witness == tuple(ARRAY_SCALE * g for g in res.witness)
        assert res_scaled.nodes_explored == res.nodes_explored
        assert brute_is_qi(res.witness)


def test_bitset_and_array_greedy_pick_the_same_set():
    rng = np.random.default_rng(44)
    for A in _signed_sets(rng, 60, 14, 40):
        cap = int(rng.integers(1, len(A) + 1))
        picked = quasi._greedy_extract(tuple(A), cap)
        scaled = quasi._greedy_extract(tuple(ARRAY_SCALE * g for g in A), cap)
        assert scaled == tuple(ARRAY_SCALE * g for g in picked)
        assert len(picked) <= cap
        assert brute_is_qi(picked)


# (seeded 20-sets below 10^6, witness) recorded before the signed-sum
# enumeration was reworked: the second zero sum lies inside the left half,
# the others are cross collisions between the halves
PINNED_WITNESSES = [
    ([78536, 78725, 92342, 142231, 165987, 169620, 180823, 214320, 241524, 263830,
      309448, 317643, 359646, 675819, 799456, 867923, 908667, 913813, 915328, 995792],
     [-1, 0, 0, 0, 1, 1, 1, 1, 1, 1, -1, 1, -1, 0, -1, 0, 1, 0, -1, 0]),
    ([64882, 129573, 150653, 206341, 213156, 268063, 268365, 274243, 278038, 325344,
      367808, 442719, 442910, 720919, 766769, 799761, 807178, 826007, 829548, 874948],
     [-1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ([71358, 79033, 88194, 123859, 184785, 195675, 204560, 228351, 245201, 316779,
      348771, 371656, 458516, 553826, 639491, 681653, 812533, 833892, 905464, 914608],
     [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, -1, -1, 0, -1, 1, 0, -1]),
    ([12812, 48212, 126143, 201926, 326072, 342746, 403443, 420295, 494814, 505151,
      518930, 546624, 552113, 559923, 585378, 598453, 664231, 943934, 993774, 996353],
     [0, 0, 1, 0, 1, 0, 1, 1, 1, 1, -1, 1, 1, -1, -1, 0, -1, 1, -1, -1]),
]


def test_pinned_witnesses_on_dependent_sets():
    rng = np.random.default_rng(2024)
    for B, witness in PINNED_WITNESSES:
        assert B == sorted(int(g) for g in rng.choice(10**6 - 1, 20, replace=False) + 1)
        assert is_quasi_independent(B) == (False, witness)
        assert sum(t * g for t, g in zip(witness, B)) == 0


# (set, answer) recorded before the halves held only nonnegative sums and
# rebuilt witnesses from their levels: seeded 24-, 26- and 28-sets below
# 10^9 (cross collisions, where the witness takes the largest sum both
# halves reach), mixed-sign sets, sets containing 0, and three sets whose
# zero relation lies inside the right half, the last two with negative
# members there
PINNED_CHECKS = [
    ([23322228, 61895920, 80683496, 123672156, 148932106, 208860866, 271984017,
      300896879, 318454959, 323918824, 359050209, 394397207, 460399632, 543631687,
      549127453, 587751411, 619934914, 682300840, 787523526, 803996016, 914069551,
      934652094, 938180635, 997244994],
     (False, [1, 1, 0, -1, 1, 1, 1, 1, 0, -1, 1, 1, 0, 0, -1, -1, 0, 1, -1, 0, 1, -1, 1, -1])),
    ([38043675, 102677864, 163467983, 188292873, 221765154, 222304167, 226018163,
      262242803, 359753821, 455815397, 477362412, 482346995, 549849036, 549856381,
      553109789, 608819763, 634306128, 682651338, 711537758, 717275034, 751887789,
      763705604, 766068676, 800578387, 870159835, 952291057],
     (False, [0, -1, 0, 1, 0, 0, -1, 1, 0, 1, 1, 1, 1, 1, -1, -1, 0, 0, -1, -1, 1, -1, 1, -1, 0, 0])),
    ([2023804, 116828827, 129151965, 208655106, 217570538, 235873905, 281047839,
      298972524, 325101331, 363122396, 376613200, 452240674, 456476002, 481630303,
      499212916, 523636095, 543328431, 579502703, 590384246, 606158773, 615060069,
      626697717, 711015431, 815191289, 838558282, 872552114, 902341645, 909495093],
     (False, [0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 1, -1, -1, 0, 1, -1, 1, 0, 0, -1, -1, 0, 0, 0, -1])),
    ([-5680, -685, 104, 1797, 2187, 4139, 4863, 8401],
     (True, None)),
    ([-8718, -8672, -8387, -6338, -4175, -1867, -1476, 1479, 2227, 2294, 3361, 3946],
     (False, [-1, -1, 0, 1, 1, 1, 1, 1, 0, 1, -1, -1])),
    ([-6900, -4767, -2489, -1433, -716, -652, -330, 1816, 2270, 2686, 2731, 3909, 7108,
      7679, 8559, 9226],
     (False, [-1, -1, -1, -1, -1, 1, 0, 1, -1, 0, -1, -1, 0, 0, -1, 0])),
    ([-9841, -9050, -9023, -8371, -7097, -5076, -1568, -1277, -1245, -322, 1815, 2422,
      3765, 4873, 5461, 6076, 6507, 6904, 7519, 9082],
     (False, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, -1, 1, 0])),
    ([-804055973, 0, 484681153, 572230386, 762844470, 939699703],
     (False, [0, 1, 0, 0, 0, 0])),
    ([-671201915, -650210380, -288518236, -204883334, -122105048, -51952055, -22020425,
      0, 45320232, 492834218, 726001349],
     (False, [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0])),
    ([-917179428, -699590289, -515002815, -461406072, -314128744, -295450705,
      -217970365, -82537023, -41590531, 0, 155653754, 407656293, 466204834, 625873514,
      766288302, 776477769, 786470859],
     (False, [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0])),
    ([1, 3, 9, 27, 81, 1000, 2000, 3000, 7000, 11000],
     (False, [0, 0, 0, 0, 0, -1, -1, 1, 0, 0])),
    ([-100000, -30000, -10000, -3000, -1000, -700, -300, 400],
     (False, [0, 0, 0, 0, -1, 1, 1, 0])),
    ([-90000, -27000, -8100, -2430, -1000, -300, 700, 5000],
     (False, [0, 0, 0, 0, 1, -1, 1, 0])),
    # a member can take +1 or -1 here; the witness takes +1
    ([1, 2, 5, 6, 9, 10, 11], (False, [1, 1, 1, 0, -1, -1, 1])),
    ([-18, -9, -5, -4, -2, 2, 4, 8], (False, [-1, 1, 1, 1, 0, 0, 0, 0])),
]


def test_pinned_answers_on_large_mixed_and_zero_sets():
    for B, answer in PINNED_CHECKS:
        assert is_quasi_independent(B) == answer
        if not answer[0]:
            assert sum(t * g for t, g in zip(answer[1], B)) == 0


def _traced_peak(fn):
    """(result or raised exception, peak traced bytes above the start)."""
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    try:
        out = fn()
    except ResourceLimitError as err:
        out = err
    peak = tracemalloc.get_traced_memory()[1] - start
    tracemalloc.stop()
    return out, peak


def test_signed_sum_byte_cap_raises_before_allocating(monkeypatch):
    rng = np.random.default_rng(45)
    B = sorted(int(g) for g in rng.choice(10**9 - 1, 20, replace=False) + 1)
    # 17 members already take a checker call past both caps, so the search
    # stops at its first refused check, on the node that holds 16 members
    A = [ARRAY_SCALE * g for g in B]
    # numpy allocates some state once, on its first calls
    is_quasi_independent(B[:4])
    max_quasi_independent(A[:3])
    quasi._greedy_extract(tuple(A[:3]), 3)
    # 1 MiB, and the tightest cap that still admits 3^9 new sums
    for cap in (1 << 20, quasi._BYTES_PER_SUM * 3**9):
        monkeypatch.setattr(errors, "_BYTES_CAP", cap)
        out, peak = _traced_peak(lambda: is_quasi_independent(B))
        assert isinstance(out, ResourceLimitError) and peak <= cap
        out, peak = _traced_peak(lambda: quasi._greedy_extract(tuple(A), len(A)))
        assert isinstance(out, ResourceLimitError) and peak <= cap
        # the search treats a capped check like an exhausted budget
        res, peak = _traced_peak(lambda: max_quasi_independent(A))
        assert (res.q_value, res.exact, res.nodes_explored) == (16, False, 17)
        assert peak <= cap and is_quasi_independent(res.witness)[0]


def test_lacunary_search_past_the_bitset_is_exact(monkeypatch):
    # each member tops the signed sums of the smaller ones, so every node
    # takes the next member and the search ends after 13 nodes
    A = [ARRAY_SCALE * 3**k for k in range(1, 13)]
    monkeypatch.setattr(errors, "_BYTES_CAP", 1 << 20)
    res, peak = _traced_peak(lambda: max_quasi_independent(A))
    assert (res.q_value, res.exact, res.nodes_explored) == (12, True, 13)
    assert res.witness == tuple(A) and peak <= 1 << 20


def test_partition_of_large_members_answers_under_a_small_cap(monkeypatch):
    rng = np.random.default_rng(46)
    A = [int(g) for g in rng.choice(10**12 - 1, 150, replace=False) + 1]
    monkeypatch.setattr(errors, "_BYTES_CAP", 4 << 20)
    res, peak = _traced_peak(lambda: partition_lemma(A, 1.0, 0.5))
    assert isinstance(res, quasi.PartitionResult) and peak <= 4 << 20
    lo, hi = res.window
    assert res.covered >= len(A) / 2 and set(res.modes) == {"greedy"}
    seen = set()
    for B in res.subsets:
        assert lo <= len(B) <= hi and not seen & set(B)
        seen |= set(B)
        assert is_quasi_independent(B)[0]


@pytest.mark.parametrize(
    "B, independent",
    [
        # each level of powers of 2 is an interval, so the kept levels hold
        # the most relative to the last
        ([2**k for k in range(16)], True),
        ([2**k for k in range(22)], True),
        ([-(2**k) for k in range(10)] + [2**k for k in range(10, 24)], True),
        (sorted(int(g) for g in np.random.default_rng(47).choice(10**9 - 1, 22, replace=False) + 1), False),
    ],
)
def test_checker_peak_stays_within_its_largest_charge(monkeypatch, B, independent):
    is_quasi_independent(B[:4])
    charges = []
    check = quasi._check_bytes
    monkeypatch.setattr(quasi, "_check_bytes", lambda need, what: (charges.append(need), check(need, what)))
    out, peak = _traced_peak(lambda: is_quasi_independent(B))
    assert out[0] is independent
    assert peak <= max(charges)
