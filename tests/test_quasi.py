"""Quasi-independence: checker, maximum search, partitions, comparators."""

import math

import numpy as np
import pytest

from thinset_lab import (
    DomainError,
    ExtractionError,
    ResourceLimitError,
    as_freqset,
    is_quasi_independent,
    max_quasi_independent,
    partition_lemma,
)
from util_oracles import brute_is_qi, brute_q_value


def test_as_freqset_sorts_and_rejects_duplicates():
    assert as_freqset([5, -2, 3]) == (-2, 3, 5)
    assert as_freqset([]) == ()
    with pytest.raises(DomainError):
        as_freqset([1, 1])


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
    with pytest.raises(ResourceLimitError):
        is_quasi_independent(list(range(1, 43)))
    with pytest.raises(ResourceLimitError):
        is_quasi_independent([(1 << 61) + 1, 1 << 61])


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
    assert len(res) == len(res.subsets) and res[0] == res.subsets[0]


def test_partition_lemma_infeasible_window_raises():
    # a dense arithmetic progression has tiny quasi-independent subsets,
    # far below the demanded window floor
    A = list(range(1, 41))
    with pytest.raises(ExtractionError) as err:
        partition_lemma(A, 1.0, 0.9)
    assert err.value.remainder is not None


def test_partition_lemma_domain():
    with pytest.raises(DomainError):
        partition_lemma([0], 1.0, 0.5)
    with pytest.raises(DomainError):
        partition_lemma([1, 2], 0.5, 0.5)

