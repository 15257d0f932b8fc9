"""Independent brute-force oracles used to pin down the fast implementations.

Everything here is deliberately naive: full sign-pattern and tuple
enumeration, bitmask subset scans sized for n <= 8, and termwise
evaluation of a polynomial with each phase reduced mod the grid size.
"""

from itertools import product

import numpy as np


def brute_zero_relations(A):
    """Bitmask supports of nonzero {-1,0,1} patterns over sorted(A) summing to 0."""
    A = sorted(A)
    kills = set()
    for theta in product((-1, 0, 1), repeat=len(A)):
        if any(theta) and sum(t * g for t, g in zip(theta, A)) == 0:
            mask = 0
            for i, t in enumerate(theta):
                if t:
                    mask |= 1 << i
            kills.add(mask)
    return kills


def brute_is_qi(A) -> bool:
    return not brute_zero_relations(A)


def brute_q_value(A) -> int:
    """max |S| over quasi-independent S subset of A, by full subset scan."""
    A = sorted(A)
    kills = brute_zero_relations(A)
    best = 0
    for mask in range(1 << len(A)):
        size = bin(mask).count("1")
        if size <= best:
            continue
        if not any(k & ~mask == 0 for k in kills):
            best = size
    return best


def brute_r_alpha(A, alpha, n):
    """[number of ordered alpha-tuples from A summing to j for j = 0..n]."""
    counts = [0] * (n + 1)
    for tup in product(A, repeat=alpha):
        if 0 <= sum(tup) <= n:
            counts[sum(tup)] += 1
    return counts


def direct_values(f, M):
    """f(2 pi k / M) for k = 0..M-1, one term at a time, phases reduced mod M."""
    k = np.arange(M, dtype=np.int64)
    out = np.zeros(M, dtype=np.complex128)
    for g, c in zip(f.freqs.tolist(), f.coeffs.tolist()):
        out += c * np.exp(2j * np.pi * ((k * g) % M) / M)
    return out
