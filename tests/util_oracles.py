"""Independent brute-force oracles used to pin down the fast implementations.

Everything here is deliberately naive: full sign-pattern and tuple
enumeration, bitmask subset scans sized for n <= 8, termwise
evaluation of a polynomial with each phase reduced mod the grid size, and
the certified sup-norm kernel on the spectrum as given, without centring.
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


def uncentred_sup_norm_rows(freqs, rows, rel_tol):
    """Certified sup norms by the kernel that grids the spectrum as given.

    The FFT grid and the curvature gap are sized from deg = max |g| rather
    than from the half-width about the centre of the spectrum; otherwise the
    same FFT screening and bisection refinement around near-maximal samples.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.complex128))
    if len(freqs) == 1:
        # |f| is constant, so every sample would tie with the maximum
        return np.abs(rows[:, 0])
    deg = int(max(-freqs[0], freqs[-1]))
    need = max(1024, 16 * (deg + 1))
    M = 1 << (need - 1).bit_length()
    h = 2.0 * np.pi / M
    buf = np.zeros((rows.shape[0], M), dtype=np.complex128)
    buf[:, np.mod(freqs, M)] = rows
    g = np.abs(np.fft.ifft(buf, axis=1) * M) ** 2
    best = g.max(axis=1)
    gap = min(0.49, 1.02 * (deg * h) ** 2 / 2.0)
    row_idx, k = np.nonzero(g >= best[:, None] * (1.0 - gap))
    t, g = k * h, g[row_idx, k]
    while gap > rel_tol:
        mid_t = np.concatenate([t - h / 2.0, t + h / 2.0])
        mid_rows = np.concatenate([row_idx, row_idx])
        mid_g = np.abs(np.sum(rows[mid_rows] * np.exp(1j * mid_t[:, None] * freqs[None, :]), axis=1)) ** 2
        row_idx = np.concatenate([row_idx, mid_rows])
        t = np.concatenate([t, mid_t])
        g = np.concatenate([g, mid_g])
        np.maximum.at(best, row_idx, g)
        h /= 2.0
        gap = 1.02 * (deg * h) ** 2 / 2.0
        keep = g >= best[row_idx] * (1.0 - gap)
        row_idx, t, g = row_idx[keep], t[keep], g[keep]
    return np.sqrt(best)
