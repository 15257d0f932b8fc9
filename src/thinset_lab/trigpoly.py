"""Trigonometric polynomials on the circle with sparse integer spectra.

A polynomial is a finite sum f(t) = sum_g c_g exp(i g t) with nonzero complex
coefficients keyed by signed 64-bit frequencies.  The module provides the
coefficient-side norms (l_q, Lorentz), grid evaluation (one inverse FFT,
frequencies placed by their residue mod M), a certified sup-norm estimator,
and L^q function norms by quadrature.  The sup norm grids a sparse spectrum
by a rank-n twiddle product and a dense one by the FFT; ``evaluate_grid``
and the quadratures always take the FFT.  It then refines the near-maximal
grid samples by bisection of disjoint cells, one centred at each kept
sample: each cell carries its n term values c_g exp(i g t) at its centre
and steps them to its two halves' centres by one complex multiply per term,
so no round evaluates an exponential per term and point, and no point is
evaluated twice.  Every dense grid and every refinement round is checked
against the package byte cap before it is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _check_bytes

__all__ = [
    "TrigPolynomial",
    "fq_norm",
    "lorentz_norms",
    "evaluate_grid",
    "sup_norm",
    "sup_norm_rows",
    "lq_function_norm",
    "default_grid_size",
]

_FREQ_LIMIT = 2**62  # headroom below int64 so sums of a few frequencies stay exact
# bytes charged per grid point of one row, or of one block of sup rows, so the
# cap allows M = 2^24, eight times the 2^21-point grid of a degree-2^16
# polynomial.  tracemalloc peaks per point (numpy 2.4): 32 for evaluate_grid
# at M = 2^20; for the sup norm, grid stage and one refinement round, 12 for
# one product row (14 lacunary terms at M = 2^18), 36 for one FFT row (80
# terms at M = 2^15) and 34 for a 2^21-point block of FFT rows.  The
# refinement rounds charge their own arrays
_BYTES_PER_GRID_POINT = 64
# smallest certified relative tolerance of the sup norm, a few float64 ulps
_REL_TOL_FLOOR = 1e-15
# sup_norm_rows grids n terms on M points by the twiddle product when
# n <= _PRODUCT_TERMS_PER_LOG2 * log2(M), by the FFT otherwise.  Measured on a
# 2-vCPU x86-64 host (numpy 2.4, OpenBLAS 0.3.31), grid stage only: the two
# break even near n = 56 at M = 2^10, 75 at 2^12, 115 at 2^14, 190 at 2^16
# and above 256 at 2^18; at n = 16 the product is 1.5x faster at M = 2^10
# and 4.3x at 2^19.  4*log2(M) stays below every crossover.  (Measured with one
# exp per twiddle; the two-table roots of _unit_roots only cheapen the product.)
_PRODUCT_TERMS_PER_LOG2 = 4
# grid points per block of rows in the sup norm's grid stage, both kernels
_BLOCK_POINTS = 1 << 21
# term values per chunk of the sup norm's refinement: a chunk carries at most
# this many c_g exp(i g t), and halves that outgrow it are cut into pieces
_REFINE_VALUES = 1 << 20
# bytes charged by a refinement round per carried term value (one complex128)
# and per cell (its row, two half values and keep indices), for the chunk,
# the two halves each of its cells may build and the pieces waiting on the
# stack; per kept grid sample (row, index); and per term of each level's step
# table s and of the conjugate a round takes of it.  tracemalloc peaks at
# 0.5-0.8 of the largest charge on flat heavy-tailed rows of 2-40 terms, a
# Dirichlet kernel of 2047 terms and rows of 511 Gaussian terms
_BYTES_PER_TERM_VALUE = 16
_BYTES_PER_CELL = 64
_BYTES_PER_SEED = 16
_BYTES_PER_STEP = 16
# bytes per kept point of a breadth-first bisection round, which held every
# kept point of a level at once (tracemalloc read 180).  The depth-first
# refinement holds far fewer, but it charges the cells it has split at
# each level, over all chunks of a block, at this rate: a level is refused
# where a breadth-first round over it would outgrow the byte cap, which also
# bounds the work a row of nearly constant modulus takes before it is refused
_BYTES_PER_LEVEL_POINT = 192


def _integral(g):
    """int(g) when g equals an integer and is not a bool, else None."""
    try:
        gi = int(g)
    except (TypeError, ValueError, OverflowError):
        return None
    return gi if gi == g and not isinstance(g, bool) else None


class TrigPolynomial:
    """Immutable sparse trigonometric polynomial.

    Construct from a dict {frequency: coefficient}, an iterable of
    (frequency, coefficient) pairs, or another TrigPolynomial.  Zero
    coefficients are dropped; duplicate or non-integer frequencies and
    non-finite coefficients are rejected.
    """

    __slots__ = ("_freqs", "_coeffs")

    def __init__(self, terms=()):
        if isinstance(terms, TrigPolynomial):
            self._freqs = terms._freqs
            self._coeffs = terms._coeffs
            return
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = list(terms)
        freqs = []
        coeffs = []
        for g, c in items:
            gi = _integral(g)
            if gi is None:
                raise DomainError(f"term ({g!r}, {c!r}): frequency is not an integer")
            if abs(gi) >= _FREQ_LIMIT:
                raise DomainError(f"frequency {gi} outside signed 64-bit working range")
            c = complex(c)
            if c != 0:
                freqs.append(gi)
                coeffs.append(c)
        f = np.asarray(freqs, dtype=np.int64)
        c = np.asarray(coeffs, dtype=np.complex128)
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            i = int(bad[0])
            raise DomainError(f"term ({freqs[i]}, {coeffs[i]!r}): coefficient is not finite")
        order = np.argsort(f, kind="stable")
        f = f[order]
        c = c[order]
        if f.size > 1 and np.any(f[1:] == f[:-1]):
            raise DomainError("duplicate frequencies in term list")
        f.setflags(write=False)
        c.setflags(write=False)
        self._freqs = f
        self._coeffs = c

    @classmethod
    def indicator(cls, frequencies) -> "TrigPolynomial":
        """0-1 polynomial: all coefficients 1 on the given frequency set."""
        return cls((g, 1.0) for g in frequencies)

    @property
    def freqs(self) -> np.ndarray:
        """Sorted frequency array (read-only view)."""
        return self._freqs

    @property
    def coeffs(self) -> np.ndarray:
        """Coefficients aligned with ``freqs`` (read-only view)."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """max |frequency| over the spectrum; 0 for the empty polynomial."""
        if self._freqs.size == 0:
            return 0
        return int(max(-self._freqs[0], self._freqs[-1]))

    def terms(self) -> dict:
        return {int(g): complex(c) for g, c in zip(self._freqs, self._coeffs)}

    def __len__(self) -> int:
        return int(self._freqs.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        return np.array_equal(self._freqs, other._freqs) and np.array_equal(
            self._coeffs, other._coeffs
        )

    def __hash__(self):
        return hash((self._freqs.tobytes(), self._coeffs.tobytes()))

    def __repr__(self) -> str:
        return f"TrigPolynomial({self.terms()!r})"

    @classmethod
    def from_json_obj(cls, obj) -> "TrigPolynomial":
        """Parse a list of [frequency, re, im] triples of numbers."""
        if not isinstance(obj, list):
            raise DomainError("polynomial JSON must be a list of [frequency, re, im]")
        pairs = []
        for row in obj:
            if not (isinstance(row, (list, tuple)) and len(row) == 3):
                raise DomainError(f"bad polynomial term {row!r}; want [frequency, re, im]")
            g, re, im = row
            if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (re, im)):
                raise DomainError(f"term {row!r}: coefficient parts re, im must be numbers")
            try:
                pairs.append((g, complex(re, im)))
            except OverflowError:
                raise DomainError(f"term {row!r}: coefficient is not finite") from None
        return cls(pairs)


def default_grid_size(degree: int) -> int:
    """Smallest power of two >= max(1024, 16*(degree+1))."""
    need = max(1024, 16 * (degree + 1))
    return 1 << (need - 1).bit_length()


def fq_norm(f: TrigPolynomial, q: float) -> float:
    """Coefficient l_q norm (sum |c|^q)^(1/q); q = inf gives max |c|."""
    if not (q == math.inf or q >= 1.0):
        raise DomainError(f"need q >= 1, got q={q}")
    if len(f) == 0:
        return 0.0
    a = np.abs(f.coeffs)
    if q == math.inf:
        return float(a.max())
    if q == 2.0:
        return float(np.sqrt((a * a).sum()))
    return float((a**q).sum() ** (1.0 / q))


def lorentz_norms(f: TrigPolynomial, q: float) -> tuple:
    """Lorentz sequence norms (l_{q,1}, l_{q,inf}) of the coefficients.

    With (a_n*) the decreasing rearrangement of |c_gamma|, returns
    (sum_n a_n*/n^{1/q'}, max_n n^{1/q} a_n*).  Empty input gives (0, 0).
    """
    if not (1.0 < q < 2.0):
        raise DomainError(f"need q in (1,2), got q={q}")
    if len(f) == 0:
        return (0.0, 0.0)
    a = np.sort(np.abs(f.coeffs))[::-1]
    n = np.arange(1, a.size + 1, dtype=np.float64)
    q_conj = q / (q - 1.0)
    l_q1 = float((a / n ** (1.0 / q_conj)).sum())
    l_qinf = float((n ** (1.0 / q) * a).max())
    return (l_q1, l_qinf)


def evaluate_grid(f: TrigPolynomial, M: int) -> np.ndarray:
    """Values f(t_k) at t_k = 2 pi k / M, k = 0..M-1, by one inverse FFT.

    Raises ResourceLimitError before allocating a grid over the byte cap.
    """
    M = int(M)
    if M < 1:
        raise DomainError(f"need M >= 1, got {M}")
    _check_bytes(_BYTES_PER_GRID_POINT * M, f"a {M}-point grid")
    return _fft_values(f.freqs, f.coeffs[None, :], M)[0]


def _fft_values(freqs: np.ndarray, rows: np.ndarray, M: int) -> np.ndarray:
    """f_row(2 pi k / M), k = 0..M-1: numpy's ifft of each scattered row, times M.

    Coefficients land on their frequency's residue mod M, so frequencies
    that alias on this grid sum.
    """
    buf = np.zeros((rows.shape[0], M), dtype=np.complex128)
    np.add.at(buf, (slice(None), np.mod(freqs, M)), rows)
    vals = np.fft.ifft(buf, axis=1)
    vals *= M
    return vals


def _unit_roots(m: np.ndarray, M: int) -> np.ndarray:
    """exp(2 pi i m / M) for exact int64 indices m in [0, M), M a power of two.

    With m = m1 + K*m2, K = 2^ceil(log2(M)/2), each root is the product of
    two table entries exp(2 pi i m1 / M) and exp(2 pi i K m2 / M).  The
    tables hold about 2 sqrt(M) values, and each root is within a few ulps
    whatever m is.
    """
    shift = M.bit_length() // 2
    K = 1 << shift
    w = 2j * np.pi / M
    out = np.exp(w * np.arange(K))[m & (K - 1)]
    out *= np.exp(w * K * np.arange(-(-M // K)))[m >> shift]
    return out


def _product_values(freqs: np.ndarray, rows: np.ndarray, M: int) -> np.ndarray:
    """f_row(2 pi k / M) for k = 0..M-1 as one (K2 x n) diag(c) (n x K1) product per row.

    M must be a power of two no larger than 2^42, so that the index products
    stay below 2^63.  With k = k1 + K1*k2, K1 = 2^floor(log2(M)/2),
    K2 = M/K1, r = g mod M and w = exp(2 pi i / M), the term of frequency g is
    w^(r*k1 mod M) * c * w^(r*K1*k2 mod M).  Both twiddle indices are exact
    int64 integers in [0, M), so every twiddle is a root of _unit_roots,
    whatever the size of g.
    """
    K1 = 1 << ((M.bit_length() - 1) // 2)
    K2 = M // K1
    r = np.mod(freqs, M)
    right = _unit_roots(r[:, None] * np.arange(K1) % M, M)  # (n, K1)
    left = _unit_roots(np.arange(K2)[:, None] * (K1 * r % M) % M, M)  # (K2, n)
    B, n = rows.shape
    vals = (left * rows[:, None, :]).reshape(B * K2, n) @ right
    return vals.reshape(B, M)


def _gap(deg: int, M: int, level: int) -> float:
    """Curvature gap 1.02*(deg*h)^2/2 of cells of width h = 2 pi / (M*2^level);
    M >= 16*(deg+1) keeps it below 1.02*(2 pi/16)^2/2 < 0.08."""
    return 1.02 * (deg * (2.0 * np.pi / M * 0.5**level)) ** 2 / 2.0


def _charge_round(n: int, kept: int, waiting: int, seeds: int, levels: int) -> None:
    """Charge a refinement round on `kept` cells of n terms before it allocates.

    The round holds its chunk and builds at most two halves per cell, and it
    keeps alive the `waiting` cells on the stack, the `seeds` grid samples it
    started from, the step tables of `levels` rounds and one more table for
    the conjugate of its own.
    """
    need = (
        (_BYTES_PER_TERM_VALUE * n + _BYTES_PER_CELL) * (3 * kept + waiting)
        + _BYTES_PER_SEED * seeds
        + _BYTES_PER_STEP * n * (levels + 1)
    )
    _check_bytes(need, f"refining {kept} kept points of {n} terms")


def _refine(freqs, rows, M, deg, rel_tol, best, row, k) -> None:
    """Bisect the cells centred at the kept grid samples (row, k) until the gap is <= rel_tol.

    Raises best, the per-row maximum of |f|^2, in place.  The cells, their
    carried term vectors, the exact-index steps and the depth-first chunks
    are described in sup_norm_rows.
    """
    n = freqs.size
    per = max(1, _REFINE_VALUES // n)
    r_mod = np.mod(freqs, M)
    # steps[L]: s = exp(2 pi i (g mod 4N) / 4N), N = M*2^L, which moves the
    # term values at a level-L cell's centre to those at its halves' centres
    steps: list = []
    stack: list = []
    waiting = 0  # cells on the stack
    at_level: list = []  # at_level[L]: cells split so far at level L
    for lo in range(0, row.size, per):
        hi = min(row.size, lo + per)
        _charge_round(n, hi - lo, 0, row.size, len(steps))
        # M <= 2^24 under the grid's byte charge, so (g mod M) * k stays exact
        u = _unit_roots(r_mod[None, :] * k[lo:hi, None] & (M - 1), M)
        u *= rows[row[lo:hi]]
        stack.append((row[lo:hi], u, 0))
        waiting += hi - lo
        while stack:
            r, u, level = stack.pop()
            waiting -= r.size
            if len(at_level) == level:
                at_level.append(0)
            at_level[level] += r.size
            _check_bytes(
                _BYTES_PER_LEVEL_POINT * at_level[level],
                f"refining {at_level[level]} kept points of {n} terms in round {level + 1}",
            )
            _charge_round(n, r.size, waiting, row.size, max(len(steps), level + 1))
            if len(steps) == level:
                N = 4 * M << level
                w = 2j * np.pi / N * np.mod(freqs, N)
                steps.append(np.exp(w, out=w))
            s = steps[level]
            sc = s.conj()
            mid = np.stack([u @ sc, u @ s], axis=1)
            mid_g = mid.real**2
            mid_g += mid.imag**2
            np.maximum.at(best, r, mid_g.max(axis=1))
            level += 1
            gap = _gap(deg, M, level)
            if gap <= rel_tol:
                continue
            floor = best[r] * (1.0 - gap)
            k1, k2 = (np.flatnonzero(mid_g[:, j] >= floor) for j in (0, 1))
            src = np.concatenate([k1, k2])
            r = r[src]
            # the first piece is pushed last, so it is refined next
            for a in reversed(range(0, src.size, per)):
                piece = u.take(src[a : a + per], axis=0)
                cut = max(k1.size - a, 0)
                piece[:cut] *= sc
                piece[cut:] *= s
                stack.append((r[a : a + per], piece, level))
                waiting += piece.shape[0]


def _grid_abs(f: TrigPolynomial, M: int | None, floor: int) -> np.ndarray:
    """|f| on M grid points, default_grid_size(degree) when M is None.

    An explicit M must be at least floor*(degree+1).
    """
    if M is None:
        M = default_grid_size(f.degree)
    else:
        M = int(M)
        if M < floor * (f.degree + 1):
            raise DomainError(
                f"need M >= {floor}*(degree+1) = {floor * (f.degree + 1)}, got {M}"
            )
    return np.abs(evaluate_grid(f, M))


def sup_norm_rows(freqs: np.ndarray, rows: np.ndarray, rel_tol: float) -> np.ndarray:
    """Sup norms of many polynomials sharing one spectrum.

    Parameters
    ----------
    freqs : int64 array, shape (n,)
        Common sorted spectrum.
    rows : complex array, shape (B, n)
        One coefficient row per polynomial.
    rel_tol : float
        Certified relative tolerance in [1e-15, 0.1]: each returned
        S satisfies true sup in [S, S*(1+rel_tol)].

    |f| does not change when f is multiplied by exp(-i c t), so the
    spectrum is first shifted by its centre c = (min + max) // 2.  The
    centred spectrum has half-width deg = max |g - c| and width
    W = max - min <= 2*deg.  The estimator samples every row on a grid of
    M = default_grid_size(deg) points, keeps every sample whose squared
    modulus is within the curvature gap of its row maximum, then repeatedly
    bisects the cells of width h = 2 pi / M centred at the kept samples.

    The grid stage has two kernels, chosen per call from n and M alone.  With
    n <= 4*log2(M) terms (_PRODUCT_TERMS_PER_LOG2; the measured crossover
    sits above that at every M) it writes k = k1 + K1*k2 with
    K1 = 2^floor(log2(M)/2) and takes all samples of a block of rows as one
    (K2 x n) diag(c) (n x K1) matrix product, costing O(n M) per row.  Each
    twiddle is exp(2 pi i m / M) of an exact int64 index m = (g mod M)*k1
    mod M or (g mod M)*K1*k2 mod M, taken as the product of two table
    entries (_unit_roots), so its error is a few ulps whatever g is, and
    each sample is an n-term dot product: its rounding error stays below
    (1.5 n + 40) u sum|c_g| with u = 2^-53 (sqrt(2) gamma_{n+2} sum|c_g| for
    the sum, Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 3.6, plus the twiddles and the two products per term).  Denser
    spectra take an M-point inverse FFT per row, costing O(M log M).

    In the refinement each kept grid sample t is the centre of a cell
    [t - h/2, t + h/2], and the cells of the kept samples tile the region
    the grid stage kept.  A round on cells of width h_L = h / 2^L splits
    each kept cell into its two halves, centred at t -/+ h_L/4, and drops
    it.  Each cell carries its term vector u = (c_g exp(i g t)), seeded once
    from the exact-index roots exp(2 pi i ((g mod M) k mod M) / M).  The
    round makes the n exact-index steps s = exp(2 pi i (g mod 4N) / 4N)
    with N = M 2^L; the values at the two new centres are the mat-vecs
    u @ conj(s) and u @ s, and only the halves that pass the keep test are
    built, as u*conj(s) and u*s.  So a round costs a few complex multiplies
    per term and cell and no exponential, the phase error of a term grows
    by a few ulps per round, whatever |g t| is, and no point is evaluated
    twice.  Rows are refined block by block right after their grid, in
    chunks of at most _REFINE_VALUES term values; halves that outgrow a
    chunk are cut into pieces, all but the first wait on a depth-first
    stack, and every round charges its arrays, the waiting pieces, the kept
    grid samples and the step tables against the byte cap before it
    allocates.  The cells a block has split at each level, over all its
    chunks, are charged too, at the bytes per point of a breadth-first
    round that held the whole level at once (_BYTES_PER_LEVEL_POINT): a
    level is refused where such a round would outgrow the cap.  A row of
    nearly constant modulus keeps almost every cell round after round, so
    at small tolerances it raises ResourceLimitError after a bounded
    amount of work.

    |f|^2 is a real trigonometric polynomial of degree at most W, so
    Bernstein's inequality bounds its second derivative by W^2 sup|f|^2; a
    point within w/2 of the argmax therefore falls short of the maximum by
    at most (W*w/2)^2/2 <= (deg*w)^2/2 relative.  The argmax lies in one
    grid cell, and when a cell holding it is split, in one of its halves; a
    cell of width w that holds it has its centre within w/2 of it, so that
    centre passes the keep test for cells of width w.  The keep test
    compares each centre with best, the largest value sampled so far on its
    row.  best only ever holds sampled values, all at most sup|f|^2, so the
    cell holding the true argmax is never pruned, in whatever order the
    chunks are refined, and after the last round best is within the gap of
    sup|f|^2.  Below 1e-15 the bound sinks under float64 resolution:
    centres tie with the maximum, the kept set doubles every round, so such
    tolerances raise DomainError.
    """
    if not (_REL_TOL_FLOOR <= rel_tol <= 0.1):
        raise DomainError(f"need rel_tol in [{_REL_TOL_FLOOR:g}, 0.1], got {rel_tol}")
    rows = np.atleast_2d(np.asarray(rows, dtype=np.complex128))
    B, n = rows.shape
    if n == 0 or B == 0:
        return np.zeros(B)
    if n == 1:
        return np.abs(rows[:, 0])
    freqs = freqs - (int(freqs[0]) + int(freqs[-1])) // 2
    deg = int(max(-freqs[0], freqs[-1]))
    M = default_grid_size(deg)
    chunk = min(B, max(1, _BLOCK_POINTS // M))
    _check_bytes(_BYTES_PER_GRID_POINT * M * chunk, f"{chunk} rows of a {M}-point grid")

    best = np.zeros(B)
    gap0 = _gap(deg, M, 0)
    product = n <= _PRODUCT_TERMS_PER_LOG2 * (M.bit_length() - 1)
    values = _product_values if product else _fft_values
    for lo in range(0, B, chunk):
        hi = min(B, lo + chunk)
        vals = values(freqs, rows[lo:hi], M)
        sq = vals.view(np.float64)
        np.square(sq, out=sq)
        g = sq[:, 0::2] + sq[:, 1::2]
        del vals, sq
        bmax = g.max(axis=1)
        best[lo:hi] = bmax
        if gap0 > rel_tol:
            at = np.flatnonzero(g >= bmax[:, None] * (1.0 - gap0))
            seeds = np.divmod(at, M)
            del g, at  # the refinement charges the kept samples, not the grid
            _refine(freqs, rows[lo:hi], M, deg, rel_tol, best[lo:hi], *seeds)
    return np.sqrt(best)


def sup_norm(f: TrigPolynomial, rel_tol: float = 1e-9) -> float:
    """Certified sup-norm estimate S with true norm in [S, S*(1+rel_tol)].

    rel_tol must lie in [1e-15, 0.1].
    """
    return float(sup_norm_rows(f.freqs, f.coeffs[None, :], rel_tol)[0])


def lq_function_norm(f: TrigPolynomial, q: float, M: int | None = None) -> float:
    """(grid mean of |f|^q)^(1/q) on M equispaced points.

    Exact for even integer q <= 16 at the default grid (then M > q*degree);
    otherwise a quadrature approximation.  q must be finite (sup_norm is
    the q = inf norm).  An explicit M must be at least 4*(degree+1).
    """
    if not 1.0 <= q < math.inf:
        raise DomainError(f"need finite q >= 1, got q={q}; the sup norm is the q = inf case")
    if len(f) == 0:
        return 0.0
    if M is None and float(q).is_integer() and int(q) % 2 == 0:
        M = default_grid_size(f.degree)
        while M <= int(q) * f.degree:
            M *= 2
    a = _grid_abs(f, M, 4)
    return float(np.mean(a**q) ** (1.0 / q))
