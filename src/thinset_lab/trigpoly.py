"""Trigonometric polynomials on the circle with sparse integer spectra.

A polynomial is a finite sum f(t) = sum_g c_g exp(i g t) with nonzero complex
coefficients keyed by signed 64-bit frequencies.  The module provides the
coefficient-side norms (l_q, Lorentz), grid evaluation (FFT when the
spectrum fits the grid, a chunked termwise sum otherwise), a certified
sup-norm estimator, and L^q function norms by quadrature.  Every dense grid
is checked against a byte cap before it is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ResourceLimitError

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
# bytes of one complex M-point grid row; 2^28 allows M = 2^24, eight times
# the 2^21-point grid of a degree-2^16 polynomial
_GRID_BYTES_CAP = 1 << 28


class TrigPolynomial:
    """Immutable sparse trigonometric polynomial.

    Construct from a dict {frequency: coefficient}, an iterable of
    (frequency, coefficient) pairs, or another TrigPolynomial.  Zero
    coefficients are dropped; duplicate frequencies are rejected.
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
            gi = int(g)
            if abs(gi) >= _FREQ_LIMIT:
                raise DomainError(f"frequency {gi} outside signed 64-bit working range")
            c = complex(c)
            if c != 0:
                freqs.append(gi)
                coeffs.append(c)
        f = np.asarray(freqs, dtype=np.int64)
        c = np.asarray(coeffs, dtype=np.complex128)
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
        return cls((int(g), 1.0) for g in frequencies)

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

    def coeff(self, g: int) -> complex:
        i = int(np.searchsorted(self._freqs, int(g)))
        if i < self._freqs.size and self._freqs[i] == int(g):
            return complex(self._coeffs[i])
        return 0j

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

    def to_json_obj(self) -> list:
        """Serialized form: list of [frequency, re, im] triples."""
        return [[int(g), float(c.real), float(c.imag)] for g, c in zip(self._freqs, self._coeffs)]

    @classmethod
    def from_json_obj(cls, obj) -> "TrigPolynomial":
        if not isinstance(obj, list):
            raise DomainError("polynomial JSON must be a list of [frequency, re, im]")
        pairs = []
        for row in obj:
            if not (isinstance(row, (list, tuple)) and len(row) == 3):
                raise DomainError(f"bad polynomial term {row!r}; want [frequency, re, im]")
            g, re, im = row
            pairs.append((int(g), complex(float(re), float(im))))
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
    if q == 1.0:
        return float(a.sum())
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


def _check_grid_bytes(M: int) -> None:
    if 16 * M > _GRID_BYTES_CAP:
        raise ResourceLimitError(
            f"a {M}-point grid needs {16 * M} bytes per row, over the cap of {_GRID_BYTES_CAP}"
        )


def evaluate_grid(f: TrigPolynomial, M: int) -> np.ndarray:
    """Values f(t_k) at t_k = 2 pi k / M, k = 0..M-1.

    Takes the FFT when every frequency lies in [-M/2, M/2) and sums
    termwise otherwise; the two paths agree to 1e-9 absolute.  Raises
    ResourceLimitError before allocating a grid over the byte cap.
    """
    M = int(M)
    if M < 1:
        raise DomainError(f"need M >= 1, got {M}")
    _check_grid_bytes(M)
    if len(f) == 0:
        return np.zeros(M, dtype=np.complex128)
    freqs, rows = f.freqs, f.coeffs[None, :]
    if freqs[0] >= -(M // 2) and freqs[-1] < (M + 1) // 2:
        return _fft_values(freqs, rows, M)[0] * M
    t = 2.0 * np.pi * np.arange(M) / M
    return _direct_values(freqs, rows, np.zeros(M, dtype=np.intp), t)


def _fft_values(freqs: np.ndarray, rows: np.ndarray, M: int) -> np.ndarray:
    """numpy's ifft of each row scattered onto M points: f_row(2 pi k / M) / M.

    Every frequency must lie in [-M/2, M/2).
    """
    _check_grid_bytes(M)
    buf = np.zeros((rows.shape[0], M), dtype=np.complex128)
    # distinct frequencies in [-M/2, M/2) have distinct residues mod M
    buf[:, np.mod(freqs, M)] = rows
    return np.fft.ifft(buf, axis=1)


def _direct_values(freqs: np.ndarray, rows: np.ndarray, row_idx: np.ndarray, t: np.ndarray) -> np.ndarray:
    """f_row(t) for paired (row_idx, t), summed termwise in chunks that bound memory."""
    out = np.empty(t.size, dtype=np.complex128)
    chunk = max(1, (1 << 21) // max(1, freqs.size))
    for lo in range(0, t.size, chunk):
        hi = min(t.size, lo + chunk)
        phases = np.exp(1j * t[lo:hi, None] * freqs[None, :])
        out[lo:hi] = np.einsum("kn,kn->k", phases, rows[row_idx[lo:hi]])
    return out


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
        Certified relative tolerance: each returned S satisfies
        true sup in [S, S*(1+rel_tol)].

    The estimator takes a dense FFT grid of default_grid_size(degree)
    points, then repeatedly bisects the sample spacing around every sample
    whose squared modulus is within the current curvature bound of the row
    maximum.  The bound (deg*h)^2/2 on the relative deficit of the nearest
    sample comes from the second-derivative inequality for squared moduli
    of degree-deg polynomials, so the surviving samples always cover the
    true argmax.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.complex128))
    B, n = rows.shape
    if n == 0:
        return np.zeros(B)
    if n == 1:
        return np.abs(rows[:, 0])
    deg = int(max(-freqs[0], freqs[-1]))
    if deg == 0:
        return np.abs(rows[:, 0])
    M = default_grid_size(deg)
    h0 = 2.0 * np.pi / M

    best = np.zeros(B)
    kept_row: list = []
    kept_t: list = []
    kept_g: list = []
    gap0 = min(0.49, 1.02 * (deg * h0) ** 2 / 2.0)
    chunk = max(1, (1 << 23) // M)
    for lo in range(0, B, chunk):
        hi = min(B, lo + chunk)
        vals = _fft_values(freqs, rows[lo:hi], M)
        g = (vals.real**2 + vals.imag**2) * (M * M)
        bmax = g.max(axis=1)
        best[lo:hi] = bmax
        keep = g >= bmax[:, None] * (1.0 - gap0)
        r, k = np.nonzero(keep)
        kept_row.append(r + lo)
        kept_t.append(k * h0)
        kept_g.append(g[r, k])
    row_idx = np.concatenate(kept_row)
    t = np.concatenate(kept_t)
    g = np.concatenate(kept_g)

    h = h0
    gap = gap0
    while gap > rel_tol:
        mid_t = np.concatenate([t - h / 2.0, t + h / 2.0])
        mid_rows = np.concatenate([row_idx, row_idx])
        mid_v = _direct_values(freqs, rows, mid_rows, mid_t)
        mid_g = mid_v.real**2 + mid_v.imag**2
        row_idx = np.concatenate([row_idx, mid_rows])
        t = np.concatenate([t, mid_t])
        g = np.concatenate([g, mid_g])
        np.maximum.at(best, row_idx, g)
        h /= 2.0
        gap = 1.02 * (deg * h) ** 2 / 2.0
        keep = g >= best[row_idx] * (1.0 - gap)
        row_idx, t, g = row_idx[keep], t[keep], g[keep]
    return np.sqrt(best)


def sup_norm(f: TrigPolynomial, rel_tol: float = 1e-9) -> float:
    """Certified sup-norm estimate S with true norm in [S, S*(1+rel_tol)]."""
    if not (0.0 < rel_tol <= 0.1):
        raise DomainError(f"need rel_tol in (0, 0.1], got {rel_tol}")
    if len(f) == 0:
        return 0.0
    return float(sup_norm_rows(f.freqs, f.coeffs[None, :], rel_tol)[0])


def lq_function_norm(f: TrigPolynomial, q: float, M: int | None = None) -> float:
    """(grid mean of |f|^q)^(1/q) on M equispaced points.

    Exact for even integer q <= 16 at the default grid (then M > q*degree);
    otherwise a quadrature approximation.  An explicit M must be at least
    4*(degree+1).
    """
    if not q >= 1.0:
        raise DomainError(f"need q >= 1, got q={q}")
    if len(f) == 0:
        return 0.0
    if M is None and float(q).is_integer() and int(q) % 2 == 0:
        M = default_grid_size(f.degree)
        while M <= int(q) * f.degree:
            M *= 2
    a = _grid_abs(f, M, 4)
    return float(np.mean(a**q) ** (1.0 / q))
