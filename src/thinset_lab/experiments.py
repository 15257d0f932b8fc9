"""Named experiment suites with deterministic, reproducible reports.

Each experiment E1..E11 binds the library modules into a battery of checks
against the qualitative inequalities the package studies.  All inequalities
carry unknown absolute constants, so pass criteria are ratio bands
(max/min of a tested ratio across an instance family), with band widths
fixed in the default config and recorded in the report.

Reproducibility contract: every random draw comes from a Philox stream
keyed (seed, stream_id), with stream ids allocated in fixed code order from
the experiment's block (experiment index * 1000).  Driver draw j of stream
(seed, stream_id) is Philox block j, and trial i of an n-term bracket is
draws [i*n, (i+1)*n), so any trial regenerates alone.  Reports
therefore depend only on the effective config, and the serialized form is
byte-identical across reruns; wall-clock data lives in a separate metadata
section that emit_report omits by default.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError
from .examples_sets import _charge_counts, generate, fit_mesh_exponent, mesh_counts, r_alpha
from .exponents import conjugate, derive_exponents, invert_for_q
from .orlicz import psi_set_norm
from .quasi import is_quasi_independent, max_quasi_independent, partition_lemma
from .sampler import DriverDistribution, make_rng, sample_driver
from .stable_norm import NormEstimate, estimate_bracket, sz_lower, zero_one_upper
from .trigpoly import TrigPolynomial, lorentz_norms

__all__ = [
    "EXPERIMENT_IDS",
    "CheckResult",
    "ExperimentReport",
    "default_config",
    "run_experiment",
    "emit_report",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    fitted_constant: float
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    experiment_id: str
    config: dict
    checks: tuple
    runtime_ms: float
    artifacts: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _band_check(name: str, checks: list, band: float, fitted=max) -> CheckResult:
    """Passes when max/min of the checks' statistics (ratios) is within band; the
    statistic is inf when some ratio is not positive, the fitted constant fitted(ratios)."""
    ratios = [c.statistic for c in checks]
    lo, hi = min(ratios), max(ratios)
    stat = math.inf if lo <= 0 else hi / lo
    return CheckResult(name, stat, fitted(ratios), stat <= band)


def _stable_driver(p: float, seed: int, stream: int) -> DriverDistribution:
    return DriverDistribution("p_stable", p=p, seed=seed, stream_id=stream)


def _bracket(f: TrigPolynomial, p: float, cfg: dict, stream: int) -> NormEstimate:
    """The bracket of f over cfg["trials"] trials of a p-stable driver keyed
    (cfg["seed"], stream)."""
    return estimate_bracket(f, _stable_driver(p, cfg["seed"], stream), cfg["trials"])


# --- E1: characteristic-function fidelity -----------------------------------


def _emp_cf(z: complex, samples: np.ndarray) -> complex:
    angle = z.real * samples.real + z.imag * samples.imag
    return complex(np.cos(angle).mean(), np.sin(angle).mean())


def _run_e1(cfg: dict, streams: itertools.count) -> list:
    n = cfg["n"]
    tol = 4.0 / math.sqrt(n)
    ring = [complex(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)]
    checks = []
    for p in cfg["ps"]:
        z1 = sample_driver(_stable_driver(p, cfg["seed"], next(streams)), n)
        z2 = sample_driver(_stable_driver(p, cfg["seed"], next(streams)), n)
        for k, z in enumerate(ring):
            dev = abs(_emp_cf(z, z1) - math.exp(-abs(z) ** p))
            checks.append(CheckResult(f"cf_p{p}_ring{k}", dev, dev * math.sqrt(n), dev < tol))
        mixed = (z1 + z2) / 2.0 ** (1.0 / p)
        for radius in cfg["stability_radii"]:
            dev = abs(_emp_cf(complex(radius, 0.0), mixed) - math.exp(-radius**p))
            checks.append(CheckResult(f"stability_p{p}_r{radius}", dev, dev * math.sqrt(n), dev < tol))
    return checks


# --- random polynomial suites -------------------------------------------------


def _random_poly(rng: np.random.Generator) -> TrigPolynomial:
    """4 to 12 terms with distinct frequencies in [1, 200] and complex Gaussian coefficients."""
    m = int(rng.integers(4, 13))
    freqs = rng.choice(np.arange(1, 201), size=m, replace=False)
    coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return TrigPolynomial(zip(freqs.tolist(), coeffs.tolist()))


# --- E2: comparison principle across p ----------------------------------------


def _run_e2(cfg: dict, streams: itertools.count) -> list:
    p1, p2 = cfg["p1"], cfg["p2"]
    if not p1 < p2:
        raise DomainError(f"E2 config: want p1 < p2, got p1={p1}, p2={p2}")
    checks = []
    for i in range(cfg["suite_size"]):
        f = _random_poly(make_rng(cfg["seed"], next(streams)))
        e1 = _bracket(f, p1, cfg, next(streams))
        e2 = _bracket(f, p2, cfg, next(streams))
        bound = 3.0 * e1.value + 5.0 * e1.spread
        checks.append(
            CheckResult(f"pairwise_{i}", e2.value / bound, e2.value / e1.value, e2.value <= bound)
        )
    med = float(np.median([c.fitted_constant for c in checks]))
    checks.append(CheckResult("median_ratio", med, med, med <= cfg["median_cap"]))
    return checks


# --- E3: lower p-estimate over disjoint-spectrum sums --------------------------


def _run_e3(cfg: dict, streams: itertools.count) -> list:
    p = cfg["p"]
    checks = []
    for i in range(cfg["instances"]):
        rng = make_rng(cfg["seed"], next(streams))
        n_blocks = int(rng.integers(2, 5))
        terms: dict = {}
        block_polys = []
        for b in range(n_blocks):
            m = int(rng.integers(3, 7))
            lo = 1 + 120 * b
            freqs = rng.choice(np.arange(lo, lo + 100), size=m, replace=False)
            coeffs = rng.uniform(0.5, 1.5, m)
            block = {int(g): complex(c) for g, c in zip(freqs, coeffs)}
            block_polys.append(TrigPolynomial(block))
            terms.update(block)
        whole = TrigPolynomial(terms)
        part_sum = 0.0
        for fj in block_polys:
            part_sum += _bracket(fj, p, cfg, next(streams)).value ** p
        ratio = part_sum ** (1.0 / p) / _bracket(whole, p, cfg, next(streams)).value
        checks.append(CheckResult(f"instance_{i}", ratio, ratio, ratio > 0))
    checks.append(_band_check("ratio_band", checks, cfg["band"]))
    return checks


# --- E4: contraction principle -------------------------------------------------


def _run_e4(cfg: dict, streams: itertools.count) -> list:
    p = cfg["p"]
    checks = []
    for i in range(cfg["suite_size"]):
        rng = make_rng(cfg["seed"], next(streams))
        f = _random_poly(rng)
        stream = next(streams)
        base = _bracket(f, p, cfg, stream)
        cap = 1.0 + 5.0 * base.spread / base.value
        n = len(f)
        moduli = rng.uniform(0.0, 1.0, n)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        patterns = {
            "random_disc": moduli * phases,
            "half": np.full(n, 0.5),
            "signs": rng.integers(0, 2, n) * 2.0 - 1.0,
        }
        for name, mult in patterns.items():
            g = TrigPolynomial(zip(f.freqs.tolist(), (f.coeffs * mult).tolist()))
            # same stream as the base estimate: common random numbers keep
            # the comparison tight
            est = _bracket(g, p, cfg, stream)
            ratio = est.value / base.value
            checks.append(CheckResult(f"contract_{i}_{name}", ratio, cap, ratio <= cap))
    return checks


# --- E5: 0-1 polynomial upper and lower comparators ----------------------------
#
# upper_band: the estimate over the counting bound zero_one_upper on the
# geometric spectra A_n = {2, 4, ..., 2^n}.  lower_band: the estimate over
# sz_lower on the intervals I_n = [1, 2^n], the same degrees.  For a 0-1
# spectrum of n terms in [1, N], sz_lower equals zero_one_upper(n, N, p)
# * (n/N)^(1/p'): it matches the counting bound on intervals only and falls
# below it on A_n by (n 2^-n)^(1/p'), so its ratios there (lower_ratio_n*)
# are reported but not banded.  Interval streams come after all lacunary
# ones, so the lacunary rows do not depend on the interval half.


def _run_e5(cfg: dict, streams: itertools.count) -> list:
    p = cfg["p"]
    ns = range(cfg["n_min"], cfg["n_max"] + 1)
    lacunary = []  # upper_ratio_n*, lower_ratio_n* alternating
    for n in ns:
        f = TrigPolynomial.indicator(generate("powers", 2**n))
        value = _bracket(f, p, cfg, next(streams)).value
        up, lo = zero_one_upper(n, 2**n, p), sz_lower(f, p)
        lacunary.append(CheckResult(f"upper_ratio_n{n}", value / up, up, True))
        lacunary.append(CheckResult(f"lower_ratio_n{n}", value / lo, lo, True))
    interval = []
    for n in ns:
        f = TrigPolynomial.indicator(range(1, 2**n + 1))
        value, lo = _bracket(f, p, cfg, next(streams)).value, sz_lower(f, p)
        interval.append(CheckResult(f"interval_lower_ratio_n{n}", value / lo, lo, True))
    return lacunary + interval + [
        _band_check("upper_band", lacunary[::2], cfg["band"]),
        _band_check("lower_band", interval, cfg["band"], fitted=min),
    ]


# --- E6: sandwich probe between bracket norm and q(A) ---------------------------


def _run_e6(cfg: dict, streams: itertools.count) -> list:
    p = cfg["p"]
    p_conj = conjugate(p)
    universe = np.arange(1, cfg["universe"] + 1)
    checks = []
    for i in range(cfg["instances"]):
        rng = make_rng(cfg["seed"], next(streams))
        size = int(rng.integers(4, 13))
        A = sorted(int(g) for g in rng.choice(universe, size=size, replace=False))
        qres = max_quasi_independent(A)
        est = _bracket(TrigPolynomial.indicator(A), p, cfg, next(streams))
        comparator = (est.value / size ** (1.0 / p)) ** p_conj
        checks.append(CheckResult(f"probe_instance_{i}", qres.q_value / comparator, comparator, qres.exact))
    checks.append(_band_check("probe_ratio_band", checks, cfg["band"]))
    return checks


# --- E7: mesh growth tables -----------------------------------------------------


def _run_e7(cfg: dict, streams: itertools.count) -> list:
    pts = cfg["checkpoints"]
    checks = []
    squares = generate("squares", pts[-1])
    sq_counts = mesh_counts(squares, pts)
    for N, cnt in zip(pts, sq_counts):
        checks.append(CheckResult(f"squares_count_N{N}", cnt, cnt, cnt == math.isqrt(N)))
    exp_sq, resid_sq = fit_mesh_exponent(sq_counts, pts, "power_log")
    checks.append(
        CheckResult("squares_power_log_exponent", exp_sq, resid_sq, abs(exp_sq - 0.5) <= 0.02)
    )
    pows = generate("powers", pts[-1], base=2)
    pw_counts = mesh_counts(pows, pts)
    for N, cnt in zip(pts, pw_counts):
        checks.append(CheckResult(f"powers2_count_N{N}", cnt, cnt, cnt == int(math.log2(N))))
    exp_pw, resid_pw = fit_mesh_exponent(pw_counts, pts, "polylog")
    checks.append(
        CheckResult("powers2_polylog_exponent", exp_pw, resid_pw, abs(exp_pw - 1.0) <= 0.15)
    )
    threshold = conjugate(cfg["p"]) / cfg["q"]
    checks.append(
        CheckResult("squares_exceed_pconj_over_q", exp_sq, threshold, exp_sq > threshold)
    )
    return checks


# --- E8: partition_lemma postconditions ------------------------------------------


def _e8_instances(cfg: dict, streams: itertools.count) -> list:
    out = [generate("powers", 2**m, base=2) for m in (12, 13, 14, 15, 16)]
    out += [tuple(mult * g for g in generate("powers", 2**14, base=2)) for mult in (3, 5, 7)]
    out += [generate("powers", 3**m, base=3) for m in (8, 9, 10)]
    mixed = tuple(sorted(set(generate("powers", 2**10, base=2)) | set(generate("powers", 3**6, base=3))))
    out += [mixed, tuple(5 * g for g in mixed)]
    for _ in range(4):
        rng = make_rng(cfg["seed"], next(streams))
        # 12 elements keep the exact branch-and-bound extraction cheap
        out.append(tuple(sorted(int(g) for g in rng.choice(np.arange(1, 100_001), size=12, replace=False))))
    out += [generate("sums_of_powers", 3**m, base=3, d=2) for m in (8, 10, 12)]
    return out


def _run_e8(cfg: dict, streams: itertools.count) -> list:
    c, eps = 1.0, 0.5
    checks = []
    for i, A in enumerate(_e8_instances(cfg, streams)):
        res = partition_lemma(A, c, eps)
        size_a = len(A)
        lo, hi = res.window
        ok = res.covered >= size_a / 2.0
        seen: set = set()
        for B in res.subsets:
            ok = ok and lo <= len(B) <= hi
            ok = ok and not (seen & set(B))
            seen |= set(B)
            qi, _ = is_quasi_independent(B)
            ok = ok and qi
        n_parts = len(res.subsets)
        ok = ok and (0.5 / c) * size_a ** (1.0 - eps) <= n_parts <= (2.0 / c) * size_a ** (1.0 - eps)
        checks.append(CheckResult(f"partition_{i}_size{size_a}", n_parts, res.covered, ok))
    return checks


# --- E9: Lorentz sequence norm against the bracket norm --------------------------


def _run_e9(cfg: dict, streams: itertools.count) -> list:
    p = cfg["p"]
    q = invert_for_q(p, cfg["s"])
    checks = []
    for n in range(cfg["size_min"], cfg["size_max"] + 1):
        f = TrigPolynomial.indicator(generate("powers", 2**n))
        l_q1, _ = lorentz_norms(f, q)
        ratio = l_q1 / _bracket(f, p, cfg, next(streams)).value
        checks.append(CheckResult(f"lorentz_ratio_n{n}", ratio, l_q1, True))
    checks.append(_band_check("lorentz_band", checks, cfg["band"]))
    return checks


# --- E10: Orlicz set-functional growth band --------------------------------------


def _run_e10(cfg: dict, streams: itertools.count) -> list:
    table = derive_exponents(cfg["p"], cfg["q"])
    r = table.p_conj
    checks = []
    for n in range(cfg["size_min"], cfg["size_max"] + 1):
        psi = psi_set_norm(generate("powers", 2**n), r)
        checks.append(CheckResult(f"psi_ratio_n{n}", psi / n ** (1.0 / table.alpha), psi, True))
    checks.append(_band_check("psi_band", checks, cfg["band"]))
    return checks


# --- E11: representation-count band ----------------------------------------------


def _run_e11(cfg: dict, streams: itertools.count) -> list:
    alpha, p = cfg["alpha"], cfg["p"]
    growth = (2.0 - p) / (p - 1.0)
    checks = []
    for k in range(cfg["k_min"], cfg["k_max"] + 1):
        A = generate("powers", 2**k, base=2)
        n = alpha * (2**k)
        rc = r_alpha(A, alpha, n)
        if k == cfg["k_min"]:
            # alpha passed r_alpha's checks; refuse a k_max whose counts are
            # over the byte cap before the larger k run (62 stands in for any
            # k_max past it, which is over the cap too)
            _charge_counts(alpha * 2 ** min(cfg["k_max"], 62))
        total_ok = sum(rc.counts) == len(A) ** alpha
        ratio = rc.mean_square / (n**growth * math.log(n) ** (2 * alpha))
        checks.append(CheckResult(f"ralpha_ratio_k{k}", ratio, rc.mean_square, total_ok))
    top = max(c.statistic for c in checks)
    grow = top / checks[0].statistic
    ms_powers = checks[-1].fitted_constant  # the powers of 2 up to 2^k_max, n = alpha 2^k_max
    checks.append(CheckResult("ralpha_band", grow, top, grow <= cfg["band"]))
    k = cfg["k_max"]
    ms_interval = r_alpha(generate("interval", k), alpha, alpha * k).mean_square
    checks.append(
        CheckResult("interval_dominates_powers", ms_interval / ms_powers, ms_interval, ms_interval > ms_powers)
    )
    return checks


# --- registry, config handling, reports ------------------------------------------

# id -> (runner, default config); the order fixes each experiment's stream
# block, 1000 * (index + 1), and with it every random draw
_EXPERIMENTS = {
    "E1": (
        _run_e1,
        {"seed": 0, "n": 1_000_000, "ps": [1.2, 1.5, 1.8, 2.0], "stability_radii": [0.5, 1.0, 2.0]},
    ),
    "E2": (_run_e2, {"seed": 0, "suite_size": 20, "trials": 500, "p1": 1.5, "p2": 2.0, "median_cap": 1.5}),
    "E3": (_run_e3, {"seed": 0, "instances": 20, "trials": 2000, "p": 1.5, "band": 10.0}),
    "E4": (_run_e4, {"seed": 0, "suite_size": 10, "trials": 800, "p": 1.5}),
    "E5": (_run_e5, {"seed": 0, "n_min": 4, "n_max": 12, "p": 1.5, "trials": 2000, "band": 3.0}),
    "E6": (_run_e6, {"seed": 0, "instances": 30, "universe": 60, "p": 1.5, "trials": 600, "band": 10.0}),
    "E7": (
        _run_e7,
        {"seed": 0, "checkpoints": [10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8], "p": 1.5, "q": 8.0},
    ),
    "E8": (_run_e8, {"seed": 0}),
    "E9": (
        _run_e9,
        {"seed": 0, "p": 1.5, "s": 4.0 / 3.0, "size_min": 4, "size_max": 16, "trials": 300, "band": 10.0},
    ),
    "E10": (_run_e10, {"seed": 0, "p": 1.5, "q": 4.0 / 3.0, "size_min": 4, "size_max": 16, "band": 4.0}),
    "E11": (_run_e11, {"seed": 0, "alpha": 2, "p": 1.5, "k_min": 4, "k_max": 10, "band": 4.0}),
}

EXPERIMENT_IDS = tuple(_EXPERIMENTS)

# key -> (test, text) for the values that would crash a run or void its checks
_RANGES = {
    **dict.fromkeys(("seed", "stability_radii"), (lambda v: v >= 0, ">= 0")),
    **dict.fromkeys(
        ("n", "suite_size", "trials", "instances", "checkpoints", "n_min", "size_min", "k_min", "band"),
        (lambda v: v >= 1, ">= 1"),
    ),
    **dict.fromkeys(("p", "p1", "p2", "ps"), (lambda v: 1 < v <= 2, "in (1, 2]")),
    **dict.fromkeys(("median_cap", "q"), (lambda v: v > 0, "> 0")),
    "universe": (lambda v: v >= 12, ">= 12"),  # E6 draws sets of up to 12 elements from it
}
_ORDERED_PAIRS = (("n_min", "n_max"), ("size_min", "size_max"), ("k_min", "k_max"))


def default_config(exp_id: str) -> dict:
    if exp_id not in _EXPERIMENTS:
        raise DomainError(f"unknown experiment {exp_id!r}; want one of {EXPERIMENT_IDS}")
    return json.loads(json.dumps(_EXPERIMENTS[exp_id][1]))


def _number(val, kind: type):
    """val as a finite int or float (kind), or None; bools are not numbers."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real):
        return None
    if kind is int and isinstance(val, numbers.Integral):
        return int(val)
    x = float(val) if abs(val) < 1e308 else math.inf  # float() overflows on huge ints
    return kind(x) if math.isfinite(x) and (kind is float or x.is_integer()) else None


def _checked_config(exp_id: str, config: dict | None) -> dict:
    """The defaults with each override coerced to its default's type and
    range-checked; a string override is read as JSON once, when it parses.
    A bad value raises DomainError naming the key."""
    cfg = default_config(exp_id)
    for key, val in (config or {}).items():
        if key not in cfg:
            raise DomainError(f"unknown config key {key!r} for {exp_id}")
        listed = isinstance(cfg[key], list)
        kind = type(cfg[key][0] if listed else cfg[key])
        test, span = _RANGES.get(key, (None, ""))
        try:
            parsed = json.loads(val) if isinstance(val, str) else val
        except (ValueError, RecursionError):
            parsed = val
        items = parsed if listed else [parsed]
        got = [_number(v, kind) for v in items] if isinstance(items, list) else []
        if not got or None in got or (test and not all(map(test, got))):
            noun = "int" if kind is int else "finite number"
            want = f"a non-empty list of {noun}s {span}" if listed else f"{noun} {span}"
            raise DomainError(f"{exp_id} config {key}: want {want.rstrip()}, got {val!r}")
        cfg[key] = got if listed else got[0]
    for lo, hi in _ORDERED_PAIRS:
        if lo in cfg and cfg[lo] > cfg[hi]:
            raise DomainError(f"{exp_id} config: want {lo} <= {hi}, got {lo}={cfg[lo]}, {hi}={cfg[hi]}")
    return cfg


def run_experiment(exp_id: str, config: dict | None = None) -> ExperimentReport:
    """Run one named experiment; config keys override the defaults.

    An override takes its default's type and must lie in its range, else
    DomainError names the key.  All randomness derives from the effective
    config's seed; stream ids live in the experiment's block (index * 1000)
    and are allocated in fixed code order, so identical configs give
    identical reports.
    """
    cfg = _checked_config(exp_id, config)
    streams = itertools.count(1000 * (EXPERIMENT_IDS.index(exp_id) + 1))
    start = time.perf_counter()
    checks = _EXPERIMENTS[exp_id][0](cfg, streams)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(
        experiment_id=exp_id,
        config=cfg,
        checks=tuple(checks),
        runtime_ms=runtime_ms,
        artifacts=(),
    )


def emit_report(report: ExperimentReport, fmt: str = "json", include_meta: bool = False) -> bytes:
    """Serialize a report with stable field order.

    Wall-clock data is emitted only under include_meta, keeping default
    output byte-identical across reruns.  CSV flattens checks to one row
    each.
    """
    if fmt == "json":
        obj = {
            "experiment_id": report.experiment_id,
            "config": report.config,
            "checks": [asdict(c) for c in report.checks],
            "artifacts": list(report.artifacts),
        }
        if include_meta:
            obj["meta"] = {"runtime_ms": report.runtime_ms}
        return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        lines = ["experiment_id,check,statistic,fitted_constant,passed"]
        for c in report.checks:
            lines.append(
                f"{report.experiment_id},{c.name},{c.statistic!r},{c.fitted_constant!r},{str(c.passed).lower()}"
            )
        return ("\n".join(lines) + "\n").encode()
    raise DomainError(f"unknown format {fmt!r}; want json or csv")

