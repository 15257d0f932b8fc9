"""Named experiment suites with deterministic, reproducible reports.

Each experiment E1..E11 binds the library modules into a battery of checks
against the qualitative inequalities the package studies.  All inequalities
carry unknown absolute constants, so pass criteria are ratio bands
(max/min of a tested ratio across an instance family), with band widths
fixed in the default config and recorded in the report.

Reproducibility contract: every random draw comes from a Philox stream
keyed (seed, stream_id, trial_index), with stream ids allocated in fixed
code order from the experiment's block (experiment index * 1000).  Reports
therefore depend only on the effective config, and the serialized form is
byte-identical across reruns; wall-clock data lives in a separate metadata
section that emit_report omits by default.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .examples_sets import generate, fit_mesh_exponent, mesh_counts, r_alpha
from .exponents import conjugate, derive_exponents, invert_for_q
from .orlicz import psi_set_norm
from .quasi import is_quasi_independent, max_quasi_independent, partition_lemma
from .sampler import DriverDistribution, make_rng, sample_driver
from .stable_norm import estimate_bracket, sz_lower, zero_one_upper
from .trigpoly import TrigPolynomial, lorentz_norms

__all__ = [
    "EXPERIMENT_IDS",
    "CheckResult",
    "ExperimentReport",
    "default_config",
    "run_experiment",
    "emit_report",
    "parse_report",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    fitted_constant: float
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "fitted_constant": self.fitted_constant,
            "passed": self.passed,
        }


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


def _require(values: list, name: str, cfg: dict, keys: tuple) -> None:
    if not values:
        got = ", ".join(f"{k}={cfg[k]!r}" for k in keys)
        raise DomainError(f"{name} needs at least one instance; config has {got}")


def _band_check(name: str, ratios: list, cfg: dict, keys: tuple, fitted=max) -> CheckResult:
    """Passes when max/min of the positive ratios is within cfg["band"].

    The statistic is inf when some ratio is not positive; the fitted
    constant is fitted(ratios).  An empty ratio list is a config error
    naming the keys that sized it.
    """
    _require(ratios, name, cfg, keys)
    lo, hi = min(ratios), max(ratios)
    band = math.inf if lo <= 0 else hi / lo
    return CheckResult(name, band, fitted(ratios), band <= float(cfg["band"]))


def _lacunary(n: int) -> list:
    """The geometric spectrum {2, 4, ..., 2^n}."""
    return [2**j for j in range(1, n + 1)]


def _stable_driver(p: float, seed: int, stream: int) -> DriverDistribution:
    return DriverDistribution("p_stable", p=p, seed=seed, stream_id=stream)


# --- E1: characteristic-function fidelity -----------------------------------


def _run_e1(cfg: dict, streams: itertools.count) -> list:
    n = int(cfg["n"])
    tol = 4.0 / math.sqrt(n)
    ring = [complex(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)]
    checks = []
    for p in cfg["ps"]:
        p = float(p)
        d = DriverDistribution("p_stable", p=p, seed=cfg["seed"], stream_id=next(streams))
        z1 = sample_driver(d, n, trial_index=0)
        d2 = DriverDistribution("p_stable", p=p, seed=cfg["seed"], stream_id=next(streams))
        z2 = sample_driver(d2, n, trial_index=0)

        def emp_cf(z: complex, samples: np.ndarray) -> complex:
            angle = z.real * samples.real + z.imag * samples.imag
            return complex(np.cos(angle).mean(), np.sin(angle).mean())

        for k, z in enumerate(ring):
            dev = abs(emp_cf(z, z1) - math.exp(-abs(z) ** p))
            checks.append(CheckResult(f"cf_p{p}_ring{k}", dev, dev * math.sqrt(n), dev < tol))
        mixed = (z1 + z2) / 2.0 ** (1.0 / p)
        for radius in cfg["stability_radii"]:
            radius = float(radius)
            dev = abs(emp_cf(complex(radius, 0.0), mixed) - math.exp(-radius**p))
            checks.append(
                CheckResult(f"stability_p{p}_r{radius}", dev, dev * math.sqrt(n), dev < tol)
            )
    return checks


# --- random polynomial suites -------------------------------------------------


def _random_poly(rng: np.random.Generator, max_freq: int, size_lo: int, size_hi: int) -> TrigPolynomial:
    m = int(rng.integers(size_lo, size_hi + 1))
    freqs = rng.choice(np.arange(1, max_freq + 1), size=m, replace=False)
    coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return TrigPolynomial(zip(freqs.tolist(), coeffs.tolist()))


# --- E2: comparison principle across p ----------------------------------------


def _run_e2(cfg: dict, streams: itertools.count) -> list:
    p1, p2 = float(cfg["p1"]), float(cfg["p2"])
    if not p1 < p2:
        raise DomainError(f"need p1 < p2, got {p1}, {p2}")
    trials = int(cfg["trials"])
    checks = []
    ratios = []
    for i in range(int(cfg["suite_size"])):
        rng = make_rng(cfg["seed"], next(streams))
        f = _random_poly(rng, 200, 4, 12)
        e1 = estimate_bracket(f, _stable_driver(p1, cfg["seed"], next(streams)), trials)
        e2 = estimate_bracket(f, _stable_driver(p2, cfg["seed"], next(streams)), trials)
        bound = 3.0 * e1.value + 5.0 * e1.spread
        ratios.append(e2.value / e1.value)
        checks.append(
            CheckResult(f"pairwise_{i}", e2.value / bound, e2.value / e1.value, e2.value <= bound)
        )
    _require(ratios, "median_ratio", cfg, ("suite_size",))
    med = float(np.median(ratios))
    checks.append(CheckResult("median_ratio", med, med, med <= float(cfg["median_cap"])))
    return checks


# --- E3: lower p-estimate over disjoint-spectrum sums --------------------------


def _run_e3(cfg: dict, streams: itertools.count) -> list:
    p = float(cfg["p"])
    trials = int(cfg["trials"])
    checks = []
    ratios = []
    for i in range(int(cfg["instances"])):
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
            est = estimate_bracket(fj, _stable_driver(p, cfg["seed"], next(streams)), trials)
            part_sum += est.value**p
        whole_est = estimate_bracket(whole, _stable_driver(p, cfg["seed"], next(streams)), trials)
        ratio = part_sum ** (1.0 / p) / whole_est.value
        ratios.append(ratio)
        checks.append(CheckResult(f"instance_{i}", ratio, ratio, ratio > 0))
    checks.append(_band_check("ratio_band", ratios, cfg, ("instances",)))
    return checks


# --- E4: contraction principle -------------------------------------------------


def _run_e4(cfg: dict, streams: itertools.count) -> list:
    p = float(cfg["p"])
    trials = int(cfg["trials"])
    checks = []
    for i in range(int(cfg["suite_size"])):
        rng = make_rng(cfg["seed"], next(streams))
        f = _random_poly(rng, 200, 4, 12)
        stream = next(streams)
        base = estimate_bracket(f, _stable_driver(p, cfg["seed"], stream), trials)
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
            est = estimate_bracket(g, _stable_driver(p, cfg["seed"], stream), trials)
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
    p = float(cfg["p"])
    trials = int(cfg["trials"])
    ns = range(int(cfg["n_min"]), int(cfg["n_max"]) + 1)
    upper_ratios = []
    interval_ratios = []
    checks = []
    for n in ns:
        f = TrigPolynomial.indicator(_lacunary(n))
        est = estimate_bracket(f, _stable_driver(p, cfg["seed"], next(streams)), trials)
        up = zero_one_upper(n, 2**n, p)
        lo = sz_lower(f, p)
        upper_ratios.append(est.value / up)
        checks.append(CheckResult(f"upper_ratio_n{n}", est.value / up, up, True))
        checks.append(CheckResult(f"lower_ratio_n{n}", est.value / lo, lo, True))
    for n in ns:
        f = TrigPolynomial.indicator(range(1, 2**n + 1))
        est = estimate_bracket(f, _stable_driver(p, cfg["seed"], next(streams)), trials)
        lo = sz_lower(f, p)
        interval_ratios.append(est.value / lo)
        checks.append(CheckResult(f"interval_lower_ratio_n{n}", est.value / lo, lo, True))
    keys = ("n_min", "n_max")
    checks.append(_band_check("upper_band", upper_ratios, cfg, keys))
    checks.append(_band_check("lower_band", interval_ratios, cfg, keys, fitted=min))
    return checks


# --- E6: sandwich probe between bracket norm and q(A) ---------------------------


def _run_e6(cfg: dict, streams: itertools.count) -> list:
    p = float(cfg["p"])
    p_conj = conjugate(p)
    trials = int(cfg["trials"])
    universe = np.arange(1, int(cfg["universe"]) + 1)
    checks = []
    ratios = []
    for i in range(int(cfg["instances"])):
        rng = make_rng(cfg["seed"], next(streams))
        size = int(rng.integers(4, 13))
        A = sorted(int(g) for g in rng.choice(universe, size=size, replace=False))
        qres = max_quasi_independent(A)
        f = TrigPolynomial.indicator(A)
        est = estimate_bracket(f, _stable_driver(p, cfg["seed"], next(streams)), trials)
        comparator = (est.value / size ** (1.0 / p)) ** p_conj
        ratio = qres.q_value / comparator
        ratios.append(ratio)
        checks.append(CheckResult(f"probe_instance_{i}", ratio, comparator, qres.exact))
    checks.append(_band_check("probe_ratio_band", ratios, cfg, ("instances",)))
    return checks


# --- E7: mesh growth tables -----------------------------------------------------


def _run_e7(cfg: dict, streams: itertools.count) -> list:
    pts = [int(N) for N in cfg["checkpoints"]]
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
    p, q = float(cfg["p"]), float(cfg["q"])
    threshold = conjugate(p) / q
    checks.append(
        CheckResult("squares_exceed_pconj_over_q", exp_sq, threshold, exp_sq > threshold)
    )
    return checks


# --- E8: partition_lemma postconditions ------------------------------------------


def _e8_instances(cfg: dict, streams: itertools.count) -> list:
    out = []
    for m in (12, 13, 14, 15, 16):
        out.append((generate("powers", 2**m, base=2), 1.0, 0.5))
    for mult in (3, 5, 7):
        out.append((tuple(mult * g for g in generate("powers", 2**14, base=2)), 1.0, 0.5))
    for m in (8, 9, 10):
        out.append((generate("powers", 3**m, base=3), 1.0, 0.5))
    mixed = tuple(sorted(set(generate("powers", 2**10, base=2)) | set(generate("powers", 3**6, base=3))))
    out.append((mixed, 1.0, 0.5))
    out.append((tuple(5 * g for g in mixed), 1.0, 0.5))
    for _ in range(4):
        rng = make_rng(cfg["seed"], next(streams))
        # 12 elements keep the exact branch-and-bound extraction cheap
        A = sorted(int(g) for g in rng.choice(np.arange(1, 100_001), size=12, replace=False))
        out.append((tuple(A), 1.0, 0.5))
    for m in (8, 10, 12):
        out.append((generate("sums_of_powers", 3**m, base=3, d=2), 1.0, 0.5))
    return out


def _run_e8(cfg: dict, streams: itertools.count) -> list:
    checks = []
    for i, (A, c, eps) in enumerate(_e8_instances(cfg, streams)):
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
    p = float(cfg["p"])
    s = float(cfg["s"])
    q = invert_for_q(p, s)
    trials = int(cfg["trials"])
    checks = []
    ratios = []
    for n in range(int(cfg["size_min"]), int(cfg["size_max"]) + 1):
        f = TrigPolynomial.indicator(_lacunary(n))
        l_q1, _ = lorentz_norms(f, q)
        est = estimate_bracket(f, _stable_driver(p, cfg["seed"], next(streams)), trials)
        ratio = l_q1 / est.value
        ratios.append(ratio)
        checks.append(CheckResult(f"lorentz_ratio_n{n}", ratio, l_q1, True))
    checks.append(_band_check("lorentz_band", ratios, cfg, ("size_min", "size_max")))
    return checks


# --- E10: Orlicz set-functional growth band --------------------------------------


def _run_e10(cfg: dict, streams: itertools.count) -> list:
    p, q = float(cfg["p"]), float(cfg["q"])
    table = derive_exponents(p, q)
    r = table.p_conj
    checks = []
    ratios = []
    for n in range(int(cfg["size_min"]), int(cfg["size_max"]) + 1):
        psi = psi_set_norm(_lacunary(n), r)
        ratio = psi / n ** (1.0 / table.alpha)
        ratios.append(ratio)
        checks.append(CheckResult(f"psi_ratio_n{n}", ratio, psi, True))
    checks.append(_band_check("psi_band", ratios, cfg, ("size_min", "size_max")))
    return checks


# --- E11: representation-count band ----------------------------------------------


def _run_e11(cfg: dict, streams: itertools.count) -> list:
    alpha = int(cfg["alpha"])
    p = float(cfg["p"])
    growth = (2.0 - p) / (p - 1.0)
    checks = []
    ratios = []
    for k in range(int(cfg["k_min"]), int(cfg["k_max"]) + 1):
        A = generate("powers", 2**k, base=2)
        n = alpha * (2**k)
        rc = r_alpha(A, alpha, n)
        total_ok = sum(rc.counts) == len(A) ** alpha
        ratio = rc.mean_square / (n**growth * math.log(n) ** (2 * alpha))
        ratios.append(ratio)
        checks.append(CheckResult(f"ralpha_ratio_k{k}", ratio, rc.mean_square, total_ok))
    _require(ratios, "ralpha_band", cfg, ("k_min", "k_max"))
    grow = max(ratios) / ratios[0]
    checks.append(CheckResult("ralpha_band", grow, max(ratios), grow <= float(cfg["band"])))
    k = int(cfg["k_max"])
    interval = generate("interval", k)
    powers = generate("powers", 2**k, base=2)
    n = alpha * k
    ms_interval = r_alpha(interval, alpha, n).mean_square
    ms_powers = r_alpha(powers, alpha, alpha * (2**k)).mean_square
    checks.append(
        CheckResult("interval_dominates_powers", ms_interval / ms_powers, ms_interval, ms_interval > ms_powers)
    )
    return checks


# --- registry, config handling, reports ------------------------------------------

_DEFAULTS = {
    "E1": {
        "seed": 0,
        "n": 1_000_000,
        "ps": [1.2, 1.5, 1.8, 2.0],
        "stability_radii": [0.5, 1.0, 2.0],
    },
    "E2": {"seed": 0, "suite_size": 20, "trials": 500, "p1": 1.5, "p2": 2.0, "median_cap": 1.5},
    "E3": {"seed": 0, "instances": 20, "trials": 2000, "p": 1.5, "band": 10.0},
    "E4": {"seed": 0, "suite_size": 10, "trials": 800, "p": 1.5},
    "E5": {"seed": 0, "n_min": 4, "n_max": 12, "p": 1.5, "trials": 2000, "band": 3.0},
    "E6": {"seed": 0, "instances": 30, "universe": 60, "p": 1.5, "trials": 600, "band": 10.0},
    "E7": {
        "seed": 0,
        "checkpoints": [10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8],
        "p": 1.5,
        "q": 8.0,
    },
    "E8": {"seed": 0},
    "E9": {"seed": 0, "p": 1.5, "s": 4.0 / 3.0, "size_min": 4, "size_max": 16, "trials": 300, "band": 10.0},
    "E10": {"seed": 0, "p": 1.5, "q": 4.0 / 3.0, "size_min": 4, "size_max": 16, "band": 4.0},
    "E11": {"seed": 0, "alpha": 2, "p": 1.5, "k_min": 4, "k_max": 10, "band": 4.0},
}

_RUNNERS = {
    "E1": _run_e1,
    "E2": _run_e2,
    "E3": _run_e3,
    "E4": _run_e4,
    "E5": _run_e5,
    "E6": _run_e6,
    "E7": _run_e7,
    "E8": _run_e8,
    "E9": _run_e9,
    "E10": _run_e10,
    "E11": _run_e11,
}

EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 12))


def default_config(exp_id: str) -> dict:
    if exp_id not in _DEFAULTS:
        raise DomainError(f"unknown experiment {exp_id!r}; want one of {EXPERIMENT_IDS}")
    return json.loads(json.dumps(_DEFAULTS[exp_id]))


def run_experiment(exp_id: str, config: dict | None = None) -> ExperimentReport:
    """Run one named experiment; config keys override the defaults.

    All randomness derives from the effective config's seed; stream ids
    live in the experiment's block (index * 1000) and are allocated in
    fixed code order, so identical configs give identical reports.
    """
    cfg = default_config(exp_id)
    for key, val in (config or {}).items():
        if key not in cfg:
            raise DomainError(f"unknown config key {key!r} for {exp_id}")
        cfg[key] = val
    cfg["seed"] = int(cfg["seed"])
    streams = itertools.count(1000 * (EXPERIMENT_IDS.index(exp_id) + 1))
    start = time.perf_counter()
    checks = _RUNNERS[exp_id](cfg, streams)
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

    JSON round-trips losslessly through parse_report.  Wall-clock data is
    emitted only under include_meta, keeping default output byte-identical
    across reruns.  CSV flattens checks to one row each.
    """
    if fmt == "json":
        obj = {
            "experiment_id": report.experiment_id,
            "config": report.config,
            "checks": [c.to_json_obj() for c in report.checks],
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


def parse_report(data: bytes) -> ExperimentReport:
    """Inverse of emit_report for the JSON format."""
    obj = json.loads(data.decode())
    checks = tuple(
        CheckResult(c["name"], c["statistic"], c["fitted_constant"], c["passed"])
        for c in obj["checks"]
    )
    meta = obj.get("meta", {})
    return ExperimentReport(
        experiment_id=obj["experiment_id"],
        config=obj["config"],
        checks=checks,
        runtime_ms=float(meta.get("runtime_ms", 0.0)),
        artifacts=tuple(obj.get("artifacts", ())),
    )
