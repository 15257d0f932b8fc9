"""Workload inputs and job lists for the thinset-lab benchmark.

Every input is a pure function of the workload seed; the library only ever
sees the generated spectra, sets, driver keys and experiment configs.  A job
is a closure that looks library functions up on their module at call time,
so tracing wrappers installed on those modules see every call.

Work per pass is kept independent of the seed: term counts, degrees, set
sizes and trial counts are fixed per job slot, and the seed only chooses
frequencies, coefficients, set members and driver stream keys.  That keeps
run-to-run spread down when the benchmark is repeated over seeds.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "thinset_lab" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no thinset_lab sources under {_SRC}; run from a full checkout")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

import thinset_lab  # noqa: E402
from thinset_lab import (  # noqa: E402
    examples_sets,
    experiments,
    orlicz,
    quasi,
    stable_norm,
    trigpoly,
)

if Path(thinset_lab.__file__).resolve().parent != (_SRC / "thinset_lab").resolve():
    raise SystemExit(f"perfbench: imported thinset_lab from {thinset_lab.__file__}, not {_SRC}")

WORKLOADS = ("lacunary", "dense", "qi", "grid")

# lacunary: trials per 0-1 indicator job, fewer where one trial costs more
# (one trial at 2^16 costs ~165 ms, at 2^8 under 1 ms on a 2-CPU x86 host)
LACUNARY_POW2_TRIALS = {8: 32, 9: 32, 10: 32, 11: 16, 12: 8, 13: 4, 14: 4, 15: 2, 16: 3}
LACUNARY_POW3_TRIALS = {6: 32, 7: 16, 8: 8, 9: 4, 10: 2}
LACUNARY_P = 1.5

QI_SEARCH_SIZES = (14, 15, 16)
QI_CHECK_SIZES = (24, 26)

# grid: experiment configs sized so one pass takes about a second
GRID_EXPERIMENTS = (("E7", {}), ("E10", {"size_max": 12}), ("E11", {"k_max": 14}))
GRID_DEGREES = (2**11 - 1, 2**12 - 1, 2**13 - 1)
GRID_TERMS = 40
GRID_LOG_R = 2.0
GRID_P_CONJ = 3.0


@dataclass(frozen=True)
class Job:
    """One library call, or the fixed calls behind one report, plus the inputs its oracle needs."""

    key: str
    kind: str
    call: Callable[[], Any] = field(repr=False)
    data: dict = field(repr=False)


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 7919, tag])))


def _bracket(key: str, f, d, trials: int) -> Job:
    return Job(
        key,
        "bracket",
        lambda: stable_norm.estimate_bracket(f, d, trials),
        {"f": f, "d": d, "trials": trials},
    )


def _spectrum(rng, top: int, terms: int, lo: int = 1, real_coeffs: bool = False) -> dict:
    """`terms` distinct frequencies in [lo, top] that always include top."""
    others = rng.choice(np.arange(lo, top), size=terms - 1, replace=False)
    freqs = [int(g) for g in others] + [int(top)]
    if real_coeffs:
        coeffs = rng.uniform(0.5, 1.5, terms)
    else:
        coeffs = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    return {g: complex(c) for g, c in zip(freqs, coeffs)}


def lacunary_jobs(seed: int) -> list:
    jobs = []
    for base, table in ((2, LACUNARY_POW2_TRIALS), (3, LACUNARY_POW3_TRIALS)):
        for n, trials in table.items():
            f = trigpoly.TrigPolynomial.indicator([base**j for j in range(1, n + 1)])
            d = thinset_lab.DriverDistribution("p_stable", p=LACUNARY_P, seed=seed, stream_id=100 * base + n)
            jobs.append(_bracket(f"pow{base}_n{n}", f, d, trials))
    return jobs


def dense_jobs(seed: int) -> list:
    """E2/E3/E4-shaped random spectra under every driver kind."""
    rng = _rng(seed, "dense")
    Driver = thinset_lab.DriverDistribution
    TP = trigpoly.TrigPolynomial
    jobs = []
    # E2 shape: 4-12 terms below 200, compared across p
    for slot, (terms, kind, p) in enumerate(
        [
            (8, "p_stable", 1.2),
            (12, "p_stable", 1.8),
            (4, "complex_gaussian", None),
            (10, "rademacher", None),
        ]
    ):
        f = TP(_spectrum(rng, 200, terms))
        d = Driver(kind, p=p, seed=seed, stream_id=10 + slot)
        jobs.append(_bracket(f"e2_{kind}_{p}", f, d, 400))
    # E3 shape: four 6-term blocks in disjoint windows, degree 460
    blocks = [_spectrum(rng, 100 + 120 * b, 6, lo=1 + 120 * b, real_coeffs=True) for b in range(4)]
    for b in (0, 3):
        d = Driver("p_stable", p=1.5, seed=seed, stream_id=20 + b)
        jobs.append(_bracket(f"e3_block{b}", TP(blocks[b]), d, 300))
    whole = {g: c for blk in blocks for g, c in blk.items()}
    jobs.append(_bracket("e3_whole", TP(whole), Driver("p_stable", p=1.5, seed=seed, stream_id=24), 400))
    # E4 shape: one base spectrum and three contractions on the same stream key
    base = TP(_spectrum(rng, 200, 8))
    n = len(base)
    patterns = {
        "random_disc": rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)),
        "half": np.full(n, 0.5),
        "signs": rng.integers(0, 2, n) * 2.0 - 1.0,
    }
    d = Driver("p_stable", p=1.5, seed=seed, stream_id=30)
    jobs.append(_bracket("e4_base", base, d, 400))
    for name, mult in patterns.items():
        g = TP(zip(base.freqs.tolist(), (base.coeffs * mult).tolist()))
        jobs.append(_bracket(f"e4_{name}", g, d, 400))
    return jobs


def qi_jobs(seed: int) -> list:
    rng = _rng(seed, "qi")
    gen = examples_sets.generate
    jobs = []

    def partition(key, A):
        A = tuple(A)
        jobs.append(Job(key, "partition", lambda: quasi.partition_lemma(A, 1.0, 0.5), {"A": A}))

    for m in (12, 14, 16):
        partition(f"partition_pow2_{m}", gen("powers", 2**m, base=2))
    # E8's 3^8 (~4 s) and 3^9 (~4 min) instances would each outlast a pass;
    # 3^7 runs the same exact-extraction path
    partition("partition_sop3_7", gen("sums_of_powers", 3**7, base=3, d=2))
    # E8's random 12-sets in [1, 10^5]: their cost varies sixfold between
    # draws, so the two sets are drawn once from a fixed stream, not the seed
    fixed = np.random.Generator(np.random.PCG64(np.random.SeedSequence([8, 12])))
    for i in range(2):
        A = sorted(int(g) for g in fixed.choice(np.arange(1, 100_001), 12, replace=False))
        partition(f"partition_rand12_{i}", A)
    for i, size in enumerate(QI_SEARCH_SIZES):
        A = tuple(sorted(int(g) for g in rng.choice(np.arange(1, 200), size, replace=False)))
        jobs.append(Job(f"search_{i}_size{size}", "search", lambda A=A: quasi.max_quasi_independent(A), {"A": A}))
    # members below 10^9 make a zero sum inside one half (an early exit that
    # would make the cost depend on the seed) unlikely: ~1e-3 per half at 14
    for size in QI_CHECK_SIZES:
        B = tuple(sorted(int(g) for g in rng.choice(10**9 - 1, size, replace=False) + 1))
        jobs.append(Job(f"check_size{size}", "check", lambda B=B: quasi.is_quasi_independent(B), {"B": B}))
    return jobs


def grid_jobs(seed: int) -> list:
    rng = _rng(seed, "grid")
    jobs = []
    for exp_id, overrides in GRID_EXPERIMENTS:
        cfg = dict(overrides, seed=seed)

        def report(exp_id=exp_id, cfg=cfg):
            rep = experiments.run_experiment(exp_id, cfg)
            return rep, experiments.emit_report(rep, "json"), experiments.emit_report(rep, "csv")

        jobs.append(Job(f"report_{exp_id}", "report", report, {"exp_id": exp_id}))
    log_phi = orlicz.OrliczFunction("log_type", GRID_LOG_R)
    for deg in GRID_DEGREES:
        f = trigpoly.TrigPolynomial(_spectrum(rng, deg, GRID_TERMS))
        data = {"f": f}
        jobs.append(Job(f"lq4_deg{deg}", "lq4", lambda f=f: trigpoly.lq_function_norm(f, 4.0), data))
        jobs.append(Job(f"lq3.3_deg{deg}", "lq", lambda f=f: trigpoly.lq_function_norm(f, 3.3), dict(data, q=3.3)))
        # a fixed grid: the adaptive doubling count depends on the spectrum,
        # and E10's psi_set_norm already runs the adaptive path on fixed sets
        M = 2 * trigpoly.default_grid_size(deg)
        jobs.append(
            Job(
                f"luxemburg_log_deg{deg}",
                "luxemburg",
                lambda f=f, M=M: orlicz.luxemburg_norm(f, log_phi, M),
                dict(data, phi=log_phi),
            )
        )
        jobs.append(
            Job(
                f"log_functional_deg{deg}",
                "log_functional",
                lambda f=f: orlicz.log_type_functional(f, GRID_P_CONJ),
                dict(data, p_conj=GRID_P_CONJ),
            )
        )
    return jobs


_JOB_LISTS = {"lacunary": lacunary_jobs, "dense": dense_jobs, "qi": qi_jobs, "grid": grid_jobs}


def build_jobs(workload: str, seed: int) -> list:
    return _JOB_LISTS[workload](int(seed))


def warm_up(workload: str) -> None:
    """One tiny call into each layer the workload uses."""
    if workload in ("lacunary", "dense"):
        f = trigpoly.TrigPolynomial({1: 1.0, 3: 1.0})
        stable_norm.estimate_bracket(f, thinset_lab.DriverDistribution("p_stable", p=1.5), 2)
    elif workload == "qi":
        quasi.is_quasi_independent([1, 2, 4])
        quasi.max_quasi_independent([1, 2, 3])
        quasi.partition_lemma([1, 2, 4, 8], 1.0, 0.5)
    else:
        f = trigpoly.TrigPolynomial({1: 1.0, 3: 1.0})
        trigpoly.lq_function_norm(f, 4.0)
        orlicz.luxemburg_norm(f, orlicz.OrliczFunction("log_type", 2.0))
        examples_sets.generate("powers", 64, base=2)
        examples_sets.r_alpha([1, 2], 2, 4)
        experiments.emit_report(experiments.run_experiment("E7", {"checkpoints": [10, 100, 1000, 10000]}))


def run_pass(jobs, tracer=None) -> tuple:
    """Run every job once: (wall seconds, cpu seconds, results by key, errors by key)."""
    results, errors = {}, {}
    t0, c0 = time.perf_counter(), time.process_time()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.key
        try:
            results[job.key] = job.call()
        except Exception as exc:  # a job that raises is a failed job, not a crash
            errors[job.key] = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, time.process_time() - c0, results, errors
