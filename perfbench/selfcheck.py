"""Self-check: every oracle accepts a true output and rejects a corrupted one.

Run with ``python3 perfbench/run.py --self-check``; exits 0 when each oracle
behaves, 1 otherwise.  Also checks that installing the tracing wrappers is
visible to the untraced-run guard and that ``restore`` undoes it.
"""

from __future__ import annotations

import copy

import numpy as np

import oracles
import workloads
from tracing import Tracer, traced_slots


def _jobs(workload: str, seed: int = 0) -> dict:
    return {job.key: job for job in workloads.build_jobs(workload, seed)}


def _summary(job):
    return oracles.summarize(job.kind, job.call())


def _scaled(s: dict, factor: float) -> dict:
    s = copy.deepcopy(s)
    s["value"] *= factor
    return s


def cases():
    """(name, problems found, whether problems are expected)."""
    out = []

    def case(name, problems, want_bad):
        out.append((name, problems, want_bad))

    lac = _jobs("lacunary")
    dense = _jobs("dense")
    qi = _jobs("qi")
    grid = _jobs("grid")

    # brackets: estimate invariants, sampled rows, contraction relation, reference
    job = lac["pow2_n10"]
    s = _summary(job)
    case("bracket: true estimate", oracles.check(job, s, 0), False)
    case("bracket: value outside its group means", oracles.check(job, _scaled(s, 100.0), 0), True)
    f, d, trials = job.data["f"], job.data["d"], job.data["trials"]
    rows = oracles.sampled_rows(f, d, trials)
    S = workloads.thinset_lab.sup_norm_rows(f.freqs, rows, oracles.SUP_TOL)
    rng = np.random.default_rng(0)
    case("rows: true sup norms", oracles.check_rows(f.freqs, rows, S, rng), False)
    case("rows: sup 1% low (fine grid)", oracles.check_rows(f.freqs, rows, S * 0.99, rng), True)
    case("rows: sup 1% high (fine grid)", oracles.check_rows(f.freqs, rows, S * 1.01, rng), True)
    hi = lac["pow2_n13"]
    f, d, trials = hi.data["f"], hi.data["d"], hi.data["trials"]
    rows = oracles.sampled_rows(f, d, trials)
    S = workloads.thinset_lab.sup_norm_rows(f.freqs, rows, oracles.SUP_TOL)
    case("rows: degree 2^13, true sup norms", oracles.check_rows(f.freqs, rows, S, rng), False)
    case("rows: degree 2^13, sup halved (random points)", oracles.check_rows(f.freqs, rows, S * 0.5, rng), True)
    pair = [dense["e4_base"], dense["e4_half"]]
    sums = {j.key: _summary(j) for j in pair}
    case("contraction: true pair", oracles.check_jobs(pair, sums, 0)["e4_half"], False)
    sums["e4_half"] = _scaled(sums["e4_half"], 1.001)
    case("contraction: half off by 1e-3", oracles.check_jobs(pair, sums, 0)["e4_half"], True)
    case("bracket reference: same value", oracles.compare_reference(job, s, s), False)
    case("bracket reference: tenfold value", oracles.compare_reference(job, _scaled(s, 10.0), s), True)

    # quasi-independence
    job = qi["check_size24"]
    s = _summary(job)
    case("check: true answer", oracles.check(job, s, 0), False)
    bad = copy.deepcopy(s)
    i = next(k for k, x in enumerate(bad["witness"]) if x)
    bad["witness"][i] = -bad["witness"][i]
    case("check: witness with one sign flipped", oracles.check(job, bad, 0), True)
    case("check reference: flipped answer", oracles.compare_reference(job, dict(s, qi=not s["qi"], witness=None), s), True)
    job = qi["search_2_size16"]
    s = _summary(job)
    case("search: true witness", oracles.check(job, s, 0), False)
    extra = next(g for g in job.data["A"] if g not in s["witness"])
    bigger = dict(s, q=s["q"] + 1, witness=sorted(s["witness"] + [extra]))
    case("search: witness grown past the maximum", oracles.check(job, bigger, 0), True)
    job = qi["partition_pow2_16"]
    s = _summary(job)
    case("partition: true result", oracles.check(job, s, 0), False)
    bad = copy.deepcopy(s)
    bad["subsets"][1] = sorted(bad["subsets"][1][1:] + [bad["subsets"][0][0]])
    case("partition: subsets overlap", oracles.check(job, bad, 0), True)
    bad = copy.deepcopy(s)
    bad["covered"] -= len(bad["subsets"].pop())
    bad["modes"].pop()
    case("partition: coverage below |A|/2", oracles.check(job, bad, 0), True)

    # grid
    job = grid["report_E7"]
    s = _summary(job)
    case("report reference: same bytes", oracles.compare_reference(job, s, s), False)
    case("report reference: one byte changed", oracles.compare_reference(job, dict(s, sha256="0" + s["sha256"][1:]), s), True)
    for key, factor in (("lq4_deg4095", 1 + 1e-6), ("lq3.3_deg4095", 1 + 1e-5), ("luxemburg_log_deg4095", 1.001), ("log_functional_deg4095", 1.001)):
        job = grid[key]
        s = _summary(job)
        case(f"{job.kind}: true value", oracles.check(job, s, 0), False)
        case(f"{job.kind}: value times {factor}", oracles.check(job, s * factor, 0), True)

    # tracing guard
    tracer = Tracer()
    tracer.install()
    try:
        case("tracing: untraced-run guard while wrappers are installed", traced_slots(), True)
    finally:
        tracer.restore()
    case("tracing: untraced-run guard after restore", traced_slots(), False)
    return out


def main() -> int:
    failures = 0
    for name, problems, want_bad in cases():
        ok = bool(problems) == want_bad
        failures += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({problems[0]})" if problems and not want_bad else ""))
    print(f"self-check: {failures} unexpected verdict(s)")
    return 1 if failures else 0
