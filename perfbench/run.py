#!/usr/bin/env python3
"""thinset-lab benchmark.

    python3 perfbench/run.py --workload {lacunary,dense,qi,grid,all} --seed N
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --write-references

Each workload is a closed loop of library calls ("jobs") from one driver
thread.  --trace 0 reports the end-to-end metrics (setup_s, cold_s, wall_s,
peak_rss_mb, ok_frac) with tracing off, as medians over fresh workload
processes; --trace 1 reports per-layer metrics from passes run in this
process with tracing wrappers installed, alternating with untraced passes
to measure the tracing overhead.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
OUT_DIR = HERE.parent / ".perfbench_out"
REFERENCE_SEEDS = range(16)  # keep the --write-references help in step
MIN_FRESH_PROCESSES = 5
WARM_PASSES_PER_PROCESS = 2
SETUP_ONLY_PER_PROCESS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio"}


def cap_threads() -> dict:
    """Cap BLAS/OpenMP threads at the CPU count; must run before numpy loads."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= ncpu):
            os.environ[var] = str(ncpu)
    return {"cpus": ncpu, **{var: int(os.environ[var]) for var in THREAD_VARS}}


def environment(caps: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "thread_caps": caps,
    }


def fresh_process(workload: str, seed: int, warm: int) -> tuple:
    """(setup seconds, pass record or None) from one fresh workload process."""
    cmd = [sys.executable, str(HERE / "fresh_process.py"), workload, str(seed), str(warm)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline().strip()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read().strip()
        code = proc.wait()
    if ready != "ready" or code != 0 or bool(rest) != bool(warm):
        raise SystemExit(f"perfbench: fresh {workload} process failed (exit {code})")
    return setup, json.loads(rest) if warm else None


def verify(workload: str, seed: int, jobs: list, runs: list) -> tuple:
    """(attempted, failed, problems) over every job run in every pass of runs.

    A run record holds per-pass job errors, its first pass's output summaries
    and the keys whose output changed in a later pass.  The first run's
    outputs go through the oracles and the stored references; every other
    pass must reproduce them exactly.
    """
    import oracles

    first = runs[0]["summaries"]
    refs = load_references().get(workload, {}).get(str(seed), {})
    checked = [j for j in jobs if j.key in first]
    bad_outputs = oracles.check_jobs(checked, first, seed)
    for job in checked:
        if job.key in refs:
            bad_outputs[job.key] += oracles.compare_reference(job, first[job.key], refs[job.key])
    attempted, failed, problems = 0, 0, []
    for r, run in enumerate(runs):
        for i, errors in enumerate(run["errors"]):
            for job in jobs:
                attempted += 1
                if job.key in errors:
                    msg = [errors[job.key]]
                elif job.key not in first or job.key not in run["summaries"]:
                    msg = ["raised in another pass"]
                elif run["summaries"][job.key] != first[job.key] or job.key in run["changed"]:
                    msg = ["output differs from the first pass"]
                else:
                    msg = bad_outputs[job.key]
                if msg:
                    failed += 1
                    problems += [f"run {r} pass {i} {job.key}: {m}" for m in msg]
    return attempted, failed, problems


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    with open(REFERENCES) as fh:
        return json.load(fh)


def quartiles(xs: list) -> tuple:
    q = statistics.quantiles(xs, n=4)
    return (q[0], q[2])


def measure(workload: str, seed: int, seconds: float, env: dict) -> tuple:
    """End-to-end run with tracing off, in fresh processes until `seconds` pass."""
    import workloads

    jobs = workloads.build_jobs(workload, seed)
    setups, runs = [], []
    start = time.perf_counter()
    while len(runs) < MIN_FRESH_PROCESSES or time.perf_counter() - start < seconds:
        setup, run = fresh_process(workload, seed, WARM_PASSES_PER_PROCESS)
        setups.append(setup)
        runs.append(run)
        # set-up samples spread over the run, so a slow spell of the host
        # weighs on them no more than on the passes
        setups += [fresh_process(workload, seed, 0)[0] for _ in range(SETUP_ONLY_PER_PROCESS)]
    attempted, failed, problems = verify(workload, seed, jobs, runs)
    colds = [run["walls"][0] for run in runs]
    warm = [w for run in runs for w in run["walls"][1:]]
    rss = [run["rss_mb"] for run in runs]
    samples = {"setup_s": setups, "cold_s": colds, "wall_s": warm, "peak_rss_mb": rss}
    metrics = {name: statistics.median(xs) for name, xs in samples.items()}
    metrics["ok_frac"] = 1.0 - failed / attempted
    print(f"workload {workload} seed {seed}: {len(jobs)} jobs per pass, {len(runs)} fresh processes")
    for name, value in metrics.items():
        note = ""
        if name in samples:
            q1, q3 = quartiles(samples[name])
            note = f"median of {len(samples[name])}; q1 {q1:.4g}, q3 {q3:.4g}"
        print(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]:<6} {note}")
    print(f"  {'fail_frac':<12} {failed / attempted:12.6g} {'ratio':<6} {failed} of {attempted} job runs raised or failed a check")
    print("info " + json.dumps({"workload": workload, "seed": seed, "env": env, "samples": samples}))
    return attempted, failed, problems, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def measure_traced(workload: str, seed: int, seconds: float, env: dict) -> tuple:
    """Per-layer run: after a cold pass, traced and untraced passes alternate."""
    import oracles
    import workloads
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, median_metrics, traced_slots

    jobs = workloads.build_jobs(workload, seed)
    tracer = Tracer()
    passes, per_pass, bounds = [], [], []

    def run_pass(traced: bool) -> None:
        if traced:
            first, hits = len(tracer.spans), tracer.limit_hits
            tracer.install()
            try:
                wall, cpu, results, errors = workloads.run_pass(jobs, tracer)
            finally:
                tracer.restore()
            bounds.append((first, len(tracer.spans)))
            per_pass.append(layer_metrics(tracer.spans, first, wall, tracer.limit_hits - hits))
        else:
            if traced_slots():
                raise RuntimeError(f"untraced pass found tracing wrappers in {traced_slots()}")
            wall, cpu, results, errors = workloads.run_pass(jobs)
        summaries = oracles.summarize_all(jobs, results)
        passes.append({"wall": wall, "cpu": cpu, "traced": traced, "summaries": summaries, "errors": errors})

    run_pass(False)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(per_pass) < 2 or len(passes) - 1 - len(per_pass) < 1:
        run_pass(len(passes) % 2 == 1)
    first = passes[0]["summaries"]
    changed = {k for p in passes for k, v in p["summaries"].items() if first.get(k, v) != v}
    record = {"errors": [p["errors"] for p in passes], "summaries": first, "changed": sorted(changed)}
    attempted, failed, problems = verify(workload, seed, jobs, [record])
    metrics = median_metrics(per_pass)
    traced = [p for p in passes[1:] if p["traced"]]
    untraced = [p for p in passes[1:] if not p["traced"]]
    metrics["bench.cpu_s"] = statistics.median(p["cpu"] for p in untraced)
    metrics["bench.trace_overhead"] = statistics.median(p["wall"] for p in traced) / statistics.median(
        p["wall"] for p in untraced
    )

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    meta = {"workload": workload, "seed": seed, "env": env, "traced_passes": bounds, "metrics": metrics}
    tracer.dump(trace_path, meta)
    print(f"workload {workload} seed {seed}: {len(traced)} traced + {len(untraced)} untraced warm passes")
    for name in PER_LAYER_UNITS:
        print(f"  {name:<32} {metrics[name]:14.6g} {PER_LAYER_UNITS[name]}")
    print("info " + json.dumps({"workload": workload, "seed": seed, "env": env, "spans": str(trace_path)}))
    return attempted, failed, problems, {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def run_all(args) -> int:
    """Each workload in its own fresh process, then one summary line."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(summary))
    return 0


def write_references() -> int:
    """Store one pass's outputs per workload for REFERENCE_SEEDS."""
    import oracles
    import workloads

    keep = {"bracket": ("value", "spread", "trials", "groups"), "search": ("q", "witness", "exact")}
    refs: dict = {}
    for w in workloads.WORKLOADS:
        refs[w] = {}
        for seed in REFERENCE_SEEDS:
            jobs = workloads.build_jobs(w, seed)
            _, _, results, errors = workloads.run_pass(jobs)
            summaries = oracles.summarize_all(jobs, results)
            bad = {k: v for k, v in oracles.check_jobs(jobs, summaries, seed).items() if v} if not errors else {}
            if errors or bad:
                print(f"{w} seed {seed}: not storing failing outputs {errors} {bad}", file=sys.stderr)
                return 1
            refs[w][str(seed)] = {
                j.key: {f: summaries[j.key][f] for f in keep[j.kind]} if j.kind in keep else summaries[j.key]
                for j in jobs
            }
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("lacunary", "dense", "qi", "grid", "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time; at least 5 fresh processes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="show that every oracle rejects corrupted outputs")
    parser.add_argument("--write-references", action="store_true", help="store outputs for seeds 0-15")
    args = parser.parse_args(argv)
    caps = cap_threads()
    import workloads  # noqa: F401  (fails here when the library sources are missing)

    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if args.write_references:
        return write_references()
    if args.workload == "all":
        return run_all(args)
    env = environment(caps)
    measure_fn = measure_traced if args.trace else measure
    attempted, failed, problems, metrics = measure_fn(args.workload, args.seed, args.seconds, env)
    for line in problems[:50]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
