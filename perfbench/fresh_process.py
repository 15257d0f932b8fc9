"""One fresh workload process: set-up, a cold pass, then warm passes.

    python3 perfbench/fresh_process.py <workload> <seed> <warm passes>

Imports thinset_lab, makes one tiny call per layer the workload uses and
prints "ready"; run.py takes process start to that line as one setup_s
sample.  With 0 warm passes it stops there.  Otherwise it builds the jobs,
checks before each pass that no tracing wrapper is installed, runs them
once cold and then <warm passes> times more, and prints one JSON
line: pass wall times, ru_maxrss, job errors per pass, the first pass's
output summaries and the keys whose output changed in a later pass.
"""

import json
import resource
import sys

import oracles
import tracing
import workloads

workload, seed, warm = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workloads.warm_up(workload)
print("ready", flush=True)
if warm:
    jobs = workloads.build_jobs(workload, seed)
    walls, errors, first, changed = [], [], None, set()
    for _ in range(1 + warm):
        if tracing.traced_slots():
            raise SystemExit(f"untraced run found tracing wrappers in {tracing.traced_slots()}")
        wall, _, results, errs = workloads.run_pass(jobs)
        summaries = oracles.summarize_all(jobs, results)
        walls.append(wall)
        errors.append(errs)
        first = first if first is not None else summaries
        changed |= {k for k, v in summaries.items() if first.get(k, v) != v}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"walls": walls, "rss_mb": rss_mb, "errors": errors, "summaries": first, "changed": sorted(changed)}
    print(json.dumps(out), flush=True)
