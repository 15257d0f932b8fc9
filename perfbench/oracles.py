"""Correctness oracles for benchmark outputs.

Each job's output is reduced to a JSON-able summary, and ``check`` returns
the list of problems found with it (empty when the output is correct):

* bracket: the estimate's own invariants; on two re-sampled trial rows, the
  certified sup S must satisfy S*(1+1e-3) >= |f(t)| at random t evaluated
  directly, and for degree <= 2^12 S must lie in the two-sided bracket a fine
  direct grid gives; an E4 "half" contraction must halve the base estimate.
* check: a False answer needs a nonzero {-1,0,1} witness with zero sum.
* search: the witness is a subset of A and quasi-independent (brute force).
* partition: E8's postconditions (window sizes, disjointness, coverage).
* lq4 is exact from the coefficients; lq, luxemburg and log_functional are
  checked against an independent finer direct grid.

Against a stored reference, bracket values may differ within their Monte
Carlo spread; quasi answers and report bytes must be identical.
"""

from __future__ import annotations

import hashlib
import math
import zlib

import numpy as np

from workloads import thinset_lab

SUP_TOL = thinset_lab.SUP_REL_TOL
FINE_GRID_MAX_DEGREE = 1 << 12
RANDOM_POINTS = 256
# A bracket value may differ from its reference by MC_SPREADS spreads (IQR
# of group means) plus MC_REL * value * trials^(-1/3), the scale at which a
# mean of p=1.5 stable draws fluctuates.  With few trials the IQR of two or
# three group means can be tiny by chance, hence the second term.  Re-running
# lacunary and dense on other stream keys for seeds 0-15 (400 estimates, a
# stand-in for a declared stream change) gave no failure from MC_REL = 1.0.
MC_SPREADS = 4.0
MC_REL = 2.0
# quadrature against a grid twice as fine: about 30x the largest gap seen
# over seeds 0-15 (3e-9, 3.5e-7 and 2e-6 respectively)
LQ_TOL = 1e-7
LUXEMBURG_TOL = 1e-5
LOG_FUNCTIONAL_TOL = 5e-5


def summarize(kind: str, out) -> object:
    if kind == "bracket":
        return {
            "value": out.value,
            "spread": out.spread,
            "trials": out.trials,
            "groups": out.groups,
            "group_means": list(out.group_means),
        }
    if kind == "check":
        ok, theta = out
        return {"qi": bool(ok), "witness": None if theta is None else [int(x) for x in theta]}
    if kind == "search":
        return {"q": out.q_value, "witness": list(out.witness), "exact": out.exact, "nodes": out.nodes_explored}
    if kind == "partition":
        return out.to_json_obj()
    if kind == "report":
        rep, js, csv = out
        return {"sha256": hashlib.sha256(js + b"\0" + csv).hexdigest(), "checks_failed": sum(not c.passed for c in rep.checks)}
    return float(out)


def summarize_all(jobs, results: dict) -> dict:
    """Summaries by job key, for the jobs that returned."""
    return {job.key: summarize(job.kind, results[job.key]) for job in jobs if job.key in results}


# --- independent evaluation --------------------------------------------------


def direct_values(freqs, rows, t) -> np.ndarray:
    """f_row(t) for every row and point, summed termwise in chunks."""
    freqs = np.asarray(freqs, dtype=np.float64)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.complex128))
    out = np.empty((rows.shape[0], t.size), dtype=np.complex128)
    chunk = max(1, (1 << 20) // max(1, freqs.size))
    for lo in range(0, t.size, chunk):
        ph = np.exp(1j * np.outer(t[lo : lo + chunk], freqs))
        out[:, lo : lo + chunk] = rows @ ph.T
    return out


def fine_grid(deg: int, per_degree: int) -> np.ndarray:
    M = 1 << (per_degree * (deg + 1) - 1).bit_length()
    return 2.0 * np.pi * np.arange(M) / M


def _rng(key: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(key.encode()), int(seed)])


def sampled_rows(f, d, trials: int) -> np.ndarray:
    """The first and last trial rows the estimate was built from."""
    idx = sorted({0, trials - 1})
    return np.array([thinset_lab.sample_driver(d, len(f), trial_index=i) * f.coeffs for i in idx])


def check_rows(freqs, rows, S, rng) -> list:
    """S[i] is a certified sup of row i: random points below, fine grid both sides."""
    bad = []
    freqs = np.asarray(freqs)
    deg = int(max(-freqs[0], freqs[-1])) if freqs.size else 0
    mass = np.abs(rows).sum(axis=1)
    t = rng.uniform(0.0, 2.0 * np.pi, RANDOM_POINTS)
    peak = np.abs(direct_values(freqs, rows, t)).max(axis=1)
    for i in np.nonzero(peak > S * (1 + SUP_TOL) * (1 + 1e-9) + 1e-12 * mass)[0]:
        bad.append(f"row {i}: |f(t)| = {peak[i]!r} above S(1+tol) with S = {S[i]!r}")
    if 0 < deg <= FINE_GRID_MAX_DEGREE:
        t = fine_grid(deg, 64)
        h = 2.0 * np.pi / t.size
        m = np.abs(direct_values(freqs, rows, t)).max(axis=1)
        upper = m / math.sqrt(1.0 - (deg * h) ** 2 / 2.0)
        for i in range(len(S)):
            if not (S[i] <= upper[i] * (1 + 1e-9) and S[i] * (1 + SUP_TOL) >= m[i] * (1 - 1e-9)):
                bad.append(f"row {i}: S = {S[i]!r} outside fine-grid bracket [{m[i]!r}, {upper[i]!r}]")
    return bad


def is_qi_brute(B) -> bool:
    """Quasi-independence by listing all 3^|B| signed sums."""
    sums = np.zeros(1, dtype=np.int64)
    for g in B:
        sums = np.concatenate([sums, sums + g, sums - g])
    return int(np.count_nonzero(sums == 0)) == 1


def l4_exact(f) -> float:
    """||f||_4 from the coefficients: ||f||_4^4 = sum_k |sum_{a+b=k} c_a c_b|^2."""
    conv: dict = {}
    for a, ca in zip(f.freqs.tolist(), f.coeffs.tolist()):
        for b, cb in zip(f.freqs.tolist(), f.coeffs.tolist()):
            conv[a + b] = conv.get(a + b, 0j) + ca * cb
    return sum(abs(v) ** 2 for v in conv.values()) ** 0.25


# --- per-kind invariants -----------------------------------------------------


def _check_bracket(job, s, seed) -> list:
    f, d, trials = job.data["f"], job.data["d"], job.data["trials"]
    bad = []
    gm = s["group_means"]
    if s["trials"] != trials or s["groups"] != len(gm) or s["groups"] != max(1, math.ceil(trials ** (1 / 3))):
        bad.append(f"trials/groups {s['trials']}/{s['groups']} do not match the request")
    if not all(math.isfinite(x) for x in [s["value"], s["spread"], *gm]) or s["value"] <= 0 or s["spread"] < 0:
        bad.append(f"non-finite or non-positive estimate {s['value']!r}")
    elif not min(gm) * (1 - 1e-12) <= s["value"] <= max(gm) * (1 + 1e-12):
        bad.append(f"value {s['value']!r} outside its group means")
    rows = sampled_rows(f, d, trials)
    S = thinset_lab.sup_norm_rows(f.freqs, rows, SUP_TOL)
    bad += check_rows(f.freqs, rows, S, _rng(job.key, seed))
    return bad


def _check_check(job, s, seed) -> list:
    B = job.data["B"]
    theta = s["witness"]
    if s["qi"]:
        return [] if theta is None else ["True answer carries a witness"]
    if theta is None or len(theta) != len(B) or any(x not in (-1, 0, 1) for x in theta) or not any(theta):
        return [f"False answer without a nonzero sign witness: {theta!r}"]
    total = sum(x * g for x, g in zip(theta, B))
    return [] if total == 0 else [f"witness sums to {total}, not 0"]


def _check_search(job, s, seed) -> list:
    A, w = set(job.data["A"]), s["witness"]
    if s["q"] != len(w) or len(set(w)) != len(w) or not set(w) <= A:
        return [f"witness {w} is not a {s['q']}-subset of A"]
    return [] if is_qi_brute(w) else [f"witness {w} is not quasi-independent"]


def _check_partition(job, s, seed) -> list:
    A = job.data["A"]
    hi_real = 1.0 * len(A) ** 0.5
    lo, hi = s["window"]
    bad = []
    if (lo, hi) != (hi_real / 2.0, math.floor(hi_real)):
        bad.append(f"window {s['window']} is not (c|A|^eps/2, floor(c|A|^eps))")
    if len(s["modes"]) != len(s["subsets"]) or not set(s["modes"]) <= {"exact", "budget", "greedy"}:
        bad.append(f"modes {s['modes']} do not match the subsets")
    seen: set = set()
    for B in s["subsets"]:
        if not lo <= len(B) <= hi:
            bad.append(f"subset {B} outside window")
        if seen & set(B) or not set(B) <= set(A):
            bad.append(f"subset {B} overlaps another or leaves A")
        seen |= set(B)
        if not is_qi_brute(B):
            bad.append(f"subset {B} is not quasi-independent")
    if s["covered"] != len(seen) or 2 * s["covered"] < len(A):
        bad.append(f"covered {s['covered']} of {len(A)}, subsets hold {len(seen)}")
    return bad


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _check_lq4(job, s, seed) -> list:
    exact = l4_exact(job.data["f"])
    return [] if _rel(s, exact) <= 1e-9 else [f"L4 norm {s!r}, exact {exact!r}"]


def _fine_abs(f) -> np.ndarray:
    return np.abs(direct_values(f.freqs, f.coeffs, fine_grid(f.degree, 32))[0])


def _check_lq(job, s, seed) -> list:
    q = job.data["q"]
    ref = float(np.mean(_fine_abs(job.data["f"]) ** q) ** (1 / q))
    return [] if _rel(s, ref) <= LQ_TOL else [f"L{q} norm {s!r}, fine grid {ref!r}"]


def _check_luxemburg(job, s, seed) -> list:
    a = _fine_abs(job.data["f"])
    mean = float(np.mean(job.data["phi"](a / s)))
    return [] if abs(mean - 1.0) <= LUXEMBURG_TOL else [f"mean phi(|f|/{s!r}) = {mean!r}, not 1"]


def _check_log_functional(job, s, seed) -> list:
    a = _fine_abs(job.data["f"])
    ref = float(np.mean(a * (1.0 + np.log1p(a)) ** (1.0 / job.data["p_conj"])))
    return [] if _rel(s, ref) <= LOG_FUNCTIONAL_TOL else [f"log functional {s!r}, fine grid {ref!r}"]


_CHECKS = {
    "bracket": _check_bracket,
    "check": _check_check,
    "search": _check_search,
    "partition": _check_partition,
    "report": lambda job, s, seed: [],
    "lq4": _check_lq4,
    "lq": _check_lq,
    "luxemburg": _check_luxemburg,
    "log_functional": _check_log_functional,
}


def check(job, summary, seed: int) -> list:
    return _CHECKS[job.kind](job, summary, seed)


def check_jobs(jobs, summaries: dict, seed: int) -> dict:
    """Invariant problems per job key, including relations between jobs."""
    bad = {job.key: check(job, summaries[job.key], seed) for job in jobs}
    if "e4_half" in summaries and "e4_base" in summaries:
        half, base = summaries["e4_half"]["value"], summaries["e4_base"]["value"]
        if _rel(half, 0.5 * base) > 1e-9:
            bad["e4_half"].append(f"halved coefficients give {half!r}, not half of {base!r}")
    return bad


def compare_reference(job, s, ref) -> list:
    """Differences from a stored reference output of the same seed."""
    if job.kind == "bracket":
        if s["trials"] != ref["trials"] or s["groups"] != ref["groups"]:
            return ["trials/groups differ from the reference"]
        tol = MC_SPREADS * (s["spread"] + ref["spread"]) + MC_REL * abs(ref["value"]) * s["trials"] ** (-1 / 3)
        ok = abs(s["value"] - ref["value"]) <= tol
        return [] if ok else [f"value {s['value']!r} vs reference {ref['value']!r} (tolerance {tol!r})"]
    if job.kind == "check":
        return [] if s["qi"] == ref["qi"] else [f"answer {s['qi']} vs reference {ref['qi']}"]
    if job.kind == "search":
        same = (s["q"], s["witness"], s["exact"]) == (ref["q"], ref["witness"], ref["exact"])
        return [] if same else [f"q={s['q']} {s['witness']} vs reference q={ref['q']} {ref['witness']}"]
    if job.kind in ("partition", "report"):
        return [] if s == ref else [f"{s} vs reference {ref}"]
    return [] if _rel(s, ref) <= 1e-9 else [f"{s!r} vs reference {ref!r}"]
