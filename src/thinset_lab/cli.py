"""Command-line interface.

Subcommands mirror the library surface: ``exponents`` for the exponent
algebra, ``norm`` for polynomial norms (certified sup, coefficient and
Lorentz norms, grid L^q, Orlicz, Monte Carlo stable), ``qis`` for
quasi-independence checks, maxima, and partitions, ``sets`` for example
set generation and counting statistics, and ``run`` for the named
experiments E1..E11.

Polynomials are read as JSON lists of [frequency, re, im] triples;
frequency sets as JSON integer lists; both from a file argument or
standard input.  Config files for ``run`` are INI: a [common] section and
one section per experiment, values written as JSON fragments.  Precedence:
CLI flags over config file over THINSET_LAB_SEED over the default 0.
``run`` exits 0 iff every check passed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict

from .errors import DomainError, ExtractionError, FitError, InfeasibleError, ResourceLimitError
from .examples_sets import GENERATOR_KINDS, fit_mesh_exponent, generate, mesh_counts, r_alpha
from .exponents import derive_exponents, orlicz_params
from .experiments import EXPERIMENT_IDS, emit_report, run_experiment
from .orlicz import OrliczFunction, log_type_functional, luxemburg_norm
from .quasi import DEFAULT_BUDGET, as_freqset, is_quasi_independent, max_quasi_independent, partition_lemma
from .sampler import DRIVER_KINDS, DriverDistribution, resolve_seed
from .stable_norm import estimate_bracket
from .trigpoly import TrigPolynomial, fq_norm, lorentz_norms, lq_function_norm, sup_norm

__all__ = ["main"]


def _read_text(path: str | None) -> str:
    try:
        if path is None:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"cannot read {path or 'stdin'} as UTF-8: {exc.reason}") from exc


def _load_json(path: str | None):
    """The JSON value in the file at path, or on stdin for None or "-"."""
    if path == "-":
        path = None
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"{path or 'stdin'} is not valid JSON: {exc}") from exc


def _load_intset(path: str | None) -> tuple:
    obj = _load_json(path)
    if not isinstance(obj, list):
        raise DomainError("expected a JSON list of integers")
    return as_freqset(obj)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_config(path: str | None, exp_id: str) -> dict:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    merged: dict = {}
    try:
        parser.read_string(_read_text(path), source=path)
        for section in ("common", exp_id):
            if parser.has_section(section):
                merged.update(parser.items(section))
    except configparser.Error as exc:
        raise DomainError(" ".join(str(exc).split())) from exc
    return merged


def _file_verb(sub, name: str, help: str) -> argparse.ArgumentParser:
    verb = sub.add_parser(name, help=help)
    verb.add_argument("file", nargs="?")
    return verb


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="thinset-lab")
    sub = top.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="exponent algebra for a (p, q) pair")
    p_exp.add_argument("--p", type=float, required=True)
    p_exp.add_argument("--q", type=float, required=True)
    p_exp.add_argument("--r", type=float, help="also derive Orlicz parameters at this r")

    p_norm = sub.add_parser("norm", help="norms of a JSON polynomial")
    norm_sub = p_norm.add_subparsers(dest="norm_kind", required=True)

    n_sup = _file_verb(norm_sub, "sup", "certified sup norm")
    n_sup.add_argument("--rel-tol", type=float, default=1e-9)

    n_fq = _file_verb(norm_sub, "fq", "coefficient l_q norm")
    n_fq.add_argument("--q", type=float, required=True)

    n_lor = _file_verb(norm_sub, "lorentz", "Lorentz coefficient norms")
    n_lor.add_argument("--q", type=float, required=True)

    n_lq = _file_verb(norm_sub, "lq", "grid L^q function norm")
    n_lq.add_argument("--q", type=float, required=True)
    n_lq.add_argument("--grid", type=int)

    n_orl = _file_verb(norm_sub, "orlicz", "Luxemburg norm")
    n_orl.add_argument("--family", choices=["psi", "phi"], required=True)
    n_orl.add_argument("--r", type=float, required=True)
    n_orl.add_argument("--grid", type=int)
    n_orl.add_argument(
        "--functional",
        action="store_true",
        help="phi family: the explicit integral functional instead of the gauge norm",
    )

    n_st = _file_verb(norm_sub, "stable", "Monte Carlo randomized sup norm")
    n_st.add_argument("--p", type=float)
    n_st.add_argument("--trials", type=int, required=True)
    n_st.add_argument("--groups", type=int)
    n_st.add_argument("--kind", choices=DRIVER_KINDS, default="p_stable")
    n_st.add_argument("--seed", type=int)
    n_st.add_argument("--stream-id", type=int, default=0)

    p_qis = sub.add_parser("qis", help="quasi-independence tools on a JSON integer list")
    qis_sub = p_qis.add_subparsers(dest="qis_kind", required=True)

    _file_verb(qis_sub, "check", "test quasi-independence, with witness")

    q_max = _file_verb(qis_sub, "max", "largest quasi-independent subset")
    q_max.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    q_part = _file_verb(qis_sub, "partition", "disjoint quasi-independent subsets")
    q_part.add_argument("--c", type=float, required=True)
    q_part.add_argument("--epsilon", type=float, required=True)
    q_part.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p_sets = sub.add_parser("sets", help="example frequency sets and statistics")
    sets_sub = p_sets.add_subparsers(dest="sets_kind", required=True)

    s_gen = sets_sub.add_parser("generate", help="generate a named family")
    s_gen.add_argument("--kind", choices=list(GENERATOR_KINDS), required=True)
    s_gen.add_argument("--limit", type=int, required=True)
    s_gen.add_argument("--base", type=int)
    s_gen.add_argument("--d", type=int)
    s_gen.add_argument("--density", type=float)
    s_gen.add_argument("--seed", type=int)

    s_mesh = _file_verb(sets_sub, "mesh", "counts below checkpoints, optional growth fit")
    s_mesh.add_argument("--checkpoints", required=True, help="comma-separated increasing integers")
    s_mesh.add_argument("--fit", choices=["power_log", "polylog"])

    s_ra = _file_verb(sets_sub, "ralpha", "representation counts of alpha-fold sums")
    s_ra.add_argument("--alpha", type=int, required=True)
    s_ra.add_argument("--n", type=int, required=True)

    p_run = sub.add_parser("run", help="run a named experiment")
    p_run.add_argument("experiment", choices=list(EXPERIMENT_IDS))
    p_run.add_argument("--config", help="INI file with [common] and per-experiment sections")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help="write the report here instead of stdout")
    p_run.add_argument("--format", choices=["json", "csv"], default="json")
    p_run.add_argument("--meta", action="store_true", help="include wall-clock metadata")

    return top


def _cmd_exponents(args) -> int:
    table = derive_exponents(args.p, args.q)
    obj = asdict(table)
    if args.r is not None:
        params = orlicz_params(table.s, args.r)
        obj["orlicz"] = dict(asdict(params), p_tilde_conj=params.p_tilde_conj)
    _emit(obj)
    return 0


def _cmd_norm(args) -> int:
    f = TrigPolynomial.from_json_obj(_load_json(args.file))
    if args.norm_kind == "sup":
        _emit({"sup_norm": sup_norm(f, rel_tol=args.rel_tol), "rel_tol": args.rel_tol})
    elif args.norm_kind == "fq":
        _emit({"q": args.q, "fq_norm": fq_norm(f, args.q)})
    elif args.norm_kind == "lorentz":
        l_q1, l_qinf = lorentz_norms(f, args.q)
        _emit({"q": args.q, "l_q1": l_q1, "l_qinf": l_qinf})
    elif args.norm_kind == "lq":
        _emit({"q": args.q, "lq_function_norm": lq_function_norm(f, args.q, M=args.grid)})
    elif args.norm_kind == "orlicz":
        family = "exp_type" if args.family == "psi" else "log_type"
        if args.functional:
            if args.family != "phi":
                raise DomainError("--functional applies to the phi family only")
            value = log_type_functional(f, args.r, M=args.grid)
            _emit({"family": args.family, "r": args.r, "log_type_functional": value})
        else:
            value = luxemburg_norm(f, OrliczFunction(family, args.r), M=args.grid)
            _emit({"family": args.family, "r": args.r, "luxemburg_norm": value})
    elif args.norm_kind == "stable":
        if args.kind == "p_stable" and args.p is None:
            raise DomainError("norm stable --kind p_stable needs --p")
        d = DriverDistribution(
            args.kind,
            p=args.p if args.kind == "p_stable" else None,
            seed=resolve_seed(args.seed),
            stream_id=args.stream_id,
        )
        _emit(asdict(estimate_bracket(f, d, args.trials, groups=args.groups)))
    return 0


def _cmd_qis(args) -> int:
    A = _load_intset(args.file)
    if args.qis_kind == "check":
        ok, witness = is_quasi_independent(A)
        _emit({"quasi_independent": ok, "witness": witness})
    elif args.qis_kind == "max":
        _emit(asdict(max_quasi_independent(A, budget=args.budget)))
    elif args.qis_kind == "partition":
        _emit(asdict(partition_lemma(A, args.c, args.epsilon, budget=args.budget)))
    return 0


def _cmd_sets(args) -> int:
    if args.sets_kind == "generate":
        out = generate(
            args.kind,
            args.limit,
            base=args.base,
            d=args.d,
            density=args.density,
            seed=args.seed,
        )
        _emit({"kind": args.kind, "limit": args.limit, "elements": list(out)})
    elif args.sets_kind == "mesh":
        A = _load_intset(args.file)
        try:
            pts = [int(x) for x in args.checkpoints.split(",")]
        except ValueError:
            raise DomainError(f"--checkpoints wants comma-separated integers, got {args.checkpoints!r}") from None
        counts = mesh_counts(A, pts)
        obj = {"checkpoints": pts, "counts": counts}
        if args.fit:
            exponent, residual = fit_mesh_exponent(counts, pts, args.fit)
            obj["fit"] = {"model": args.fit, "exponent": exponent, "rms_residual": residual}
        _emit(obj)
    elif args.sets_kind == "ralpha":
        A = _load_intset(args.file)
        _emit(asdict(r_alpha(A, args.alpha, args.n)))
    return 0


def _cmd_run(args) -> int:
    overrides = _load_config(args.config, args.experiment)
    if args.seed is not None:
        overrides["seed"] = args.seed
    elif "seed" not in overrides:
        overrides["seed"] = resolve_seed(None)
    report = run_experiment(args.experiment, overrides)
    payload = emit_report(report, fmt=args.format, include_meta=args.meta)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(payload.decode())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "exponents": _cmd_exponents,
        "norm": _cmd_norm,
        "qis": _cmd_qis,
        "sets": _cmd_sets,
        "run": _cmd_run,
    }
    try:
        return handlers[args.command](args)
    except (DomainError, InfeasibleError, ResourceLimitError, ExtractionError, FitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
