"""Seeded CLI fuzz: hostile argv and stdin for every verb, run in process.

Values come from a hostile pool (zeros, the smallest subnormal, 1e+-300,
1e308, nan, inf, 2^63, 10^20 and frequencies near +-2^61) mixed with a few
ordinary ones, so that some cases get past the input checks; ``qis check``
also draws sets of 41 to 61 members, which only the byte cap bounds.  Every
case must exit 0 or 2 (``run`` may also exit 1, a failed check) within
SECONDS_PER_CASE, raise no warning, report an exit 2 with exactly one
``error:`` line on stderr, and on exit 0 print JSON whose computed values
are all finite; an option's echoed value, such as ``"q": Infinity`` under
``--q inf``, and the conjugate of an exponent 1 may be infinite.
"""

import io
import json
import math
import random
import sys
import time
import warnings

import pytest

from thinset_lab import DRIVER_KINDS, GENERATOR_KINDS, default_config
from thinset_lab.cli import main

HOSTILE_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1e300, 1e308, -1e308, math.nan, math.inf, -math.inf, 2.0**63, 1e20]
HOSTILE_INTS = [0, -1, 2**63, 10**20, 2**61 - 1, -(2**61), 2**61 + 3]
PLAIN_FLOATS = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, -1.0]
PLAIN_INTS = [1, 2, 3, 5, 8, 64, 4095]
# conjugate exponents, which are infinite at an exponent of 1, as documented
CONJUGATES = {"p_conj", "q_conj", "p_tilde_conj"}
# reports that run in milliseconds at their default config
FAST_RUNS = ("E7", "E11")
# chance that a drawn value comes from the hostile pool rather than the plain one
HOSTILE_SHARE = 0.4
VERBS = ["exponents", "sup", "fq", "lorentz", "lq", "orlicz", "stable", "qis", "generate", "mesh", "ralpha", "run"]
CASES_PER_SEED = 200
SECONDS_PER_CASE = 5.0


def _float(rng):
    return rng.choice(HOSTILE_FLOATS if rng.random() < HOSTILE_SHARE else PLAIN_FLOATS)


def _int(rng):
    return rng.choice(HOSTILE_INTS if rng.random() < HOSTILE_SHARE else PLAIN_INTS)


def _poly(rng):
    """Up to four terms; half the polynomials repeat one coefficient, so that huge terms add up."""
    shared = [_float(rng), _float(rng)] if rng.random() < 0.5 else None
    terms = {_int(rng): shared or [_float(rng), _float(rng)] for _ in range(rng.randint(0, 4))}
    return json.dumps([[g, re, im] for g, (re, im) in terms.items()])


def _intset(rng):
    return json.dumps(sorted({_int(rng) for _ in range(rng.randint(0, 6))}))


def _wide_intset(rng):
    """41 to 61 members: a run from a drawn start, powers of 2, or random members below 2^56."""
    n = rng.randint(41, 61)
    # a run answers at once, and the other kinds spend 0.2-0.6 s in the
    # checker, so runs are drawn half the time
    kind = rng.choice(["run", "run", "powers", "random"])
    if kind == "run":
        start = _int(rng)
        return json.dumps(list(range(start, start + n)))
    if kind == "powers":
        return json.dumps([2**k for k in range(n)])
    return json.dumps(sorted(rng.sample(range(1, 2**56), n)))


def _opts(rng, **kinds):
    """--name=value for each option, kept with probability 1/2 unless its kind is upper case."""
    out = []
    for name, kind in kinds.items():
        if kind.islower() and rng.random() < 0.5:
            continue
        value = {"f": _float, "i": _int}[kind.lower()](rng)
        out.append(f"--{name.replace('_', '-')}={value!r}")
    return out


def _case(rng, tmp_path):
    """(argv, stdin) of one random command."""
    verb = rng.choice(VERBS)
    if verb == "exponents":
        return ["exponents", *_opts(rng, p="F", q="F", r="f")], ""
    if verb in ("sup", "fq", "lorentz", "lq"):
        opts = {"sup": dict(rel_tol="f"), "lq": dict(q="F", grid="i")}.get(verb, dict(q="F"))
        return ["norm", verb, "-", *_opts(rng, **opts)], _poly(rng)
    if verb == "orlicz":
        family = rng.choice(["psi", "phi"])
        flags = ["--functional"] * (family == "phi" and rng.random() < 0.5)
        return ["norm", "orlicz", "-", f"--family={family}", *_opts(rng, r="F", grid="i"), *flags], _poly(rng)
    if verb == "stable":
        opts = _opts(rng, p="F", trials="I", groups="i", seed="i", stream_id="i")
        return ["norm", "stable", "-", f"--kind={rng.choice(DRIVER_KINDS)}", *opts], _poly(rng)
    if verb == "qis":
        kind = rng.choice(["check", "max", "partition"])
        opts = {"check": {}, "max": dict(budget="i"), "partition": dict(c="F", epsilon="F", budget="i")}[kind]
        # a third of the checks take a wide set, which keeps the fuzz near
        # 4 s; only checks do, as a search on 45 powers of 2 takes about 9 s,
        # over SECONDS_PER_CASE
        members = _wide_intset(rng) if kind == "check" and rng.random() < 1 / 3 else _intset(rng)
        return ["qis", kind, "-", *_opts(rng, **opts)], members
    if verb == "generate":
        opts = _opts(rng, limit="I", base="i", d="i", density="f", seed="i")
        return ["sets", "generate", f"--kind={rng.choice(GENERATOR_KINDS)}", *opts], ""
    if verb == "mesh":
        points = ",".join(str(_int(rng)) for _ in range(rng.randint(1, 4)))
        fit = [f"--fit={rng.choice(['power_log', 'polylog'])}"] * (rng.random() < 0.5)
        return ["sets", "mesh", "-", f"--checkpoints={points}", *fit], _intset(rng)
    if verb == "ralpha":
        return ["sets", "ralpha", "-", *_opts(rng, alpha="I", n="I")], _intset(rng)
    exp_id = rng.choice(FAST_RUNS)
    key = rng.choice(list(default_config(exp_id)))
    value = rng.choice([_float(rng), _int(rng), [_int(rng)], [_float(rng)]])
    cfg = tmp_path / f"{exp_id}.ini"
    cfg.write_text(f"[{exp_id}]\n{key} = {json.dumps(value)}\n")
    return ["run", exp_id, "--config", str(cfg)], ""


def _non_finite(obj, echoed, key=None):
    """Paths to the non-finite numbers of a JSON value, skipping echoed options."""
    if key in echoed:
        return []
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, echoed, k)]
    if isinstance(obj, list):
        return [p for v in obj for p in _non_finite(v, echoed, key)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [key]
    return []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_fuzz_exits_0_or_2_without_warnings(capsys, monkeypatch, tmp_path, seed):
    monkeypatch.delenv("THINSET_LAB_SEED", raising=False)
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        argv, stdin = _case(rng, tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        case = (argv, stdin, code, err)
        assert not caught, (case, [str(w.message) for w in caught])
        assert elapsed < SECONDS_PER_CASE, (case, elapsed)
        assert code in ((0, 1, 2) if argv[0] == "run" else (0, 2)), case
        if code == 2:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, case
            continue
        echoed = {a[2:].split("=")[0].replace("-", "_") for a in argv if a.startswith("--")}
        assert _non_finite(json.loads(out), echoed | CONJUGATES) == [], case
