"""CLI surface: argument handling, JSON I/O, config precedence, exit codes."""

import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import REDUCED_CONFIGS
from thinset_lab import EXPERIMENT_IDS, default_config, errors, generate, partition_lemma
from thinset_lab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def poly_file(tmp_path):
    def write(terms, name="poly.json"):
        path = tmp_path / name
        path.write_text(json.dumps(terms))
        return str(path)

    return write


def test_exponents_table(capsys):
    obj = run_json(capsys, "exponents", "--p", "2", "--q", repr(4 / 3))
    assert obj["epsilon"] == pytest.approx(0.5, rel=1e-12)
    assert obj["alpha"] == pytest.approx(4 / 3, rel=1e-12)
    assert obj["s"] == pytest.approx(4 / 3, rel=1e-12)
    assert obj["mesh_exp"] == pytest.approx(2.0, rel=1e-12)
    assert "orlicz" not in obj


def test_exponents_with_orlicz_block(capsys):
    obj = run_json(capsys, "exponents", "--p", "2", "--q", "1.5", "--r", "2")
    assert obj["s"] == pytest.approx(1.5, rel=1e-12)
    assert obj["orlicz"]["rho"] == pytest.approx(1.0, rel=1e-12)
    assert obj["orlicz"]["p_tilde"] == pytest.approx(4 / 3, rel=1e-12)


def test_exponents_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "exponents", "--p", "1.0", "--q", "1.0")
    assert code == 2
    assert err.startswith("error:")


def test_norm_sup_from_file(capsys, poly_file):
    path = poly_file([[1, 3.0, -4.0]])
    obj = run_json(capsys, "norm", "sup", path)
    assert obj["sup_norm"] == pytest.approx(5.0, rel=1e-9)


def test_norm_sup_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps([[0, 2.0, 0.0]])))
    obj = run_json(capsys, "norm", "sup", "-")
    assert obj["sup_norm"] == pytest.approx(2.0, rel=1e-9)


def test_norm_sup_at_huge_coefficients(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[[0, 1e200, 0], [3, 1e200, 0]]"))
    assert run_json(capsys, "norm", "sup", "-")["sup_norm"] == 2e200


@pytest.mark.parametrize(
    "verb, q, scale",
    [("fq", "2", 1e200), ("lq", "3", 1e200), ("fq", "3", 1e-200), ("lq", "4", 1e-100)],
)
def test_norm_fq_lq_at_extreme_coefficients(capsys, monkeypatch, verb, q, scale):
    # powers of unscaled moduli overflow to Infinity or underflow to 0.0
    key = f"{verb}_norm" if verb == "fq" else "lq_function_norm"
    monkeypatch.setattr(sys, "stdin", io.StringIO("[[0, 1, 0], [3, 1, 0]]"))
    unit = run_json(capsys, "norm", verb, "-", "--q", q)[key]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps([[0, scale, 0], [3, scale, 0]])))
    assert run_json(capsys, "norm", verb, "-", "--q", q)[key] == pytest.approx(scale * unit, rel=1e-15)


@pytest.mark.parametrize(
    "verb, key, want, rel",
    [("fq", "fq_norm", 7.0710678118714254, 1e-15), ("lq", "lq_function_norm", 14.042768751074783, 1e-12)],
)
def test_norm_fq_lq_at_large_q(capsys, monkeypatch, verb, key, want, rel):
    # a largest modulus scaled into [1, 2) printed Infinity at q = 2000; fq's
    # value is from a 60-digit oracle, lq's lies below the sup 14.0710678...
    monkeypatch.setattr(sys, "stdin", io.StringIO("[[1, 1, 7], [2, 0, 7]]"))
    assert run_json(capsys, "norm", verb, "-", "--q", "2000")[key] == pytest.approx(want, rel=rel)


def test_norm_fq_lorentz_lq(capsys, poly_file):
    path = poly_file([[1, 1.0, 0.0], [2, 1.0, 0.0]])
    obj = run_json(capsys, "norm", "fq", path, "--q", "2")
    assert obj["fq_norm"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    obj = run_json(capsys, "norm", "lorentz", path, "--q", "1.5")
    assert obj["l_q1"] == pytest.approx(1.0 + 2.0 ** (-1.0 / 3.0), rel=1e-12)
    assert obj["l_qinf"] == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)
    obj = run_json(capsys, "norm", "lq", path, "--q", "4")
    assert obj["lq_function_norm"] == pytest.approx(6.0**0.25, rel=1e-9)


def test_norm_orlicz_families(capsys, poly_file):
    path = poly_file([[0, 2.5, 0.0]])
    obj = run_json(capsys, "norm", "orlicz", path, "--family", "psi", "--r", "2")
    assert obj["luxemburg_norm"] == pytest.approx(2.5 / math.sqrt(math.log(2.0)), rel=1e-8)
    obj = run_json(capsys, "norm", "orlicz", path, "--family", "phi", "--r", "3", "--functional")
    expected = 2.5 * (1.0 + math.log1p(2.5)) ** (1.0 / 3.0)
    assert obj["log_type_functional"] == pytest.approx(expected, rel=1e-9)
    code, _, err = run_cli(capsys, "norm", "orlicz", path, "--family", "psi", "--r", "2", "--functional")
    assert code == 2 and "phi" in err
    # just inside the exp_type rounding limit of about 2e12
    path = poly_file([[1, 1.0, 0.0], [2, 1.0, 0.0]], name="two.json")
    obj = run_json(capsys, "norm", "orlicz", path, "--family", "psi", "--r", "1e12")
    assert obj["luxemburg_norm"] == pytest.approx(2.0, rel=1e-9)


def test_norm_stable_rademacher(capsys, poly_file):
    path = poly_file([[3, 1.0, 0.0]])
    obj = run_json(
        capsys, "norm", "stable", path, "--kind", "rademacher", "--trials", "8", "--seed", "5"
    )
    assert obj["value"] == pytest.approx(1.0, rel=1e-3)
    assert obj["trials"] == 8
    assert obj["kind"] == "rademacher"
    assert obj["seed"] == 5
    assert obj["p"] is None


def test_norm_stable_needs_p(capsys, poly_file):
    path = poly_file([[3, 1.0, 0.0]])
    code, _, err = run_cli(capsys, "norm", "stable", path, "--trials", "8")
    assert code == 2 and "--p" in err


def test_qis_check_and_max(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text("[1, 2, 3]")
    obj = run_json(capsys, "qis", "check", str(path))
    assert obj["quasi_independent"] is False
    assert obj["witness"] == [1, 1, -1]
    obj = run_json(capsys, "qis", "max", str(path))
    assert obj["q_value"] == 2
    assert obj["exact"] is True
    path.write_text("[1, 2, 4, 8]")
    obj = run_json(capsys, "qis", "check", str(path))
    assert obj["quasi_independent"] is True
    assert obj["witness"] is None


def test_qis_partition(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps([2**j for j in range(1, 15)]))
    obj = run_json(capsys, "qis", "partition", str(path), "--c", "1.0", "--epsilon", "0.5")
    assert obj["covered"] == sum(len(b) for b in obj["subsets"])
    assert obj["covered"] >= 7
    assert set(obj["modes"]) <= {"exact", "greedy", "budget"}


def test_qis_partition_prints_the_result_fields(capsys, monkeypatch):
    # E8-like sets: powers of 2, their multiples, and sums of two powers of 3
    sets = [
        [2**k for k in range(1, 17)],
        [3 * 2**k for k in range(1, 15)],
        list(generate("sums_of_powers", 3**8, base=3, d=2)),
    ]
    for A in sets:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(A)))
        code, out, err = run_cli(capsys, "qis", "partition", "-", "--c", "1", "--epsilon", "0.5")
        want = partition_lemma(A, 1.0, 0.5).to_json_obj()
        assert (code, err) == (0, "")
        assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_qis_partition_of_zero_exits_2(capsys, monkeypatch):
    for c, needle in [("1", "finite"), ("2", "above 0")]:
        monkeypatch.setattr(sys, "stdin", io.StringIO("[0]"))
        err = assert_one_line_exit_2(capsys, "qis", "partition", "-", "--c", c, "--epsilon", "0.5")
        assert needle in err


def test_sets_mesh_counts_members_past_64_bits(capsys, monkeypatch):
    pts = [1, 10**20, 2**70]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps([10**20, 2**70])))
    obj = run_json(capsys, "sets", "mesh", "-", "--checkpoints", ",".join(map(str, pts)))
    assert obj == {"checkpoints": pts, "counts": [0, 1, 2]}


def test_qis_rejects_non_integer_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    # the last two are valid JSON but not a list
    for text in ('[1, "two", 3]', "5", '{"a": 1}'):
        path.write_text(text)
        code, _, err = run_cli(capsys, "qis", "check", str(path))
        assert code == 2 and "integers" in err, text


def test_sets_generate(capsys):
    obj = run_json(capsys, "sets", "generate", "--kind", "squares", "--limit", "30")
    assert obj["elements"] == [1, 4, 9, 16, 25]
    obj = run_json(
        capsys, "sets", "generate", "--kind", "sums_of_powers", "--limit", "100",
        "--base", "3", "--d", "2",
    )
    assert obj["elements"] == [12, 30, 36, 84, 90]


def test_sets_mesh_with_fit(capsys, tmp_path):
    path = tmp_path / "squares.json"
    path.write_text(json.dumps([k * k for k in range(1, 3163)]))
    obj = run_json(
        capsys, "sets", "mesh", str(path),
        "--checkpoints", "100,1000,10000,100000,1000000",
        "--fit", "power_log",
    )
    assert obj["counts"] == [10, 31, 100, 316, 1000]
    assert obj["fit"]["exponent"] == pytest.approx(0.5, abs=0.02)


def test_sets_ralpha(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text("[1, 2, 3]")
    obj = run_json(capsys, "sets", "ralpha", str(path), "--alpha", "2", "--n", "6")
    assert obj["counts"] == [0, 0, 1, 2, 3, 2, 1]
    assert obj["mean_square"] == pytest.approx(19.0 / 6.0, rel=1e-12)


def test_sets_ralpha_one_member_huge_alpha_returns(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text("[0]")
    start = time.perf_counter()
    obj = run_json(capsys, "sets", "ralpha", str(path), "--alpha", str(10**12), "--n", "5")
    assert time.perf_counter() - start < 0.5
    assert obj["counts"] == [1, 0, 0, 0, 0, 0]


def test_run_json_exit_zero_and_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "run", "E10", "--seed", "0", "--out", str(out), "--format", "json"
    )
    assert code == 0
    assert stdout == ""
    obj = json.loads(out.read_bytes())
    assert obj["experiment_id"] == "E10"
    assert all(c["passed"] for c in obj["checks"])


@pytest.fixture
def small_e10(tmp_path):
    """An INI that shrinks E10 and sets no seed: format and precedence tests need no default-size run."""
    cfg = tmp_path / "small_e10.ini"
    cfg.write_text("[E10]\nsize_max = 6\n")
    return str(cfg)


def test_run_csv_to_stdout(capsys, small_e10):
    code, stdout, _ = run_cli(capsys, "run", "E10", "--config", small_e10, "--seed", "0", "--format", "csv")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0].startswith("experiment_id,check,")
    assert len(lines) > 1


def test_run_reruns_byte_identical(capsys, small_e10):
    _, first, _ = run_cli(capsys, "run", "E10", "--config", small_e10, "--seed", "0")
    _, second, _ = run_cli(capsys, "run", "E10", "--config", small_e10, "--seed", "0")
    assert first == second


def test_run_config_file_and_seed_precedence(capsys, tmp_path, monkeypatch, small_e10):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[common]\nseed = 7\n\n[E10]\nsize_max = 6\nband = 4.0\n")
    obj = run_json(capsys, "run", "E10", "--config", str(cfg))
    assert obj["config"]["seed"] == 7
    assert obj["config"]["size_max"] == 6
    assert obj["config"]["band"] == 4.0

    obj = run_json(capsys, "run", "E10", "--config", str(cfg), "--seed", "9")
    assert obj["config"]["seed"] == 9

    monkeypatch.setenv("THINSET_LAB_SEED", "11")
    obj = run_json(capsys, "run", "E10", "--config", small_e10, "--seed", "0")
    assert obj["config"]["seed"] == 0
    obj = run_json(capsys, "run", "E10", "--config", small_e10)
    assert obj["config"]["seed"] == 11
    monkeypatch.delenv("THINSET_LAB_SEED")
    obj = run_json(capsys, "run", "E10", "--config", small_e10)
    assert obj["config"]["seed"] == 0


def test_run_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[E10]\nbogus = 1\n")
    code, _, err = run_cli(capsys, "run", "E10", "--config", str(cfg))
    assert code == 2 and "bogus" in err


def assert_one_line_exit_2(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    return err


def test_norm_sup_over_grid_byte_cap_exits_2(capsys, poly_file):
    # half-width 2^39 about the centre would need a 2^44-point FFT grid, 256 TiB
    path = poly_file([[1, 1.0, 0.0], [2**40, 1.0, 0.0]])
    assert "cap" in assert_one_line_exit_2(capsys, "norm", "sup", path)


def test_norm_lq_infinite_q_exits_2(capsys, poly_file):
    # the sup norm is the q = inf case; lq used to print 1.0 here
    path = poly_file([[1, 1.0, 0.0], [2, 1.0, 0.0], [4, 1.0, 0.0]])
    assert "q=inf" in assert_one_line_exit_2(capsys, "norm", "lq", path, "--q", "inf")


def test_norm_lq_over_grid_byte_cap_exits_2(capsys, poly_file):
    path = poly_file([[1, 1.0, 0.0], [3, 1.0, 0.0]])
    err = assert_one_line_exit_2(capsys, "norm", "lq", path, "--q", "2", "--grid", str(2**46))
    assert "cap" in err


def test_qis_check_over_signed_sum_byte_cap_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(errors, "_BYTES_CAP", 1 << 20)
    # 20 members below 10^9: each half has 3^10 distinct signed sums
    path = tmp_path / "set.json"
    path.write_text(json.dumps([int(g) for g in np.random.default_rng(46).choice(10**9, 20, replace=False) + 1]))
    assert "cap" in assert_one_line_exit_2(capsys, "qis", "check", str(path))


@pytest.mark.parametrize(
    "exp_id, section, keys",
    [
        ("E1", "ps = []", ["ps"]),
        ("E2", "suite_size = 0", ["suite_size"]),
        ("E2", "p1 = 1.8\np2 = 1.5", ["p1 < p2", "p1=1.8", "p2=1.5"]),
        ("E2", "p1 = 1.5\np2 = 1.5", ["p1 < p2", "p1=1.5", "p2=1.5"]),
        ("E4", "suite_size = 0", ["suite_size"]),
        ("E5", "n_min = 9\nn_max = 4", ["n_min", "n_max"]),
        ("E7", "checkpoints = []", ["checkpoints"]),
        ("E11", "k_min = 8\nk_max = 4", ["k_min", "k_max"]),
    ],
    ids=["E1", "E2", "E2-p1>p2", "E2-p1=p2", "E4", "E5", "E7", "E11"],
)
def test_run_empty_range_exits_2(capsys, tmp_path, exp_id, section, keys):
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[{exp_id}]\n{section}\n")
    err = assert_one_line_exit_2(capsys, "run", exp_id, "--config", str(cfg))
    assert all(key in err for key in keys)


def test_qis_partition_sum_magnitude_over_cap_exits_2(capsys, tmp_path):
    # more than 25 members, so the input goes to the greedy extraction
    path = tmp_path / "set.json"
    path.write_text(json.dumps([2**63 + 1] + list(range(1, 40))))
    err = assert_one_line_exit_2(capsys, "qis", "partition", str(path), "--c", "1", "--epsilon", "0.5")
    assert "too large" in err


@pytest.mark.parametrize(
    "terms, needle",
    [
        ([[1, 1.0, 0.0], [2, math.nan, 0.0]], "not finite"),
        ([[1, 1.0, 0.0], [1.7, 1.0, 0.0]], "not an integer"),
        ([[1, None, 0]], "term [1, None, 0]: coefficient"),
        ([[1, [1], 0]], "term [1, [1], 0]: coefficient"),
        ([[1, "1", 0]], "term [1, '1', 0]: coefficient"),
        ([[True, 1, 0]], "(True, (1+0j)): frequency is not an integer"),
    ],
    ids=["nan_coefficient", "fractional_frequency", "null_coefficient", "list_coefficient", "string_coefficient", "bool_frequency"],
)
@pytest.mark.parametrize("verb", [["sup"], ["stable", "--p", "1.5", "--trials", "8"]], ids=["sup", "stable"])
def test_norm_rejects_bad_terms_exits_2(capsys, poly_file, terms, needle, verb):
    path = poly_file(terms)
    assert needle in assert_one_line_exit_2(capsys, "norm", verb[0], path, *verb[1:])


def test_missing_or_unwritable_files_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    assert missing in assert_one_line_exit_2(capsys, "qis", "check", missing)
    assert missing in assert_one_line_exit_2(capsys, "norm", "sup", missing)
    assert missing in assert_one_line_exit_2(capsys, "run", "E10", "--config", missing)
    out = str(tmp_path / "no_such_dir" / "report.json")
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[E10]\nsize_max = 5\n")
    assert out in assert_one_line_exit_2(capsys, "run", "E10", "--config", str(cfg), "--out", out)


def test_sets_ralpha_length_over_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text("[1, 2, 3]")
    err = assert_one_line_exit_2(capsys, "sets", "ralpha", str(path), "--alpha", "2", "--n", str(10**11))
    assert "cap" in err


@pytest.mark.parametrize("kind, extra", [("interval", []), ("random", ["--density", "0.5"])], ids=["interval", "random"])
def test_sets_generate_over_byte_cap_exits_2(capsys, kind, extra):
    err = assert_one_line_exit_2(capsys, "sets", "generate", "--kind", kind, "--limit", str(10**11), *extra)
    assert "cap" in err


def test_qis_rejects_bool_members_naming_them(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text("[true, 2, 4]")
    assert "True" in assert_one_line_exit_2(capsys, "qis", "check", str(path))
    path.write_text("[2.5, 4]")
    assert "2.5" in assert_one_line_exit_2(capsys, "qis", "max", str(path))


@pytest.mark.parametrize("text", ["", "[1, 2", "{", "[" * 100_000])
@pytest.mark.parametrize("verb", [["norm", "sup"], ["qis", "check"]], ids=["norm", "qis"])
def test_unparsable_json_input_exits_2_naming_the_source(capsys, monkeypatch, tmp_path, text, verb):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert "stdin is not valid JSON" in assert_one_line_exit_2(capsys, *verb, "-")
    path = tmp_path / "in.json"
    path.write_text(text)
    assert f"{path} is not valid JSON" in assert_one_line_exit_2(capsys, *verb, str(path))


def test_non_utf8_input_exits_2(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_bytes(b"\xff\xfe[1]")
    assert "UTF-8" in assert_one_line_exit_2(capsys, "qis", "check", str(path))


@pytest.mark.parametrize("checkpoints", ["", "a,b", "1,,2", "1.5,2"])
def test_sets_mesh_bad_checkpoints_exit_2(capsys, tmp_path, checkpoints):
    path = tmp_path / "set.json"
    path.write_text("[1, 4, 9]")
    err = assert_one_line_exit_2(capsys, "sets", "mesh", str(path), "--checkpoints", checkpoints)
    assert "--checkpoints" in err


@pytest.mark.parametrize("r", ["nan", "inf"])
def test_exponents_non_finite_r_exits_2(capsys, r):
    err = assert_one_line_exit_2(capsys, "exponents", "--p", "1.5", "--q", "1.2", "--r", r)
    assert "finite r" in err


@pytest.mark.parametrize("flag", ["--seed=-1", "--stream-id=-1"])
def test_norm_stable_negative_stream_key_exits_2(capsys, poly_file, flag):
    path = poly_file([[3, 1.0, 0.0]])
    err = assert_one_line_exit_2(capsys, "norm", "stable", path, "--p", "1.5", "--trials", "8", flag)
    assert ">= 0" in err


def test_sets_generate_squares_over_byte_cap_exits_2(capsys):
    err = assert_one_line_exit_2(capsys, "sets", "generate", "--kind", "squares", "--limit", str(10**20))
    assert "cap" in err


# a raw value that is not JSON, like abc, reaches the experiment as a string
@pytest.mark.parametrize(
    "text", ["seed = 1\n", "[E10]\nsize_max = 5\nsize_max = 6\n", "[E10]\nsize_max = %(x)s\n", "[E10]\nsize_max = abc\n"]
)
def test_run_unreadable_config_exits_2(capsys, tmp_path, text):
    cfg = tmp_path / "lab.ini"
    cfg.write_text(text)
    assert_one_line_exit_2(capsys, "run", "E10", "--config", str(cfg))


def test_qis_partition_infinite_window_exits_2(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text("[1, 2, 4, 8, 16]")
    err = assert_one_line_exit_2(capsys, "qis", "partition", str(path), "--c", "inf", "--epsilon", "0.5")
    assert "finite" in err


def test_norm_stable_over_draw_byte_cap_exits_2(capsys, poly_file):
    path = poly_file([[3, 1.0, 0.0]])
    err = assert_one_line_exit_2(capsys, "norm", "stable", path, "--p", "1.5", "--trials", str(10**20))
    assert "cap" in err


def test_norm_sup_far_narrow_spectrum(capsys, monkeypatch):
    # |f| ignores the common shift 2^40, so the grid only spans the width 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps([[2**40, 1, 0], [2**40 + 1, 1, 0]])))
    assert run_json(capsys, "norm", "sup", "-")["sup_norm"] == 2.0


def test_norm_sup_rel_tol_below_float_resolution_exits_2(capsys, poly_file):
    path = poly_file([[1, 1.0, 0.0], [2, 1.0, 0.0]])
    assert "rel_tol" in assert_one_line_exit_2(capsys, "norm", "sup", path, "--rel-tol", "1e-300")


# three coefficients of 1e308: their sum, and so the sup and the l_1 norm, lies past float64
_PAST_FLOAT64 = "[[0, 1e308, 0], [1, 1e308, 0], [2, 1e308, 0]]"


@pytest.mark.parametrize(
    "argv, stdin, needle",
    [
        (["qis", "partition", "-", "--epsilon", "1e308", "--c", "1"], "[1, 2, 4]", "finite"),
        (["sets", "generate", "--kind", "sums_of_powers", "--d", str(10**20), "--limit", "100"], "", "need d <= 4"),
        (["sets", "generate", "--kind", "sums_of_powers", "--base", "2", "--d", "30", "--limit", str(10**18)], "", "cap"),
        (["norm", "orlicz", "-", "--family", "psi", "--r", "1e-300"], "[[1, 1.0, 0.0]]", "r=1e-300"),
        (["norm", "orlicz", "-", "--family", "phi", "--r", "1e-300"], "[[1, 1.0, 0.0], [3, 1.0, 0.0]]", "too small"),
        (["norm", "orlicz", "-", "--family", "psi", "--r", "1e20"], "[[1, 1.0, 0.0], [2, 1.0, 0.0]]", "too large"),
        (["norm", "orlicz", "-", "--family", "psi", "--r", "2.1e12"], "[[1, 1.0, 0.0], [2, 1.0, 0.0]]", "too large"),
        (["norm", "stable", "-", "--kind", "p_stable", "--trials", "8"], "[[1, 1.0, 0.0]]", "needs --p"),
        (["norm", "sup", "-"], _PAST_FLOAT64, "float64"),
        (["norm", "fq", "-", "--q", "1"], _PAST_FLOAT64, "float64"),
        (["norm", "lorentz", "-", "--q", "1.5"], _PAST_FLOAT64, "float64"),
        (["norm", "orlicz", "-", "--family", "phi", "--r", "1e-3", "--functional"], "[[1, 1, 0], [3, 1, 0]]", "float64"),
        (["norm", "orlicz", "-", "--family", "phi", "--r", "5e-324", "--functional"], "[[1, 1, 0], [3, 1, 0]]", "float64"),
        (["norm", "orlicz", "-", "--family", "psi", "--r", "2"], _PAST_FLOAT64, "float64"),
        (["norm", "orlicz", "-", "--family", "phi", "--r", "2"], _PAST_FLOAT64, "float64"),
        (["norm", "orlicz", "-", "--family", "phi", "--r", "2", "--functional"], _PAST_FLOAT64, "float64"),
        (["norm", "lq", "-", "--q", "4"], _PAST_FLOAT64, "float64"),
        (["norm", "stable", "-", "--p", "1.5", "--trials", "10"], _PAST_FLOAT64, "not finite"),
        (["qis", "partition", "-", "--c", "1", "--epsilon", "-1"], "[]", "finite"),
        (["norm", "stable", "-", "--p", "1.5", "--trials", str(10**20)], "[]", "cap"),
    ],
    ids=[
        "partition_huge_epsilon",
        "sums_of_powers_huge_d",
        "sums_of_powers_over_cap",
        "orlicz_tiny_r",
        "orlicz_phi_tiny_r",
        "orlicz_huge_r",
        "orlicz_r_past_the_rounding_limit",
        "stable_without_p",
        "sup_past_float64",
        "fq_past_float64",
        "lorentz_past_float64",
        "phi_functional_tiny_r",
        "phi_functional_subnormal_r",
        "psi_grid_past_float64",
        "phi_grid_past_float64",
        "phi_functional_grid_past_float64",
        "lq_past_float64",
        "stable_rows_past_float64",
        "partition_empty_negative_epsilon",
        "stable_empty_over_cap",
    ],
)
def test_overflowing_inputs_exit_2(capsys, monkeypatch, argv, stdin, needle):
    # each of these once escaped as an OverflowError or ZeroDivisionError
    # (partition on the empty set at a negative epsilon), or as a numpy
    # ValueError (the zero sups of the empty polynomial at 10^20 trials), or
    # (phi at r = 1e-300) printed a norm of 1.8e16 with an overflow warning,
    # or (psi past r = 2e12) failed with a math domain error, or (the
    # norms past float64) printed Infinity with an overflow warning, or
    # exited 2 only after one; a p-stable driver without --p has no p to take
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert needle in assert_one_line_exit_2(capsys, *argv)


@pytest.mark.parametrize(
    "argv, stdin, key, want",
    [
        # sqrt(3)*1e308: the L^2 norm is finite though the sup, 3e308, is not
        (["norm", "lq", "-", "--q", "2"], _PAST_FLOAT64, "lq_function_norm", math.sqrt(3.0) * 1e308),
        # |f| is within 1e-288 of the constant 1.414e308, whose psi_7 norm is |c| (ln 2)^(-1/7)
        (
            ["norm", "orlicz", "-", "--family", "psi", "--r", "7"],
            "[[4095, 1e20, 0], [0, 1e308, 1e308]]",
            "luxemburg_norm",
            math.hypot(1e308, 1e308) * math.log(2.0) ** (-1.0 / 7.0),
        ),
        # each sup is 1e308, so is their mean, though the sum of four is not finite
        (["norm", "stable", "-", "--kind", "rademacher", "--trials", "4"], "[[1, 1e308, 0]]", "value", 1e308),
    ],
    ids=["lq_l2_of_huge_coefficients", "psi_near_the_float64_top", "stable_mean_of_huge_sups"],
)
def test_norms_near_the_top_of_float64_print_the_finite_value(capsys, monkeypatch, argv, stdin, key, want):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert math.isclose(json.loads(out)[key], want, rel_tol=1e-9)


@pytest.mark.parametrize(
    "exp_id, key, needle",
    [("E1", "n", "cap"), ("E3", "trials", "cap"), ("E11", "alpha", "too large"), ("E11", "k_max", "cap")],
)
def test_run_huge_counts_exit_2_before_allocating(capsys, tmp_path, exp_id, key, needle):
    # E11's k_max is charged before the smaller k run, so this takes no time
    cfg = _write_config(tmp_path, exp_id, dict(REDUCED_CONFIGS[exp_id], **{key: 10**20}))
    assert needle in assert_one_line_exit_2(capsys, "run", exp_id, "--config", cfg)


def _write_config(tmp_path, exp_id, overrides):
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[{exp_id}]\n" + "".join(f"{k} = {json.dumps(v)}\n" for k, v in overrides.items()))
    return str(cfg)


# before the typed config pass, each of these crashed with a traceback, ran
# silently, or exited 2 with a numpy message that named no key
@pytest.mark.parametrize(
    "exp_id, key, value",
    [
        ("E1", "n", 0),
        ("E7", "q", 0),
        ("E11", "p", 1),
        ("E1", "stability_radii", [-1]),
        ("E8", "seed", None),
        ("E1", "seed", 1.7),
        ("E11", "p", 3),
        ("E10", "band", math.nan),
        ("E6", "universe", 5),
        ("E10", "size_max", "6"),
    ],
)
def test_run_bad_config_value_exits_2_naming_key(capsys, tmp_path, exp_id, key, value):
    cfg = _write_config(tmp_path, exp_id, {key: value})
    assert f"{exp_id} config {key}:" in assert_one_line_exit_2(capsys, "run", exp_id, "--config", cfg)


SWEEP_VALUES = [0, -3, "abc", math.nan, [], True, None]


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_run_config_sweep_exits_0_1_or_2(capsys, tmp_path, monkeypatch, exp_id):
    # every key with hostile values, plus each scalar as the only entry of a
    # list key; the other keys stay at the reduced config so a run is short
    monkeypatch.delenv("THINSET_LAB_SEED", raising=False)
    for key, default in default_config(exp_id).items():
        listed = isinstance(default, list)
        is_int = isinstance(default[0] if listed else default, int)
        values = SWEEP_VALUES + [2.5] * is_int
        for value in values + [[v] for v in values if v != []] * listed:
            overrides = dict(REDUCED_CONFIGS[exp_id], **{key: value})
            code, out, err = run_cli(capsys, "run", exp_id, "--config", _write_config(tmp_path, exp_id, overrides))
            assert code in (0, 1, 2), (key, value)
            if code == 2:
                assert out == "" and err.startswith("error:") and err.count("\n") == 1, (key, value, err)
                assert re.search(rf"\b{key}\b", err), (key, value, err)
            else:
                assert json.loads(out)["config"][key] == value, (key, value)


def test_console_script_entry_point():
    # run from a checkout that is not installed: the child needs src on its path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "thinset_lab", "exponents", "--p", "1.5", "--q", "1.2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["q_conj"] == pytest.approx(6.0, rel=1e-12)
