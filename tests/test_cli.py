"""CLI surface: argument handling, JSON I/O, config precedence, exit codes."""

import io
import json
import math
import subprocess
import sys
import time

import pytest

from thinset_lab.cli import main


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


def test_qis_rejects_non_integer_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[1, "two", 3]')
    code, _, err = run_cli(capsys, "qis", "check", str(path))
    assert code == 2 and "integers" in err


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


def test_run_csv_to_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "run", "E10", "--seed", "0", "--format", "csv")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0].startswith("experiment_id,check,")
    assert len(lines) > 1


def test_run_reruns_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "run", "E10", "--seed", "0")
    _, second, _ = run_cli(capsys, "run", "E10", "--seed", "0")
    assert first == second


def test_run_config_file_and_seed_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[common]\nseed = 7\n\n[E10]\nsize_max = 6\nband = 4.0\n")
    obj = run_json(capsys, "run", "E10", "--config", str(cfg))
    assert obj["config"]["seed"] == 7
    assert obj["config"]["size_max"] == 6
    assert obj["config"]["band"] == 4.0

    obj = run_json(capsys, "run", "E10", "--config", str(cfg), "--seed", "9")
    assert obj["config"]["seed"] == 9

    monkeypatch.setenv("THINSET_LAB_SEED", "11")
    obj = run_json(capsys, "run", "E10", "--seed", "0")
    assert obj["config"]["seed"] == 0
    obj = run_json(capsys, "run", "E10")
    assert obj["config"]["seed"] == 11
    monkeypatch.delenv("THINSET_LAB_SEED")
    obj = run_json(capsys, "run", "E10")
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
    # degree 2^40 would need a 2^45-point FFT grid, 512 TiB
    path = poly_file([[1, 1.0, 0.0], [2**40, 1.0, 0.0]])
    assert "cap" in assert_one_line_exit_2(capsys, "norm", "sup", path)


def test_norm_lq_over_grid_byte_cap_exits_2(capsys, poly_file):
    path = poly_file([[1, 1.0, 0.0], [3, 1.0, 0.0]])
    err = assert_one_line_exit_2(capsys, "norm", "lq", path, "--q", "2", "--grid", str(2**46))
    assert "cap" in err


@pytest.mark.parametrize(
    "exp_id, section, keys",
    [
        ("E2", "suite_size = 0", ["suite_size"]),
        ("E5", "n_min = 9\nn_max = 4", ["n_min", "n_max"]),
        ("E11", "k_min = 8\nk_max = 4", ["k_min", "k_max"]),
    ],
    ids=["E2", "E5", "E11"],
)
def test_run_empty_range_exits_2(capsys, tmp_path, exp_id, section, keys):
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[{exp_id}]\n{section}\n")
    err = assert_one_line_exit_2(capsys, "run", exp_id, "--config", str(cfg))
    assert all(key in err for key in keys)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thinset_lab", "exponents", "--p", "1.5", "--q", "1.2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["q_conj"] == pytest.approx(6.0, rel=1e-12)
