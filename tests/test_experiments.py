"""Experiment harness: registry, config handling, reports, determinism."""

import json
import re

import pytest

import thinset_lab.experiments as experiments
from thinset_lab import (
    EXPERIMENT_IDS,
    DomainError,
    ExperimentReport,
    NormEstimate,
    TrigPolynomial,
    default_config,
    emit_report,
    run_experiment,
    sz_lower,
)

def test_registry_and_default_config_isolation():
    assert EXPERIMENT_IDS == tuple(f"E{i}" for i in range(1, 12))
    cfg = default_config("E5")
    cfg["trials"] = -1
    assert default_config("E5")["trials"] != -1
    with pytest.raises(DomainError):
        default_config("E12")


def test_unknown_config_key_rejected():
    with pytest.raises(DomainError):
        run_experiment("E10", {"bogus": 1})


def test_seed_coerced_to_int():
    report = run_experiment("E10", {"seed": "3", "size_max": 5})
    assert report.config["seed"] == 3


def test_string_override_read_as_json_once():
    # the text an INI line would hold: a JSON list is a list, a JSON string is
    # not a number, and the error shows the value as it was given
    assert run_experiment("E1", {"n": 2000, "ps": "[1.2, 1.5]"}).config["ps"] == [1.2, 1.5]
    with pytest.raises(DomainError, match=re.escape("""E10 config size_max: want int, got '"6"'""")):
        run_experiment("E10", {"size_max": '"6"'})


def test_run_experiment_reduced_e7_passes():
    report = run_experiment("E7", {"checkpoints": [100, 1000, 10_000, 100_000]})
    assert report.experiment_id == "E7"
    assert report.passed
    names = [c.name for c in report.checks]
    assert "squares_power_log_exponent" in names
    assert report.runtime_ms > 0.0


def test_run_experiment_reduced_e10_passes():
    report = run_experiment("E10", {"size_max": 8})
    assert report.passed
    assert report.config["size_max"] == 8


def test_emit_csv_row_count_and_shape():
    report = run_experiment("E10", {"size_max": 6})
    payload = emit_report(report, fmt="csv").decode()
    lines = payload.strip().split("\n")
    assert lines[0] == "experiment_id,check,statistic,fitted_constant,passed"
    assert len(lines) == len(report.checks) + 1
    assert all(line.split(",")[0] == "E10" for line in lines[1:])


def test_emit_json_excludes_wall_clock_by_default():
    report = run_experiment("E10", {"size_max": 5})
    payload = emit_report(report)
    assert b"runtime" not in payload
    with_meta = emit_report(report, include_meta=True)
    obj = json.loads(with_meta)
    assert obj["meta"]["runtime_ms"] > 0.0
    with pytest.raises(DomainError):
        emit_report(report, fmt="yaml")


def test_empty_checks_document_is_valid():
    report = ExperimentReport("E1", {"seed": 0}, (), 1.0, ())
    assert json.loads(emit_report(report))["checks"] == []
    assert emit_report(report, fmt="csv").decode().strip().count("\n") == 0


def test_reports_byte_identical_across_reruns():
    cfg = {"size_max": 6}
    a = emit_report(run_experiment("E10", cfg))
    b = emit_report(run_experiment("E10", cfg))
    assert a == b
    cfg2 = {"suite_size": 2, "trials": 60}
    x = emit_report(run_experiment("E2", cfg2))
    y = emit_report(run_experiment("E2", cfg2))
    assert x == y


def test_e4_contractions_share_the_base_stream():
    # halving the coefficients halves every row exactly, so the half
    # contraction's ratio is exactly 1/2 only on the base estimate's stream
    report = run_experiment("E4", {"suite_size": 2, "trials": 50})
    halves = [c.statistic for c in report.checks if c.name.endswith("_half")]
    assert halves == [0.5, 0.5]


def test_seed_changes_statistics():
    a = run_experiment("E2", {"suite_size": 2, "trials": 60, "seed": 0})
    b = run_experiment("E2", {"suite_size": 2, "trials": 60, "seed": 1})
    assert [c.statistic for c in a.checks] != [c.statistic for c in b.checks]


def test_e5_lower_band_fails_for_degree_independent_estimate(monkeypatch):
    # A constant estimate cannot grow like N^(1/p) (log N)^(1/p') on the
    # intervals, so the interval lower_band must reject it.
    def constant(f, d, trials, groups=None):
        return NormEstimate(5.0, trials, 1, 0.0, 1e-3, (5.0,), d.kind, d.p, d.seed, d.stream_id)

    monkeypatch.setattr(experiments, "estimate_bracket", constant)
    report = run_experiment("E5", {"n_min": 4, "n_max": 12})
    checks = {c.name: c for c in report.checks}
    assert all(f"interval_lower_ratio_n{n}" in checks for n in range(4, 13))
    want = sz_lower(TrigPolynomial.indicator(range(1, 4097)), 1.5) / sz_lower(
        TrigPolynomial.indicator(range(1, 17)), 1.5
    )
    assert want > 50.0
    assert abs(checks["lower_band"].statistic - want) <= 1e-9 * want
    assert not checks["lower_band"].passed
    assert not report.passed
