"""Tests of the benchmark itself; run with `python3 -m pytest perfbench/tests`.

They use the --smoke inputs, which finish in seconds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import workloads
from qembound_seed import cli as seed_cli

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, runner=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if workload == "mc_mixture":
        # The two cells past mu_var read `ok` with an error bar at the seed
        # commit: counted as failed, and marked as the known defect.
        detail = json.loads(proc.stdout.splitlines()[-2])
        assert result["failed"] == detail["gate"]["known_defect_cells"] > 0


def _reference_report(name):
    work = workloads.build(name, 5, smoke=True)
    label, text = work.scenarios[0]
    report, _ = seed_cli.run(seed_cli.parse_config(text))
    return work, label, report.to_csv_text()


def _replace_cell(csv_text, row, column, value):
    lines = csv_text.splitlines()
    parts = lines[row + 1].split(",")
    parts[gate.COLUMNS.index(column)] = value
    lines[row + 1] = ",".join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("column, value", [
    ("upsilon_exact", lambda v: repr(float(v) * (1 + 1e-6))),
    ("status", lambda v: "empty_interval"),
    ("mu", lambda v: repr(float(v) * (1 + 1e-15))),
])
def test_gate_counts_a_perturbed_row_as_failed(column, value):
    work, label, text = _reference_report("exact_grid")
    context = work.row_context[label]
    assert gate.check_report(label, text, text, context) == []
    original = gate.parse_csv(text)[1][column]
    perturbed = _replace_cell(text, 1, column, value(original))
    failures = gate.check_report(label, perturbed, text, context)
    assert [(f.row, f.known_defect) for f in failures] == [(1, False)]


def test_gate_fails_a_bound_below_the_exact_value():
    work, label, text = _reference_report("bound_tail")
    context = work.row_context[label]
    row = 0
    exact = context[row]["exact"]
    perturbed = _replace_cell(text, row, "upsilon_bound", repr(exact - 1e-3))
    failures = gate.check_report(label, perturbed, text, context)
    assert [f.row for f in failures] == [row]
    assert any("below exact" in r for r in failures[0].reasons)


def test_tier1_run_does_not_collect_the_benchmark():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "tests/" in proc.stdout
    assert "perfbench" not in proc.stdout


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("oqho_sweep", 0, cwd=tmp_path, runner=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_overlapping_children():
    import spans

    assert spans._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0


def test_tail_percentile_keeps_ten_samples_beyond_and_never_drops_below_median():
    import run

    assert run.tail_percentile([float(i) for i in range(1, 26)]) == (15.0, 60.0, 25)
    assert run.tail_percentile([float(i) for i in range(1, 13)]) == (6.5, 50.0, 12)


def test_paired_pass_alternates_which_side_goes_first():
    import run

    calls = []

    class Side:
        def __init__(self, name):
            self.name = name
            self.cli = self

        def run(self, config):
            calls.append(self.name)
            text = f"{self.name}:{config}"
            return type("Report", (), {"to_csv_text": lambda _: text})(), 0

    work = workloads.Workload("w", [("a", "{}"), ("b", "{}")])
    sides = {"program": (Side("P"), ["a", "b"]), "reference": (Side("R"), ["a", "b"])}
    outputs, elapsed = run.run_paired_pass(sides, work, 0)
    assert outputs == ["P:a", "P:b"]
    assert calls == ["P", "R", "R", "P"]
    assert set(elapsed) == {"program", "reference"}
    calls.clear()
    run.run_paired_pass(sides, work, 1)
    assert calls == ["R", "P", "P", "R"]
