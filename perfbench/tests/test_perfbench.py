"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The repeatability tests start real benchmark runs (about a minute per
workload); the other tests are instant.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from check import check_passes, invariant_problems  # noqa: E402

EXACT_COUNTS = (
    "detection.iou_calls",
    "selection.global_accuracy_calls",
    "world.render_calls",
    "network.retransmissions",
    "checkpoint.saves",
)


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """(detail line, result line) of one traced benchmark run."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    detail, result = completed.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("workload", ["lab", "fleet64"])
def test_traced_runs_repeat_exactly(workload):
    first_detail, first = traced_run(workload, 3)
    second_detail, second = traced_run(workload, 3)
    assert first["correct"] and second["correct"]
    for name in EXACT_COUNTS + ("startup.import_s", "bench.trace_overhead_s"):
        assert name in first["metrics"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["detection.iou_calls"]["value"] > 0
    assert first["metrics"]["world.render_calls"]["value"] > 0
    assert first_detail["outputs"] == second_detail["outputs"]


def _record(**overrides) -> dict:
    record = {
        "name": "full@2.0", "frames": 80, "detected": 40, "present": 50,
        "energy_j": 3.0, "processing_j": 2.0, "communication_j": 1.0,
        "min_camera_j": 0.5, "max_camera_j": 1.0, "capacity_j": 10.0,
        "cameras_per_round": [3, 2],
    }
    record.update(overrides)
    return record


def test_invariants_accept_a_consistent_record():
    assert invariant_problems(_record()) == []


@pytest.mark.parametrize("overrides", [
    {"energy_j": 3.5},
    {"detected": 51},
    {"max_camera_j": 10.5},
    {"min_camera_j": -0.1},
    {"present": 0, "detected": 0},
    {"error": "RuntimeError('boom')"},
])
def test_invariants_reject_broken_records(overrides):
    assert invariant_problems(_record(**overrides))


def test_a_pass_that_differs_from_the_first_fails():
    passes = [[_record()], [_record(detected=41)]]
    failed, problems = check_passes("lab", 1, passes)
    assert failed == 1
    assert "differs from the first pass" in problems[0]


def test_default_seed_is_checked_against_the_pinned_digest():
    failed, problems = check_passes("lab", 0, [[_record()]])
    assert failed == 1
    assert "pinned digest" in problems[0]


def test_self_time_subtracts_child_spans():
    recorder = spans.SpanRecorder()
    # [name, parent, phase, nested, start, end]
    recorder.spans = [
        ["outer", -1, "setup", False, 0.0, 10.0],
        ["inner", 0, "setup", False, 1.0, 4.0],
        ["inner", 0, "run", False, 5.0, 6.0],
        ["inner", 2, "run", True, 5.2, 5.5],
    ]
    totals = recorder.totals()
    assert totals["outer"]["self_s"] == pytest.approx(6.0)
    assert totals["inner"]["calls"] == 3
    assert totals["inner"]["total_s"] == pytest.approx(4.0)
    assert totals["inner"]["self_s"] == pytest.approx(4.0)
    assert totals["inner"]["setup_calls"] == 1
    assert totals["inner"]["setup_s"] == pytest.approx(3.0)


def test_a_missing_boundary_is_skipped(monkeypatch, capsys):
    monkeypatch.setattr(spans, "SPANS", (("gone.layer", "repro.gone", "f"),))
    monkeypatch.setattr(spans, "COUNTS", ())
    recorder = spans.SpanRecorder()
    recorder.install()
    recorder.uninstall()
    assert "gone.layer reads 0" in capsys.readouterr().err
