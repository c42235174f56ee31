"""Fleet-scale coordination benchmarks.

Flat ``subset`` selection ranks the entire fleet in one controller —
a superlinear term that dominates wall-clock as the fleet grows.  The
``cell`` policy shards that work across per-cell controllers under the
budget coordinator; ``peer`` removes the controller entirely.  These
guards pin the two claims recorded in ``BENCH_fleet.json``:

- sharding wins: at 200 cameras the cell policy must beat the flat
  baseline by ``FLEET_MIN_SPEEDUP`` (measured ~11x; 1000-camera
  numbers, ~100x, are recorded offline — the flat run alone takes
  ~3 minutes);
- sharding does not give up detections: per-cell retention vs the
  flat baseline stays above ``FLEET_RETENTION_FLOOR``.

Plus an absolute 50-camera cell-policy throughput floor for the CI
``fleet-smoke`` job.  Regenerate BENCH_fleet.json with
``benchmarks/gen_bench_fleet.py`` (recipe in EXPERIMENTS.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks._bench_util import (
    assert_floor,
    env_float,
    interleaved_best,
    timed,
)
from repro.engine import DeploymentEngine, fleet_context

START = 1000
# Measured ~11x at 200 cameras on an unloaded box; 3x leaves CI-noise
# headroom while still failing if cell select degenerates to flat.
FLEET_MIN_SPEEDUP = env_float("FLEET_MIN_SPEEDUP", 3.0)
# Measured ~1.0 (cells slightly beat flat); 0.9 is the guard.
FLEET_RETENTION_FLOOR = env_float("FLEET_RETENTION_FLOOR", 0.9)
# Measured ~40 rounds/sec for the 50-camera cell policy; floor well
# below that but far above the flat baseline's ~19.
FLEET_RPS_FLOOR = env_float("FLEET_RPS_FLOOR", 8.0)


@pytest.fixture(scope="module")
def fleet50():
    context = fleet_context(50)
    context.dataset.frames(START, 1100, only_ground_truth=True)
    return context


@pytest.fixture(scope="module")
def fleet200():
    context = fleet_context(200)
    context.dataset.frames(START, 1050, only_ground_truth=True)
    return context


def _run_once(context, policy, end, **kwargs):
    engine = DeploymentEngine(context, seed=2017)
    return timed(
        engine.run, policy, budget=2.0, start=START, end=end, **kwargs
    )


def test_cell_beats_flat_subset_at_200_cameras(fleet200):
    """Interleaved min-of-N: sharded cells vs one flat controller on
    the same 200-camera fleet, under the same load."""
    results = {}

    def flat() -> float:
        elapsed, results["flat"] = _run_once(fleet200, "subset", 1050)
        return elapsed

    def sharded() -> float:
        elapsed, results["cell"] = _run_once(
            fleet200, "cell", 1050, cells=20
        )
        return elapsed

    best_flat, best_cell = interleaved_best(3, flat, sharded)
    speedup = best_flat / best_cell
    assert speedup >= FLEET_MIN_SPEEDUP, (
        f"200-camera cell policy is only {speedup:.2f}x the flat "
        f"subset baseline (need >= {FLEET_MIN_SPEEDUP}x); "
        f"flat={best_flat:.3f}s cell={best_cell:.3f}s"
    )
    retention = (
        results["cell"].humans_detected / results["flat"].humans_detected
    )
    assert_floor(
        retention,
        FLEET_RETENTION_FLOOR,
        "200-camera cell detection retention vs flat subset "
        "(FLEET_RETENTION_FLOOR)",
    )


def test_cell_throughput_floor_50_cameras(fleet50):
    """Absolute rounds/sec floor for the CI fleet-smoke job."""
    rounds = (1100 - START) // 25
    best = min(
        _run_once(fleet50, "cell", 1100, cells=5)[0] for _ in range(5)
    )
    assert_floor(
        rounds / best,
        FLEET_RPS_FLOOR,
        f"50-camera cell rounds/sec (window {START}..1100, "
        "FLEET_RPS_FLOOR)",
    )


def test_peer_tracks_cell_throughput_at_50_cameras(fleet50):
    """The decentralized policy must stay within the same order of
    magnitude as the cell hierarchy — negotiation is rounds of cheap
    claim messages, not a second selection pass."""

    def cell() -> float:
        return _run_once(fleet50, "cell", 1100, cells=5)[0]

    def peer() -> float:
        return _run_once(fleet50, "peer", 1100)[0]

    best_cell, best_peer = interleaved_best(3, cell, peer)
    assert best_peer <= 5.0 * best_cell, (
        f"peer negotiation {best_peer:.3f}s is more than 5x the cell "
        f"hierarchy's {best_cell:.3f}s at 50 cameras"
    )


def test_bench_fleet_json_records_acceptance():
    """BENCH_fleet.json pins the sharding speedup ladder and the
    retention floor; keep the recorded evidence self-consistent."""
    path = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"
    data = json.loads(path.read_text())
    assert data["units"] == "seconds_best_of_n"
    speedups = {}
    for scale, entry in data["results"].items():
        flat, cell = entry["subset"], entry["cell"]
        recorded = entry["cell_speedup_vs_subset"]
        assert flat["seconds"] / cell["seconds"] == pytest.approx(
            recorded, rel=0.01
        ), scale
        assert entry[
            "cell_detection_retention_vs_subset"
        ] == pytest.approx(
            cell["detected"] / flat["detected"], abs=0.001
        ), scale
        assert entry["cell_detection_retention_vs_subset"] >= 0.9, scale
        speedups[scale] = recorded
    # The headline ladder: sharding pays more the bigger the fleet.
    assert speedups["200_cameras"] >= 5.0
    assert speedups["1000_cameras"] >= 50.0
    assert (
        speedups["50_cameras"]
        < speedups["200_cameras"]
        < speedups["1000_cameras"]
    )
