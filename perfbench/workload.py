"""One benchmark process: a cold set-up, then passes over a workload.

Usage (normally started by ``perfbench/run.py``)::

    python3 perfbench/workload.py --workload lab --seed 0 \
        --trace 0 [--until <time.monotonic()>] [--t0 <time.monotonic()>]

The process imports the program, builds every context the workload
needs (the set-up), then runs one *pass* over the workload's
deployments, as one cold invocation of the program does.  It repeats
passes while another is expected to end before ``--until`` (a
``time.monotonic()`` value).  A pass is a closed loop with one client:
deployments run serially and each starts when the previous one
returns.  Every pass first drops the dataset's rendered-frame cache,
so each pass pays the lazy test-frame rendering a user pays on every
invocation.

The program is driven only through ``shared_context`` /
``fleet_context``, ``DeploymentEngine.run`` and ``run_chaos`` with an
engine, on the default (serial) executor.  The last stdout line is one
JSON report: set-up timestamps, per-pass seconds and the deterministic
fields of every deployment, which ``run.py`` checks.  With
``--trace 1`` the set-up and the first pass run under the wrappers of
:mod:`spans`, the report carries the per-layer metrics, and the span
table is written to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import time

# Fallback process-start stamp when the launcher gives none.
T_LAUNCH = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"

# Seed mapping: benchmark seed 0 reproduces the program's defaults
# (engines seed from 2017, chaos fault plans from 7).  Every run trains
# dataset #1 from the program's default training seed: set-up does the
# same work in every run, and chaos selection, which flips between two
# and three cameras with the training seed, stays comparable.
ENGINE_SEED_BASE = 2017
FAULT_SEED_BASE = 7
FAULT_SEEDS_PER_PASS = 3


def import_program() -> None:
    """Import the program's entry points (timed as ``import_s``)."""
    import repro  # noqa: F401
    import repro.checkpoint  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.experiments.faults  # noqa: F401
    import repro.telemetry  # noqa: F401


def ideal_record(name: str, result, capacity_j: float) -> dict:
    """The checked fields of a ``RunResult``."""
    per_camera = list(result.energy_by_camera.values()) or [0.0]
    return {
        "name": name,
        "frames": result.frames_evaluated,
        "detected": result.humans_detected,
        "present": result.humans_present,
        "energy_j": result.energy_joules,
        "processing_j": result.processing_joules,
        "communication_j": result.communication_joules,
        "min_camera_j": min(per_camera),
        "max_camera_j": max(per_camera),
        "capacity_j": capacity_j,
        "cameras_per_round": [len(d.assignment) for d in result.decisions],
    }


class Workload:
    """A trained context, one engine on it, and an ordered list of
    deployments."""

    name = "abstract"

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.energy.battery import Battery

        self.seed = seed
        self.workdir = workdir
        self.capacity_j = Battery().capacity_joules

    def build_context(self):
        raise NotImplementedError

    def setup(self) -> None:
        from repro.engine import DeploymentEngine

        self.context = self.build_context()
        self.engine = DeploymentEngine(
            self.context, seed=ENGINE_SEED_BASE + self.seed
        )

    def deployments(self) -> list[tuple[str, Callable[[], dict]]]:
        """(name, zero-argument callable returning a record)."""
        raise NotImplementedError

    def run_pass(self) -> tuple[float, list[dict]]:
        """One closed-loop pass; returns (seconds, records)."""
        # Bookkeeping outside the timed pass: forget rendered frames so
        # this pass renders its test frames lazily, as a cold run does.
        self.context.dataset.clear_cache()
        records = []
        start = time.perf_counter()
        for name, deploy in self.deployments():
            try:
                records.append(deploy())
            except Exception as exc:  # a failed deployment is counted
                records.append({"name": name, "error": repr(exc)})
        return time.perf_counter() - start, records


class Lab(Workload):
    """Dataset #1 (4 cameras) on one trained context: the paper's
    Fig. 5 grid on the in-process round loop, then the fault-injected
    network with durable writes on."""

    name = "lab"
    GRID = tuple(
        (mode, budget)
        for mode in ("all_best", "subset", "full")
        for budget in (2.0, 0.5)
    )
    FRAMES = 80

    def build_context(self):
        from repro.engine import shared_context

        return shared_context(1)

    def _chaos(self, fault_seed: int) -> dict:
        from repro.checkpoint import CheckpointConfig
        from repro.experiments.faults import ChaosSpec, run_chaos
        from repro.resilience.ladder import ResilienceConfig
        from repro.telemetry import JsonlStreamSink, Telemetry

        spec = ChaosSpec(
            dataset_number=1,
            num_frames=self.FRAMES,
            loss_rate=0.2,
            crash_count=1,
            sensor_noise=0.3,
            corruption_rate=0.05,
            resilience=ResilienceConfig(enabled=True),
            seed=fault_seed,
        )
        stream = self.workdir / "stream.jsonl"
        checkpoint_dir = self.workdir / "checkpoint"
        telemetry = Telemetry(run_id=f"bench-{fault_seed}")
        telemetry.attach_sink(JsonlStreamSink(stream))
        try:
            result = run_chaos(
                spec,
                self.engine,
                telemetry=telemetry,
                checkpoint=CheckpointConfig(
                    directory=checkpoint_dir, every=1
                ),
            )
        finally:
            telemetry.close_sinks()
        consumed = list(result.battery_by_camera.values()) or [0.0]
        return {
            "name": f"faults@{fault_seed}",
            "frames": spec.num_frames,
            "detected": result.humans_detected,
            "present": result.humans_present,
            "energy_j": result.total_radio_joules,
            "min_camera_j": min(consumed),
            "max_camera_j": max(consumed),
            "capacity_j": self.capacity_j,
            "decisions": result.num_decisions,
            "final_cameras": len(result.final_assignment),
            "delivered": result.delivered_messages,
            "dropped": result.dropped_messages,
            "retransmissions": result.retransmissions,
            "gave_up": result.gave_up,
            "fault_events": len(result.fault_events)
            + len(result.recovery_events),
            "stream_bytes": stream.stat().st_size,
            "checkpoint_saved": any(checkpoint_dir.iterdir()),
        }

    def deployments(self):
        def fig5(mode, budget):
            return lambda: ideal_record(
                f"{mode}@{budget}",
                self.engine.run(mode, budget=budget),
                self.capacity_j,
            )

        base = FAULT_SEED_BASE + 1000 * self.seed
        return [
            (f"{m}@{b}", fig5(m, b)) for m, b in self.GRID
        ] + [
            (f"faults@{s}", lambda s=s: self._chaos(s))
            for s in range(base, base + FAULT_SEEDS_PER_PASS)
        ]


class Fleet64(Workload):
    """The tiled 64-camera fleet: flat ``full``, then ``cell`` x 8."""

    name = "fleet64"
    CAMERAS = 64
    CELLS = 8

    def build_context(self):
        from repro.engine import fleet_context

        return fleet_context(self.CAMERAS)

    def deployments(self):
        cells = f"cell{self.CELLS}"
        return [
            ("full", lambda: ideal_record(
                "full", self.engine.run("full"), self.capacity_j)),
            (cells, lambda: ideal_record(
                cells,
                self.engine.run("cell", cells=self.CELLS),
                self.capacity_j,
            )),
        ]


WORKLOADS = {w.name: w for w in (Lab, Fleet64)}


def layer_metrics(recorder, import_s: float, records: list[dict],
                  traced_s: float, untraced_s: list[float]) -> dict:
    """Per-layer metrics from the traced set-up plus first pass."""
    t = recorder.totals()  # zeros for a span that never ran
    c = recorder.counts

    def calls(name):
        return t[name]["calls"]

    def total(name):
        return t[name]["total_s"]

    def self_s(name):
        return t[name]["self_s"]

    def summed(key):
        return sum(r.get(key, 0) for r in records)

    selects = calls("selection.select")
    delivered, dropped = summed("delivered"), summed("dropped")
    metrics = {
        "startup.import_s": (import_s, "s"),
        "world.render_calls": (calls("world.render"), "count"),
        "world.render_s": (total("world.render"), "s"),
        "context.build_s": (total("context.build"), "s"),
        "context.color_fit_s": (total("context.color_fit"), "s"),
        "detection.detect_calls": (
            t["detection.detect"]["setup_calls"], "count"),
        "detection.detect_s": (t["detection.detect"]["setup_s"], "s"),
        "detection.sweep_calls": (calls("detection.sweep"), "count"),
        "detection.sweep_s": (total("detection.sweep"), "s"),
        "detection.match_calls": (c["detection.match"], "count"),
        "detection.iou_calls": (c["detection.iou"], "count"),
        "calibration.profile_calls": (calls("calibration.profile"), "count"),
        "calibration.profile_self_s": (self_s("calibration.profile"), "s"),
        "detection.batch_calls": (calls("detection.batch"), "count"),
        "detection.batch_tasks": (c["detection.batch_tasks"], "count"),
        "detection.batch_s": (total("detection.batch"), "s"),
        "executor.execute_calls": (calls("executor.execute"), "count"),
        "executor.overhead_s": (self_s("executor.execute"), "s"),
        "engine.assessment_s": (total("engine.assessment"), "s"),
        "engine.run_self_s": (self_s("engine.run"), "s"),
        "reid.group_calls": (calls("reid.group"), "count"),
        "reid.group_s": (total("reid.group"), "s"),
        "reid.detections_grouped": (c["reid.detections_grouped"], "count"),
        "selection.select_calls": (selects, "count"),
        "selection.select_self_s": (self_s("selection.select"), "s"),
        "selection.greedy_self_s": (self_s("selection.greedy"), "s"),
        "selection.downgrade_self_s": (self_s("selection.downgrade"), "s"),
        "selection.global_accuracy_calls": (
            c["selection.global_accuracy"], "count"),
        "selection.global_accuracy_per_select": (
            c["selection.global_accuracy"] / selects if selects else 0.0,
            "ratio"),
        "fleet.select_round_calls": (calls("fleet.select_round"), "count"),
        "fleet.select_round_self_s": (self_s("fleet.select_round"), "s"),
        "fleet.allocate_calls": (c["fleet.allocate"], "count"),
        "network.sim_run_self_s": (self_s("network.sim_run"), "s"),
        "network.sends": (c["network.send"], "count"),
        "network.retransmissions": (summed("retransmissions"), "count"),
        "network.gave_up": (summed("gave_up"), "count"),
        "network.delivery_ratio": (
            delivered / (delivered + dropped)
            if delivered + dropped else 0.0, "ratio"),
        "faults.on_send_calls": (c["faults.on_send"], "count"),
        "faults.events": (summed("fault_events"), "count"),
        "resilience.evaluate_calls": (calls("resilience.evaluate"), "count"),
        "resilience.evaluate_s": (total("resilience.evaluate"), "s"),
        "checkpoint.saves": (calls("checkpoint.save"), "count"),
        "checkpoint.save_s": (total("checkpoint.save"), "s"),
        "checkpoint.bytes": (c["checkpoint.bytes"], "bytes"),
        "telemetry.flushes": (calls("telemetry.flush"), "count"),
        "telemetry.flush_self_s": (self_s("telemetry.flush"), "s"),
        "telemetry.emit_s": (total("telemetry.emit"), "s"),
        "telemetry.stream_bytes": (summed("stream_bytes"), "bytes"),
        "bench.trace_overhead_s": (
            traced_s - statistics.median(untraced_s), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def environment() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--until", type=float, default=0.0,
                        help="time.monotonic() by which further passes "
                             "must end (default: one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the launcher "
                             "started this process")
    args = parser.parse_args(argv)
    t0 = T_LAUNCH if args.t0 is None else args.t0

    source = ROOT / "src"
    sys.path.insert(0, str(source))
    start = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - start
    loaded = Path(sys.modules["repro"].__file__).resolve()
    if not loaded.is_relative_to(source):
        # Benchmark the checkout's source, never an installed copy.
        raise SystemExit(f"error: repro imported from {loaded}, "
                         f"not from {source}")

    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    workdir = WORK_ROOT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_done = time.monotonic()
        report = {"setup_s": setup_done - t0, "import_s": import_s}
        passes = []
        if recorder is not None:
            recorder.phase = "run"
            traced_s, traced_records = workload.run_pass()
            recorder.uninstall()
            passes.append({"seconds": traced_s,
                           "records": traced_records})
        untraced = []
        while True:
            seconds, records = workload.run_pass()
            untraced.append(seconds)
            passes.append({"seconds": seconds, "records": records})
            if len(passes) == 1:
                # The peak of a cold invocation: set-up plus one
                # pass, whatever number of passes fits the run.
                report["peak_rss_mb"] = resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss / 1024.0
            # Start no pass that would end after --until.
            if time.monotonic() + seconds > args.until:
                break
        report["passes"] = passes
        report["environment"] = environment()
        if recorder is not None:
            report["layers"] = layer_metrics(
                recorder, import_s, traced_records, traced_s, untraced
            )
            recorder.write(
                WORK_ROOT
                / f"trace-{args.workload}-seed{args.seed}.jsonl"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
