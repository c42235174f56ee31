"""Span and call-count tracing installed from outside the program.

The benchmark measures layers without touching ``src/``: it wraps the
public functions and methods that mark each layer boundary.  A *span*
wrapper records (name, parent, phase, start, end) for every call and
keeps a stack so each span knows the span that caused it; a *count*
wrapper only counts calls, for functions called millions of times
(``BoundingBox.iou``) where a span per call would cost more than the
call itself.  Spans stay in memory and are written out when the run
ends.

A layer's self time is its span's duration minus the time covered by
its child spans.  Single-threaded code nests spans strictly, so the
covered time is the sum of the direct children's durations.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

# (span name, module, qualified attribute).  A method named on a base
# class is wrapped on every loaded subclass that defines it, so the
# wrapper follows whichever implementation actually runs.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("world.render", "repro.world.renderer", "Renderer.render"),
    ("context.build", "repro.engine.context", "DeploymentContext.build"),
    ("context.color_fit", "repro.engine.context", "fit_color_metric"),
    ("detection.detect", "repro.detection.base", "Detector.detect"),
    ("detection.sweep", "repro.detection.metrics", "sweep_thresholds"),
    ("calibration.profile", "repro.core.calibration", "profile_algorithm"),
    ("detection.batch", "repro.detection.batch", "run_batch"),
    ("executor.execute", "repro.engine.executor", "DetectionExecutor.execute"),
    ("engine.assessment", "repro.engine.core",
     "DeploymentEngine.collect_assessment"),
    ("engine.run", "repro.engine.core", "DeploymentEngine.run"),
    ("reid.group", "repro.reid.matcher", "CrossCameraMatcher.group"),
    ("selection.select", "repro.core.controller", "EECSController.select"),
    ("selection.greedy", "repro.core.selection",
     "SelectionEngine.greedy_subset"),
    ("selection.downgrade", "repro.core.selection",
     "SelectionEngine.downgrade"),
    ("fleet.select_round", "repro.fleet.runtime", "FleetRuntime.select_round"),
    ("network.sim_run", "repro.network.simulator", "EventSimulator.run"),
    ("resilience.evaluate", "repro.resilience.ladder",
     "ResilienceCoordinator.evaluate"),
    ("checkpoint.save", "repro.checkpoint.store", "CheckpointStore.save"),
    ("telemetry.flush", "repro.telemetry.core", "Telemetry.flush_round"),
    ("telemetry.emit", "repro.telemetry.live", "JsonlStreamSink.emit"),
)

COUNTS: tuple[tuple[str, str, str], ...] = (
    ("detection.match", "repro.detection.metrics", "match_detections"),
    ("detection.iou", "repro.detection.base", "BoundingBox.iou"),
    ("selection.global_accuracy", "repro.core.selection",
     "SelectionEngine.global_accuracy"),
    ("fleet.allocate", "repro.fleet.coordinator", "BudgetCoordinator.allocate"),
    ("network.send", "repro.network.simulator", "EventSimulator.send"),
    ("faults.on_send", "repro.faults.injector", "FaultInjector.on_send"),
)


def _grouped_detections(args, kwargs, result) -> dict[str, int]:
    detections = kwargs.get("detections", args[1] if len(args) > 1 else ())
    return {"reid.detections_grouped": len(detections)}


def _batch_tasks(args, kwargs, result) -> dict[str, int]:
    tasks = kwargs.get("tasks", args[1] if len(args) > 1 else ())
    return {"detection.batch_tasks": len(tasks)}


def _checkpoint_bytes(args, kwargs, result) -> dict[str, int]:
    return {"checkpoint.bytes": Path(result).stat().st_size}


# Extra counts taken from a span's arguments or result, outside the
# span's timed interval.
MEASURES: dict[str, Callable] = {
    "reid.group": _grouped_detections,
    "detection.batch": _batch_tasks,
    "checkpoint.save": _checkpoint_bytes,
}


class SpanRecorder:
    """In-memory span table plus call counters.

    Each span is a list ``[name, parent, phase, nested, start, end]``;
    ``parent`` is the index of the enclosing span (-1 at top level)
    and ``nested`` marks a span opened inside another span of the same
    name, so totals never count a recursive call twice.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, opened = self.spans, self._stack, self._open
        measure = MEASURES.get(name)
        recorder = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [
                name,
                stack[-1] if stack else -1,
                recorder.phase,
                opened[name] > 0,
                0.0,
                0.0,
            ]
            spans.append(span)
            stack.append(index)
            opened[name] += 1
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
                opened[name] -= 1
            if measure is not None:
                recorder.counts.update(measure(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        # The raw ``__dict__`` entry keeps classmethod wrappers intact.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, attr: str, make: Callable) -> int:
        """Wrap ``attr`` on ``cls`` and every subclass defining it."""
        wrapped = 0
        pending = [cls]
        seen: set[type] = set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            raw = klass.__dict__.get(attr)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                value = type(raw)(make(raw.__func__))
            else:
                value = make(raw)
            self._set(klass, attr, value)
            wrapped += 1
        return wrapped

    def _wrap_function(self, module_name: str, attr: str,
                       make: Callable) -> int:
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make(original)
        wrapped = 0
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)
                    wrapped += 1
        return wrapped

    def install(self) -> None:
        """Wrap every boundary in :data:`SPANS` and :data:`COUNTS`.

        A boundary the program no longer has is reported on stderr and
        skipped, so its metrics read 0 instead of the run failing.
        """
        table = [(n, m, a, self._span_wrapper) for n, m, a in SPANS]
        table += [(n, m, a, self._count_wrapper) for n, m, a in COUNTS]
        for name, module_name, qualname, factory in table:

            def make(fn, name=name, factory=factory):
                return factory(name, fn)

            try:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, attr = qualname.split(".")
                    wrapped = self._wrap_method(
                        getattr(module, class_name), attr, make
                    )
                else:
                    wrapped = self._wrap_function(module_name, qualname, make)
            except (ImportError, AttributeError):
                wrapped = 0
            if not wrapped:
                print(f"trace: {module_name}.{qualname} not found; "
                      f"{name} reads 0", file=sys.stderr)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Keys ``calls``, ``total_s`` and ``self_s`` over every span,
        plus ``setup_calls`` and ``setup_s`` over set-up phase spans.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                covered[span[1]] += span[5] - span[4]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                     "setup_calls": 0, "setup_s": 0.0}
        )
        for index, (name, _, phase, nested, start, end) in enumerate(
            self.spans
        ):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered[index]
            if phase == "setup":
                entry["setup_calls"] += 1
            if not nested:
                entry["total_s"] += end - start
                if phase == "setup":
                    entry["setup_s"] += end - start
        return out

    def write(self, path: Path) -> None:
        """Write the span table as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, parent, phase, _, start, end) in enumerate(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "phase": phase, "start": start, "end": end,
                }) + "\n")
