"""Batched detection: a round's tasks as one unit of work.

The engine carries a round's detection work as plain
:class:`DetectionTask` values — each names its algorithm, its frame
observation and the seed entropy of its private generator — and
:func:`run_batch` runs them: tasks grouped by algorithm, results
returned in task order, every task seeded from its own entropy.

Because each task's generator is a pure function of its (frame,
camera, algorithm) coordinates, batching changes *in what grouping*
tasks run but never *what* they compute: results are bit-identical to
the one-task-at-a-time path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.detection.base import Detection, Detector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.world.renderer import FrameObservation


@dataclass(frozen=True)
class DetectionTask:
    """One self-contained detection work unit.

    Attributes:
        algorithm: Name of the detector to run (a key of the engine's
            detector suite).
        observation: The frame observation to detect on.
        entropy: Seed entropy of the task's private generator — a pure
            function of the run configuration and the task's (frame,
            camera, algorithm) coordinates, never of execution order.
        threshold: Score cut-off (``None`` keeps every candidate).
    """

    algorithm: str
    observation: "FrameObservation"
    entropy: tuple[int, ...]
    threshold: float | None

    def make_rng(self) -> np.random.Generator:
        """The task's private, coordinate-seeded generator."""
        return np.random.default_rng(list(self.entropy))


def run_batch(
    detectors: Mapping[str, Detector],
    tasks: Sequence[DetectionTask],
) -> list[list[Detection]]:
    """Execute tasks against a detector suite, preserving task order.

    Tasks are grouped by algorithm so batch-aware detectors (see
    ``SimulatedDetector.detect_batch``) can vectorise their shared
    per-view computation across the whole group; detectors without a
    batch entry point fall back to the per-task loop in
    :meth:`~repro.detection.base.Detector.detect_batch`.
    """
    results: list[list[Detection] | None] = [None] * len(tasks)
    groups: dict[str, list[int]] = {}
    for index, task in enumerate(tasks):
        groups.setdefault(task.algorithm, []).append(index)
    for algorithm, indices in groups.items():
        detector = detectors[algorithm]
        outputs = detector.detect_batch([tasks[i] for i in indices])
        for index, output in zip(indices, outputs):
            results[index] = output
    return results  # type: ignore[return-value]
