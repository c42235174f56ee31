"""Frame-loop simulation of an EECS deployment (facade).

:class:`SimulationRunner` is the historical entry point for running a
deployment; since the engine refactor it is a thin facade over
:class:`repro.engine.core.DeploymentEngine` — one trained context, one
phase-scheduling loop, pluggable policies and execution backends.  The
public surface (constructor, :meth:`run`, attribute access) is
unchanged and bit-identical; new code should prefer the engine package
directly:

* ``repro.engine.DeploymentEngine`` — the unified simulation core.
* ``repro.engine.CoordinationPolicy`` — the strategy hierarchy behind
  the historical mode strings (``"all_best"``, ``"subset"``,
  ``"full"``, ``"fixed"``).
* ``repro.engine.DetectionExecutor`` — serial / process-pool
  detection backends (the ``workers`` plumbing).
* ``repro.engine.Environment`` — ideal frame feed vs. the
  fault-injected network.

Parallelism: every detection task draws from a generator seeded by the
run's entropy plus its ``(frame, camera, algorithm)`` coordinates, so
results do not depend on execution order.  With ``workers > 1`` the
per-camera detection work of each phase fans out over a process pool;
``workers=1`` (the default) runs the exact same tasks serially and is
guaranteed to produce identical output.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EECSConfig
from repro.core.calibration import TrainingLibrary
from repro.core.selection import AssessmentData
from repro.datasets.base import FrameRecord
from repro.datasets.synthetic import SyntheticDataset
from repro.detection.base import Detector
from repro.energy.meter import EnergyMeter
from repro.engine.context import (
    DeploymentContext,
    build_training_library,
    fit_color_metric,
    offline_train_camera,
)
from repro.engine.core import DeploymentEngine, RunResult
from repro.engine.executor import make_executor
from repro.perf.timing import TimingReport
from repro.telemetry.core import Telemetry
from repro.telemetry.trace import TracingTimingReport

__all__ = [
    "RunResult",
    "SimulationRunner",
    "build_training_library",
    "fit_color_metric",
    "offline_train_camera",
]


class SimulationRunner:
    """Drives a dataset through the EECS control loop.

    Construction trains a :class:`~repro.engine.context.DeploymentContext`
    (or adopts the supplied ``library``/``detectors``) and wraps a
    :class:`~repro.engine.core.DeploymentEngine` around it; ``run``
    resolves the historical mode string to a registered coordination
    policy.
    """

    def __init__(
        self,
        dataset: SyntheticDataset,
        config: EECSConfig | None = None,
        detectors: dict[str, Detector] | None = None,
        library: TrainingLibrary | None = None,
        rng: np.random.Generator | None = None,
        seed: int = 2017,
        workers: int = 1,
        timing: TimingReport | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if timing is None:
            timing = (
                TracingTimingReport(telemetry.tracer)
                if telemetry is not None
                else TimingReport()
            )
        rng = rng if rng is not None else np.random.default_rng(seed)
        context = DeploymentContext.build(
            dataset,
            config=config,
            detectors=detectors,
            library=library,
            rng=rng,
            timing=timing,
        )
        self.workers = workers
        self._engine = DeploymentEngine(
            context,
            seed=seed,
            rng=rng,
            executor=make_executor(workers),
            timing=timing,
            telemetry=telemetry,
        )

    @classmethod
    def from_engine(cls, engine: DeploymentEngine) -> "SimulationRunner":
        """Wrap an existing engine without re-training anything."""
        runner = cls.__new__(cls)
        runner.workers = engine.executor.workers
        runner._engine = engine
        return runner

    @property
    def engine(self) -> DeploymentEngine:
        """The deployment engine this facade drives."""
        return self._engine

    # -- delegated state ------------------------------------------------
    # Plain delegating properties (with setters where tests and
    # experiments historically rebound them) so the facade and the
    # engine can never disagree about which objects a run uses.
    @property
    def dataset(self) -> SyntheticDataset:
        return self._engine.dataset

    @property
    def config(self) -> EECSConfig:
        return self._engine.config

    @property
    def detectors(self) -> dict[str, Detector]:
        return self._engine.detectors

    @detectors.setter
    def detectors(self, value: dict[str, Detector]) -> None:
        self._engine.detectors = value

    @property
    def library(self) -> TrainingLibrary:
        return self._engine.library

    @library.setter
    def library(self, value: TrainingLibrary) -> None:
        self._engine.library = value

    @property
    def matcher(self):
        return self._engine.matcher

    @matcher.setter
    def matcher(self, value) -> None:
        self._engine.matcher = value

    @property
    def energy_model(self):
        return self._engine.energy_model

    @property
    def controller(self):
        return self._engine.controller

    @property
    def timing(self) -> TimingReport:
        return self._engine.timing

    @property
    def telemetry(self) -> Telemetry | None:
        return self._engine.telemetry

    @property
    def rng(self) -> np.random.Generator:
        return self._engine.rng

    @rng.setter
    def rng(self, value: np.random.Generator) -> None:
        self._engine.rng = value

    # -- delegated behaviour --------------------------------------------
    def run(
        self,
        mode: str = "full",
        budget: float | None = None,
        assignment: dict[str, str] | None = None,
        start: int | None = None,
        end: int | None = None,
        workers: int | None = None,
        resilience=None,
    ) -> RunResult:
        """Simulate a deployment over the dataset's test segment.

        Args:
            mode: A registered policy name — ``"all_best"``,
                ``"subset"``, ``"full"`` or ``"fixed"``.
            budget: Per-frame energy budget applied to every camera
                (``None`` derives it from the battery as in the paper).
            assignment: Required for ``"fixed"`` mode: the static
                camera -> algorithm map to run.
            start: First frame (defaults to the test segment start).
            end: One past the last frame (defaults to the dataset end).
            workers: Override the runner's worker count for this run.
                Any value yields identical results; ``> 1`` fans
                detection work over a process pool.
            resilience: Optional
                :class:`~repro.resilience.ladder.ResilienceConfig`;
                the graceful-degradation layer is inert on the ideal
                feed (no faults can occur), so results are identical
                with or without it.
        """
        return self._engine.run(
            mode,
            budget=budget,
            assignment=assignment,
            start=start,
            end=end,
            workers=self.workers if workers is None else workers,
            resilience=resilience,
        )

    def _task_entropy(
        self, record: FrameRecord, camera_id: str, algorithm: str
    ) -> tuple[int, ...]:
        return self._engine._task_entropy(record, camera_id, algorithm)

    def _collect_assessment(
        self,
        records: list[FrameRecord],
        budget: float | None,
        meter: EnergyMeter,
    ) -> AssessmentData:
        return self._engine.collect_assessment(records, budget, meter)
