"""repro: a reproduction of "Energy Efficient Object Detection in
Camera Sensor Networks" (EECS, ICDCS 2017).

The package implements the paper's coordination framework — GFK
domain-adaptation algorithm ranking, greedy camera-subset selection,
energy-aware algorithm downgrade, cross-camera re-identification and
Eq.-6 probability fusion — together with every substrate it needs:
a synthetic multi-camera pedestrian world, calibrated detector
simulations, from-scratch vision features (HOG / keypoints / BoW),
multi-view geometry, energy models fitted to the paper's smartphone
measurements, and a discrete-event sensor network.

Quickstart::

    from repro import DeploymentContext, DeploymentEngine, make_dataset

    context = DeploymentContext.build(make_dataset(1))  # offline training
    engine = DeploymentEngine(context)
    result = engine.run("full", budget=2.0)
    print(result.humans_detected, result.energy_joules)
"""

from repro.core.config import EECSConfig
from repro.core.controller import EECSController, SelectionDecision
from repro.datasets.synthetic import SyntheticDataset, make_dataset
from repro.engine.context import DeploymentContext
from repro.engine.core import DeploymentEngine, RunResult

__version__ = "1.0.0"

__all__ = [
    "DeploymentContext",
    "DeploymentEngine",
    "EECSConfig",
    "EECSController",
    "SelectionDecision",
    "RunResult",
    "SyntheticDataset",
    "make_dataset",
    "__version__",
]
