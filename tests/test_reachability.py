"""Reachability: every definition in ``src/repro`` is used by the program.

Dead code hides in plain sight: a function that only its own tests
call still looks alive.  This check walks ``src/repro`` with the
stdlib :mod:`ast` module (no linter or coverage tool is a dependency)
and requires every top-level function, class and method to be
referenced by name from ``src/``, ``examples/``, ``benchmarks/`` or
``perfbench/``.

A *reference* is a use: a bare name, an attribute access, or a string
naming it (``perfbench`` wraps layer boundaries such as
``"CrossCameraMatcher.group"`` by string).  Imports and ``__all__``
entries are not uses; otherwise every re-exported name would count as
alive.  Dunder methods are called by Python itself and are skipped.
Matching is by bare name, so the check is coarse: a method named
``run`` is alive if anything calls ``.run``.

Definitions used only from ``tests/`` (or only by a framework) stay
on :data:`ALLOWLIST`, each with its reason:

* ``oracle`` — a pinned reference implementation a fast path must
  match exactly;
* ``public-api`` — library surface kept for users of the package;
* ``callback`` — invoked by a framework or a registry, never by name
  (``http.server`` handler methods, policies resolved by name).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROGRAM_DIRS = ("src", "examples", "benchmarks", "perfbench")
TEST_DIRS = ("tests",)
REASONS = ("oracle", "public-api", "callback")

ALLOWLIST: dict[str, str] = {
    # Pinned reference paths that fast paths are tested against.
    "repro.vision.hog.hog_descriptor_reference": "oracle",
    "repro.vision.keypoints.describe_keypoint": "oracle",
    "repro.vision.kmeans.KMeans._update_centroids_reference": "oracle",
    # Resolved by name from the policy registry, or called by
    # http.server.
    "repro.engine.fleet.FullCellPolicy": "callback",
    "repro.engine.fleet.PeerPolicy": "callback",
    "repro.engine.policy.AllBestPolicy": "callback",
    "repro.engine.policy.FixedAssignmentPolicy": "callback",
    "repro.engine.policy.FullEECSPolicy": "callback",
    "repro.telemetry.exporter._Handler.do_GET": "callback",
    "repro.telemetry.exporter._Handler.log_message": "callback",
    # Library surface used only by its tests.
    "repro.core.change_detector.CusumDetector.statistic": "public-api",
    "repro.core.change_detector.EnvironmentChangeDetector": "public-api",
    "repro.core.change_detector.EnvironmentChangeDetector.calibrate": (
        "public-api"
    ),
    "repro.core.controller.SelectionDecision.active_cameras": "public-api",
    "repro.core.ranking.rank_algorithms": "public-api",
    "repro.datasets.base.VideoSegment.camera_frames": "public-api",
    "repro.datasets.base.VideoSegment.ground_truth_frames": "public-api",
    "repro.detection.base.BoundingBox.as_tuple": "public-api",
    "repro.detection.base.Detection.metadata_bytes": "public-api",
    "repro.domain_adaptation.manifold.orthonormalize": "public-api",
    "repro.domain_adaptation.manifold.projection_frobenius_distance": (
        "public-api"
    ),
    "repro.domain_adaptation.manifold.subspace_distance": "public-api",
    "repro.domain_adaptation.pca.PCA.fit_transform": "public-api",
    "repro.domain_adaptation.pca.pca_basis": "public-api",
    "repro.domain_adaptation.similarity.VideoComparator.training_names": (
        "public-api"
    ),
    "repro.energy.battery.Battery.deplete": "public-api",
    "repro.energy.communication.CommunicationEnergyModel"
    ".feature_upload_cost": "public-api",
    "repro.energy.meter.EnergyMeter.reset": "public-api",
    "repro.energy.model.ProcessingEnergyModel.affordable": "public-api",
    "repro.engine.clock.SimulationClock.reset": "public-api",
    "repro.engine.environment.IdealEnvironment": "public-api",
    "repro.faults.events.FaultLog.kinds": "public-api",
    "repro.faults.plan.FaultPlan.is_empty": "public-api",
    "repro.geometry.camera.CameraIntrinsics.pixels": "public-api",
    "repro.geometry.camera.CameraIntrinsics.resolution": "public-api",
    "repro.geometry.camera.PinholeCamera.backproject_to_ground": (
        "public-api"
    ),
    "repro.geometry.camera.PinholeCamera.is_visible": "public-api",
    "repro.geometry.camera.PinholeCamera.project_ground": "public-api",
    "repro.geometry.camera.PinholeCamera.projection_matrix": "public-api",
    "repro.geometry.homography.Homography.from_points": "public-api",
    "repro.geometry.homography.homography_between_cameras": "public-api",
    "repro.geometry.ransac.RansacResult.num_inliers": "public-api",
    "repro.geometry.ransac.ransac_homography": "public-api",
    "repro.network.link.WirelessLink.estimate_bandwidth": "public-api",
    "repro.network.reliability.ReliableTransport.in_flight": "public-api",
    "repro.persistence.load_library": "public-api",
    "repro.reid.fusion.fuse_probabilities": "public-api",
    "repro.reid.mahalanobis.MahalanobisMetric.pairwise": "public-api",
    "repro.telemetry.events.EventLog.kinds": "public-api",
    "repro.telemetry.live.SubscriberSink": "public-api",
    "repro.telemetry.live.check_stream_contiguous": "public-api",
    "repro.telemetry.metrics.Gauge.dec": "public-api",
    "repro.telemetry.metrics.MetricsRegistry.from_json": "public-api",
    "repro.telemetry.schema.validate_events_file": "public-api",
    "repro.telemetry.schema.validate_metrics_file": "public-api",
    "repro.telemetry.schema.validate_stream_file": "public-api",
    "repro.telemetry.schema.validate_trace_file": "public-api",
    "repro.telemetry.trace.Tracer.open_spans": "public-api",
    "repro.tracking.kalman.KalmanFilter2D.position_uncertainty": (
        "public-api"
    ),
    "repro.tracking.kalman.KalmanFilter2D.velocity": "public-api",
    "repro.vision.bow.BagOfWords.vocabulary": "public-api",
    "repro.vision.features.build_vocabulary": "public-api",
    "repro.vision.features.video_features": "public-api",
    "repro.vision.image.box_sum": "public-api",
    "repro.vision.image.integral_image": "public-api",
    "repro.vision.kmeans.KMeans.inertia": "public-api",
    "repro.world.environment.Environment.resolution": "public-api",
    "repro.world.pedestrian.Pedestrian.footprint": "public-api",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(src: Path) -> dict[str, str]:
    """Qualified name -> bare name of every top-level function and
    class, and every non-dunder method of a top-level class."""
    found: dict[str, str] = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            found[f"{module}.{node.name}"] = node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not _is_dunder(member.name):
                    found[f"{module}.{node.name}.{member.name}"] = member.name
    return found


def referenced_names(roots: list[Path]) -> set[str]:
    """Every name used in the Python files under ``roots``: bare names,
    attribute accesses and the identifier parts of string constants,
    excluding ``__all__`` lists."""
    names: set[str] = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            exported: set[int] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets
                ):
                    exported.update(id(n) for n in ast.walk(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in exported
                ):
                    names.update(
                        part
                        for part in node.value.split(".")
                        if part.isidentifier()
                    )
    return names


def unreferenced(src: Path, roots: list[Path]) -> list[str]:
    """Definitions under ``src`` that nothing under ``roots`` uses."""
    used = referenced_names(roots)
    return sorted(
        qualname
        for qualname, name in definitions(src).items()
        if name not in used
    )


@pytest.fixture(scope="module")
def program_unreferenced() -> list[str]:
    return unreferenced(SRC, [ROOT / d for d in PROGRAM_DIRS])


def test_every_definition_is_used_by_the_program(program_unreferenced):
    dead = [name for name in program_unreferenced if name not in ALLOWLIST]
    assert not dead, (
        "defined in src/repro but used nowhere in "
        f"{', '.join(PROGRAM_DIRS)}; delete it, or allowlist it with "
        "a reason:\n" + "\n".join(dead)
    )


def test_allowlist_has_no_stale_entries(program_unreferenced):
    """An entry that no longer exists, or that the program now uses,
    must leave the allowlist so it cannot hide a later regression."""
    stale = sorted(set(ALLOWLIST) - set(program_unreferenced))
    assert not stale, "remove from ALLOWLIST:\n" + "\n".join(stale)


def test_allowlist_reasons():
    """Every reason is a known one; oracles and public API must at
    least be exercised by the tests, or they are dead code too."""
    assert set(ALLOWLIST.values()) <= set(REASONS)
    tested = referenced_names([ROOT / d for d in TEST_DIRS])
    bare = definitions(SRC)
    untested = sorted(
        qualname
        for qualname, reason in ALLOWLIST.items()
        if reason != "callback" and bare.get(qualname) not in tested
    )
    assert not untested, (
        "allowlisted but never used by the tests:\n" + "\n".join(untested)
    )


class TestCheckerCatchesDeadCode:
    """The check only means something if it can fail."""

    def _tree(self, tmp_path: Path, user: str) -> tuple[Path, Path]:
        src = tmp_path / "src"
        (src / "pkg").mkdir(parents=True)
        (src / "pkg" / "__init__.py").write_text(
            "from pkg.mod import helper\n__all__ = ['helper']\n"
        )
        (src / "pkg" / "mod.py").write_text(
            "def helper():\n    return 1\n\n"
            "class Box:\n"
            "    def __len__(self):\n        return 0\n"
            "    def size(self):\n        return helper()\n"
        )
        uses = tmp_path / "uses"
        uses.mkdir()
        (uses / "main.py").write_text(user)
        return src, uses

    def test_import_and_export_are_not_uses(self, tmp_path):
        src, uses = self._tree(tmp_path, "from pkg import helper\n")
        assert unreferenced(src, [src, uses]) == [
            "pkg.mod.Box",
            "pkg.mod.Box.size",
        ]

    def test_calls_attributes_and_strings_are_uses(self, tmp_path):
        src, uses = self._tree(
            tmp_path, "import pkg\nbox = pkg.mod.Box()\nname = 'Box.size'\n"
        )
        assert unreferenced(src, [src, uses]) == []
