"""Equivalence oracles for the batched/vectorised fast paths.

Each optimised path in the detection pipeline keeps its original
one-at-a-time implementation as a pinned reference
(``detect_reference``, ``describe_keypoint``, ``group_reference``);
these tests assert the fast paths reproduce the references — bitwise
where the refactor preserves the arithmetic, structurally where only
the gating norm differs by design.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.base import BoundingBox, Detection
from repro.fleet.world import TiledFleetDataset, tiled_camera_id
from repro.geometry.homography import Homography
from repro.reid.matcher import CrossCameraMatcher


def _detection_signature(detections: list[Detection]):
    return [
        (d.bbox, d.score, d.camera_id, d.frame_index, d.algorithm,
         tuple(d.color_feature), d.truth_id)
        for d in detections
    ]


class TestDetectorBatchEquivalence:
    def test_detect_matches_reference(self, runner1):
        """The vectorised scoring path is the pinned model, bit for bit."""
        engine = runner1
        records = engine.dataset.frames(1000, 1200, only_ground_truth=True)
        checked = 0
        for record in records[:6]:
            for camera_id in engine.dataset.camera_ids:
                observation = record.observation(camera_id)
                for name, detector in engine.detectors.items():
                    entropy = [2017, record.frame_index, checked]
                    fast = detector.detect(
                        observation, np.random.default_rng(entropy)
                    )
                    reference = detector.detect_reference(
                        observation, np.random.default_rng(entropy)
                    )
                    assert _detection_signature(fast) == (
                        _detection_signature(reference)
                    ), f"{name} drifted from detect_reference"
                    checked += 1
        assert checked > 0

    def test_detect_batch_matches_sequential_detect(self, runner1):
        """Grouping tasks by algorithm changes nothing per task."""
        from repro.detection.batch import DetectionTask, run_batch

        engine = runner1
        records = engine.dataset.frames(1000, 1100, only_ground_truth=True)
        tasks = []
        for index, record in enumerate(records[:3]):
            for camera_id in engine.dataset.camera_ids:
                for name in sorted(engine.detectors):
                    tasks.append(
                        DetectionTask(
                            algorithm=name,
                            observation=record.observation(camera_id),
                            entropy=(2017, record.frame_index, index),
                            threshold=None,
                        )
                    )
        batched = run_batch(engine.detectors, tasks)
        sequential = [
            engine.detectors[t.algorithm].detect(
                t.observation, t.make_rng(), threshold=t.threshold
            )
            for t in tasks
        ]
        assert [
            _detection_signature(dets) for dets in batched
        ] == [_detection_signature(dets) for dets in sequential]


class TestDescriptorEquivalence:
    def test_describe_keypoints_matches_scalar(self, rng):
        from repro.vision.image import image_gradients
        from repro.vision.keypoints import (
            describe_keypoint,
            describe_keypoints,
            detect_keypoints,
        )

        for _ in range(5):
            image = rng.random((96, 128))
            keypoints = detect_keypoints(image, max_keypoints=50)
            if not keypoints:
                continue
            gx, gy = image_gradients(image)
            stacked = describe_keypoints(gx, gy, keypoints)
            for row, keypoint in zip(stacked, keypoints):
                scalar = describe_keypoint(gx, gy, keypoint)
                assert np.array_equal(row, scalar)


class TestGroupingEquivalence:
    def _random_detections(self, matcher, rng, count):
        cameras = list(matcher.image_to_ground)
        detections = []
        for i in range(count):
            w = float(rng.uniform(8, 20))
            h = float(rng.uniform(20, 50))
            detections.append(
                Detection(
                    bbox=BoundingBox(
                        x=float(rng.uniform(0, 140)),
                        y=float(rng.uniform(0, 90)),
                        w=w,
                        h=h,
                    ),
                    score=float(rng.uniform(0.1, 3.0)),
                    camera_id=cameras[int(rng.integers(len(cameras)))],
                    frame_index=1000,
                    algorithm="HOG",
                    color_feature=rng.normal(size=40),
                    truth_id=None,
                )
            )
        return detections

    @staticmethod
    def _assert_matches_reference(matcher, detections, label=""):
        """Same memberships and camera sets; centroids agree to float
        tolerance (the fast path's gating norm is scalar by design)."""
        fast = matcher.group(detections)
        reference = matcher.group_reference(detections)
        fast_members = [[id(d) for d in g.detections] for g in fast]
        ref_members = [[id(d) for d in g.detections] for g in reference]
        assert fast_members == ref_members, label
        for gf, gr in zip(fast, reference):
            assert gf.ground_point == pytest.approx(
                gr.ground_point, rel=1e-9, abs=1e-9, nan_ok=True
            ), label
        return fast

    def test_group_matches_reference(self, runner1, rng):
        matcher = runner1.matcher
        for trial in range(20):
            detections = self._random_detections(
                matcher, rng, count=int(rng.integers(2, 25))
            )
            self._assert_matches_reference(
                matcher, detections, f"trial {trial}"
            )

    def test_fleet_scale_frames_match_reference(self, runner1, rng):
        """Multi-tile frames of 100+ detections on a 64-camera tiled
        fleet: people seen by several cameras of their tile, with
        similar colours, so the grid serves many groups per frame and
        most of them fuse."""
        base = runner1.dataset
        fleet = TiledFleetDataset(base, 64)
        homographies = fleet.ground_homographies()
        base_matcher = runner1.matcher
        matcher = CrossCameraMatcher(
            homographies,
            ground_radius=base_matcher.ground_radius,
            color_metric=base_matcher.color_metric,
            color_threshold=base_matcher.color_threshold,
        )
        inverses = {c: h.inverse() for c, h in homographies.items()}
        for trial in range(6):
            detections = []
            for person in range(int(rng.integers(45, 60))):
                tile = int(rng.integers(fleet.num_tiles))
                cameras = [
                    tiled_camera_id(tile, c) for c in base.camera_ids
                ]
                seer = cameras[int(rng.integers(len(cameras)))]
                ground = homographies[seer].apply(
                    np.array([rng.uniform(20, 140), rng.uniform(40, 110)])
                )
                colour = rng.normal(size=40)
                for camera in cameras:
                    if camera != seer and rng.random() < 0.3:
                        continue
                    u, v = inverses[camera].apply(
                        ground + rng.normal(scale=0.2, size=2)
                    )
                    detections.append(
                        Detection(
                            bbox=BoundingBox(
                                x=u - 5.0, y=v - 30.0, w=10.0, h=30.0
                            ),
                            score=float(rng.uniform(0.1, 3.0)),
                            camera_id=camera,
                            frame_index=1000,
                            algorithm="HOG",
                            # Mahalanobis distances of ~0-3.5 around
                            # the 3.5 threshold: most pass, some fail.
                            color_feature=colour
                            + rng.normal(scale=rng.uniform(0, 0.05), size=40),
                            truth_id=tile * 1000 + person,
                        )
                    )
            assert len(detections) >= 100
            groups = self._assert_matches_reference(
                matcher, detections, f"trial {trial}"
            )
            assert sum(len(g) > 1 for g in groups) >= 10, f"trial {trial}"

    @staticmethod
    def _edge_matcher():
        """Identity homographies (ground = bottom-centre) at the default
        0.9 m radius, plus a camera whose image row y = 100 projects to
        infinity."""
        homographies = {f"c{i}": Homography.identity() for i in range(1, 5)}
        homographies["horizon"] = Homography(
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.01, -1.0]])
        )
        matcher = CrossCameraMatcher(homographies, ground_radius=0.9)
        # The cases below sit on the edges of 2 m cells (1 m halves).
        assert matcher._half_cell == 1.0
        return matcher

    @staticmethod
    def _at(camera, x, y, score):
        """A detection whose bottom-centre is exactly (x, y)."""
        return Detection(
            bbox=BoundingBox(x=x - 1.0, y=y - 2.0, w=2.0, h=2.0),
            score=score,
            camera_id=camera,
            frame_index=0,
            algorithm="HOG",
            color_feature=np.zeros(40),
            truth_id=None,
        )

    # (camera, x, y) in descending score order, and the expected
    # memberships as indices into that list.
    EDGE_CASES = {
        "cell_boundaries": (
            [("c1", 2.0, 2.0), ("c2", 1.5, 2.5), ("c1", 0.0, -4.0),
             ("c2", -0.75, -4.0), ("c1", 4.0, 6.0), ("c2", 3.375, 6.5),
             ("c3", 1.0, 1.0), ("c4", 1.0, 1.75)],
            [[0, 1], [2, 3], [4, 5], [6, 7]],
        ),
        "negative_coordinates": (
            [("c1", -0.25, -0.25), ("c2", 0.25, 0.25), ("c1", -2.0, -3.5),
             ("c2", -2.5, -3.0), ("c3", -1.75, -3.75),
             ("c4", -5e-324, -5e-324), ("c1", -1e6, -1e6),
             ("c2", -1e6 + 0.5, -1e6 - 0.5)],
            [[0, 1, 5], [2, 3, 4], [6, 7]],
        ),
        "diagonal_neighbours": (
            [("c1", 2.125, 2.125), ("c2", 1.625, 1.625),
             ("c1", -0.125, -0.125), ("c2", 0.5, 0.5)],
            [[0, 1], [2, 3]],
        ),
        "centroid_crosses_cell_edge": (
            [("c1", 1.875, 0.5), ("c2", 2.625, 0.5), ("c3", 3.0625, 0.5),
             ("c1", 0.5, 7.875), ("c2", 0.5, 8.625), ("c3", 0.5, 9.0625)],
            [[0, 1, 2], [3, 4, 5]],
        ),
        "non_finite_projection": (
            [("horizon", 3.0, 100.0), ("c1", 0.0, 0.0),
             ("horizon", 0.0, 100.0), ("c2", 0.25, 0.0),
             ("horizon", 3.0, 100.0)],
            [[0], [1, 3], [2], [4]],
        ),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_grid_edge_cases_match_reference(self, case):
        """Hand-built frames at the grid's edges: points on cell and
        half-cell boundaries, negative and subnormal coordinates,
        gates that reach a diagonal neighbour cell, a group whose
        running-mean centroid moves into a cell its next member's
        neighbourhood covers but its old cell does not, and points
        that project to infinity or NaN."""
        points, expected = self.EDGE_CASES[case]
        detections = [
            self._at(camera, x, y, score=10.0 - rank)
            for rank, (camera, x, y) in enumerate(points)
        ]
        with np.errstate(divide="ignore", invalid="ignore"):
            groups = self._assert_matches_reference(
                self._edge_matcher(), detections, case
            )
        index = {id(d): i for i, d in enumerate(detections)}
        assert [
            [index[id(d)] for d in g.detections] for g in groups
        ] == expected
