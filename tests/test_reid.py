"""Tests for cross-camera re-identification and fusion."""

import numpy as np
import pytest

from repro.detection.base import BoundingBox, Detection
from repro.geometry.homography import Homography
from repro.reid.fusion import ObjectGroup, fuse_probabilities
from repro.reid.mahalanobis import MahalanobisMetric
from repro.reid.matcher import CrossCameraMatcher


class TestFuseProbabilities:
    def test_single_camera_unchanged(self):
        assert fuse_probabilities([0.7]) == pytest.approx(0.7)

    def test_two_cameras_eq6(self):
        """Eq. 6: 1 - (1-p1)(1-p2)."""
        assert fuse_probabilities([0.6, 0.5]) == pytest.approx(0.8)

    def test_monotone_in_members(self):
        assert fuse_probabilities([0.5, 0.5]) > fuse_probabilities([0.5])

    def test_certain_camera_dominates(self):
        assert fuse_probabilities([1.0, 0.1]) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert fuse_probabilities([]) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fuse_probabilities([1.5])

    def test_commutative(self):
        assert fuse_probabilities([0.3, 0.8, 0.1]) == pytest.approx(
            fuse_probabilities([0.8, 0.1, 0.3])
        )


class TestObjectGroup:
    def _det(self, camera, prob, truth_id=None):
        return Detection(
            bbox=BoundingBox(0, 0, 10, 20),
            score=0.5,
            camera_id=camera,
            frame_index=0,
            algorithm="HOG",
            probability=prob,
            truth_id=truth_id,
        )

    def test_fused_probability(self):
        group = ObjectGroup(
            detections=[self._det("c1", 0.6), self._det("c2", 0.5)]
        )
        assert group.fused_probability == pytest.approx(0.8)

    def test_nan_probability_falls_back_to_score(self):
        group = ObjectGroup(detections=[self._det("c1", float("nan"))])
        assert group.fused_probability == pytest.approx(0.5)

    def test_majority_truth_id(self):
        group = ObjectGroup(detections=[
            self._det("c1", 0.5, truth_id=3),
            self._det("c2", 0.5, truth_id=3),
            self._det("c3", 0.5, truth_id=7),
        ])
        assert group.majority_truth_id == 3
        assert group.is_true_object

    def test_false_positive_group(self):
        group = ObjectGroup(detections=[self._det("c1", 0.5)])
        assert not group.is_true_object
        assert group.majority_truth_id is None


class TestMahalanobis:
    def test_identity_on_whitened_data(self, rng):
        data = rng.normal(size=(500, 4))
        metric = MahalanobisMetric(shrinkage=0.0).fit(data)
        a, b = np.zeros(4), np.ones(4)
        # Whitened data: Mahalanobis ~ Euclidean.
        assert metric.distance(a, b) == pytest.approx(2.0, rel=0.2)

    def test_scales_by_variance(self, rng):
        data = rng.normal(size=(500, 2)) * np.array([10.0, 0.1])
        metric = MahalanobisMetric(shrinkage=0.0).fit(data)
        along_wide = metric.distance([0, 0], [1, 0])
        along_narrow = metric.distance([0, 0], [0, 1])
        assert along_narrow > along_wide

    def test_distance_zero_to_self(self, rng):
        metric = MahalanobisMetric().fit(rng.normal(size=(50, 3)))
        assert metric.distance([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0)

    def test_symmetric(self, rng):
        metric = MahalanobisMetric().fit(rng.normal(size=(50, 3)))
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert metric.distance(a, b) == pytest.approx(metric.distance(b, a))

    def test_pairwise_matches_distance(self, rng):
        metric = MahalanobisMetric().fit(rng.normal(size=(60, 4)))
        pts = rng.normal(size=(5, 4))
        pairwise = metric.pairwise(pts)
        assert pairwise[1, 3] == pytest.approx(
            metric.distance(pts[1], pts[3])
        )
        np.testing.assert_allclose(pairwise, pairwise.T)

    def test_pca_reduction(self, rng):
        data = rng.normal(size=(100, 10))
        metric = MahalanobisMetric(n_components=3).fit(data)
        assert metric.distance(data[0], data[1]) >= 0.0

    def test_use_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MahalanobisMetric().distance([0], [1])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            MahalanobisMetric().fit(np.zeros((1, 3)))

    def test_rejects_bad_shrinkage(self):
        with pytest.raises(ValueError):
            MahalanobisMetric(shrinkage=2.0)


def identity_matcher(num_cameras=3, use_color=False, metric=None):
    homographies = {
        f"c{i}": Homography.identity() for i in range(1, num_cameras + 1)
    }
    return CrossCameraMatcher(
        homographies,
        ground_radius=5.0,
        color_metric=metric,
        use_color=use_color,
    )


def detection(camera, x, y, score=0.9, truth_id=None, color=None):
    return Detection(
        bbox=BoundingBox(x - 5, y - 20, 10, 20),
        score=score,
        camera_id=camera,
        frame_index=0,
        algorithm="HOG",
        color_feature=color if color is not None else np.full(40, 0.5),
        truth_id=truth_id,
    )


class TestCrossCameraMatcher:
    def test_groups_nearby_detections(self):
        matcher = identity_matcher()
        groups = matcher.group([
            detection("c1", 100, 100, truth_id=1),
            detection("c2", 102, 101, truth_id=1),
        ])
        assert len(groups) == 1
        assert len(groups[0]) == 2

    def test_separates_distant_detections(self):
        matcher = identity_matcher()
        groups = matcher.group([
            detection("c1", 100, 100),
            detection("c2", 300, 300),
        ])
        assert len(groups) == 2

    def test_same_camera_never_grouped(self):
        matcher = identity_matcher()
        groups = matcher.group([
            detection("c1", 100, 100),
            detection("c1", 101, 101),
        ])
        assert len(groups) == 2

    def test_color_gate_rejects_mismatch(self, rng):
        samples = rng.uniform(size=(200, 40))
        metric = MahalanobisMetric(shrinkage=0.3).fit(samples)
        matcher = identity_matcher(use_color=True, metric=metric)
        dark = np.full(40, 0.1)
        light = np.full(40, 0.9)
        groups = matcher.group([
            detection("c1", 100, 100, color=dark),
            detection("c2", 101, 100, color=light),
        ])
        assert len(groups) == 2

    def test_color_gate_accepts_match(self, rng):
        samples = rng.uniform(size=(200, 40))
        metric = MahalanobisMetric(shrinkage=0.3).fit(samples)
        matcher = identity_matcher(use_color=True, metric=metric)
        shade = np.full(40, 0.4)
        groups = matcher.group([
            detection("c1", 100, 100, color=shade),
            detection("c2", 101, 100, color=shade + 0.01),
        ])
        assert len(groups) == 1

    def test_unknown_camera_raises(self):
        matcher = identity_matcher()
        with pytest.raises(KeyError):
            matcher.group([detection("c9", 0, 0)])

    def test_reid_precision_pure_groups(self):
        matcher = identity_matcher()
        groups = matcher.group([
            detection("c1", 100, 100, truth_id=1),
            detection("c2", 101, 100, truth_id=1),
        ])
        assert matcher.reid_precision(groups) == 1.0

    def test_empty_input(self):
        assert identity_matcher().group([]) == []

    def test_rejects_no_homographies(self):
        with pytest.raises(ValueError):
            CrossCameraMatcher({})

    @pytest.mark.parametrize(
        "radius", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_bad_ground_radius(self, radius):
        """A NaN radius would pass a bare ``<= 0`` check and silently
        fail every gate; the error names the offending value."""
        with pytest.raises(ValueError, match=repr(radius)):
            CrossCameraMatcher(
                {"c1": Homography.identity()}, ground_radius=radius
            )


class TestEndToEndReid:
    """Re-identification on the real synthetic dataset (paper: >90%
    precision)."""

    def test_dataset_reid_precision(self, dataset1, rng):
        from repro.detection.detectors import make_detector

        detector = make_detector("LSVM", dataset1.environment)
        matcher = CrossCameraMatcher(
            dataset1.ground_homographies(), ground_radius=0.9
        )
        records = dataset1.frames(0, 250, only_ground_truth=True)
        precisions = []
        for record in records:
            detections = []
            for camera_id in dataset1.camera_ids:
                obs = record.observation(camera_id)
                detections.extend(
                    detector.detect(obs, rng, threshold=-1.2)
                )
            groups = matcher.group(detections)
            precisions.append(matcher.reid_precision(groups))
        # Homography-only matching already sits near the paper's >90%
        # bound; the colour-verification ablation benchmark shows the
        # full matcher exceeding it.
        assert np.mean(precisions) >= 0.88
