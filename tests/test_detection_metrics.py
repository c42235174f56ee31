"""Tests for detection metrics: matching, precision/recall, sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.base import BoundingBox, Detection
from repro.detection.metrics import (
    DEFAULT_IOU_THRESHOLD,
    DetectionCounts,
    best_threshold,
    f_score,
    match_detections,
    precision_recall,
    sweep_thresholds,
)


def det(x, y, w, h, score):
    return Detection(
        bbox=BoundingBox(x, y, w, h),
        score=score,
        camera_id="c",
        frame_index=0,
        algorithm="HOG",
    )


class TestFScore:
    def test_balanced(self):
        assert f_score(0.5, 0.5) == pytest.approx(0.5)

    def test_harmonic_mean(self):
        assert f_score(1.0, 0.5) == pytest.approx(2 / 3)

    def test_zero_when_both_zero(self):
        assert f_score(0.0, 0.0) == 0.0

    def test_paper_example(self):
        # Table II LSVM: recall 0.89, precision 0.90 -> 0.89
        assert f_score(0.89, 0.90) == pytest.approx(0.895, abs=0.01)


class TestDetectionCounts:
    def test_precision_recall(self):
        c = DetectionCounts(tp=8, fp=2, fn=4)
        assert c.precision == pytest.approx(0.8)
        assert c.recall == pytest.approx(8 / 12)

    def test_empty_counts(self):
        c = DetectionCounts()
        assert c.precision == 0.0
        assert c.recall == 0.0
        assert c.f_score == 0.0

    def test_add(self):
        total = DetectionCounts(1, 2, 3).add(DetectionCounts(4, 5, 6))
        assert (total.tp, total.fp, total.fn) == (5, 7, 9)


class TestMatchDetections:
    def test_perfect_match(self):
        gt = [BoundingBox(0, 0, 10, 20), BoundingBox(50, 0, 10, 20)]
        detections = [det(0, 0, 10, 20, 1.0), det(50, 0, 10, 20, 0.9)]
        counts = match_detections(detections, gt)
        assert (counts.tp, counts.fp, counts.fn) == (2, 0, 0)

    def test_false_positive(self):
        gt = [BoundingBox(0, 0, 10, 20)]
        detections = [det(0, 0, 10, 20, 1.0), det(100, 100, 10, 20, 0.9)]
        counts = match_detections(detections, gt)
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 0)

    def test_missed_object(self):
        gt = [BoundingBox(0, 0, 10, 20), BoundingBox(50, 0, 10, 20)]
        counts = match_detections([det(0, 0, 10, 20, 1.0)], gt)
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 1)

    def test_each_gt_matched_once(self):
        """Duplicate detections on one object: one TP, rest FP."""
        gt = [BoundingBox(0, 0, 10, 20)]
        detections = [det(0, 0, 10, 20, 1.0), det(1, 1, 10, 20, 0.9)]
        counts = match_detections(detections, gt)
        assert (counts.tp, counts.fp) == (1, 1)

    def test_highest_score_wins_ambiguity(self):
        gt = [BoundingBox(0, 0, 10, 20)]
        weak = det(2, 2, 10, 20, 0.1)
        strong = det(0, 0, 10, 20, 0.9)
        counts = match_detections([weak, strong], gt)
        assert counts.tp == 1

    def test_iou_threshold_respected(self):
        gt = [BoundingBox(0, 0, 10, 10)]
        barely = det(8, 8, 10, 10, 1.0)  # IoU ~ 0.02
        counts = match_detections([barely], gt, iou_threshold=0.4)
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)


class TestSweeps:
    def _frames(self):
        gt = [BoundingBox(0, 0, 10, 20), BoundingBox(50, 0, 10, 20)]
        detections = [
            det(0, 0, 10, 20, 0.9),     # TP, high score
            det(50, 0, 10, 20, 0.5),    # TP, mid score
            det(100, 0, 10, 20, 0.3),   # FP, low score
            det(200, 0, 10, 20, 0.2),   # FP, low score
        ]
        return [(detections, gt)]

    def test_precision_recall_at_thresholds(self):
        frames = self._frames()
        high = precision_recall(frames, 0.8)
        assert (high.tp, high.fp, high.fn) == (1, 0, 1)
        low = precision_recall(frames, 0.0)
        assert (low.tp, low.fp, low.fn) == (2, 2, 0)

    def test_sweep_returns_ascending_thresholds(self):
        sweep = sweep_thresholds(self._frames(), num_steps=10)
        thresholds = [t for t, _ in sweep]
        assert thresholds == sorted(thresholds)

    def test_best_threshold_filters_false_positives(self):
        threshold, counts = best_threshold(self._frames(), num_steps=30)
        # Optimal cut keeps both TPs and drops both FPs.
        assert 0.3 < threshold <= 0.5
        assert counts.f_score == pytest.approx(1.0)

    def test_best_threshold_empty_raises(self):
        with pytest.raises(ValueError):
            best_threshold([([], [])])

    def test_sweep_empty_detections(self):
        assert sweep_thresholds([([], [BoundingBox(0, 0, 1, 1)])]) == []


# ----------------------------------------------------------------------
# Oracle: the per-threshold sweep the one-pass sweep must reproduce.
# ----------------------------------------------------------------------
def reference_match(detections, ground_truth, iou_threshold):
    """Greedy IoU matching, highest score first, one frame at a time."""
    counts = DetectionCounts()
    available = list(range(len(ground_truth)))
    for d in sorted(detections, key=lambda d: -d.score):
        best_iou = 0.0
        best_idx = None
        for idx in available:
            iou = d.bbox.iou(ground_truth[idx])
            if iou > best_iou:
                best_iou = iou
                best_idx = idx
        if best_idx is not None and best_iou >= iou_threshold:
            counts.tp += 1
            available.remove(best_idx)
        else:
            counts.fp += 1
    counts.fn = len(available)
    return counts


def reference_sweep(frames, num_steps, iou_threshold):
    """Re-match every frame from scratch at each ``linspace`` threshold."""
    scores = np.array([d.score for dets, _ in frames for d in dets])
    if scores.size == 0:
        return []
    lo, hi = float(scores.min()), float(scores.max())
    if hi - lo < 1e-12:
        thresholds = [lo]
    else:
        thresholds = list(np.linspace(lo, hi, num_steps))
    sweep = []
    for t in thresholds:
        total = DetectionCounts()
        for dets, truths in frames:
            kept = [d for d in dets if d.score >= t]
            total = total.add(reference_match(kept, truths, iou_threshold))
        sweep.append((t, total))
    return sweep


def as_rows(sweep):
    return [(t, c.tp, c.fp, c.fn) for t, c in sweep]


# Small integer boxes on a small canvas: overlaps, exact duplicates,
# ties in IoU and zero-area boxes all come up often.
boxes = st.builds(
    BoundingBox,
    x=st.integers(0, 12),
    y=st.integers(0, 12),
    w=st.integers(0, 8),
    h=st.integers(0, 8),
)
# Scores from a coarse grid collide often and land exactly on the
# ``linspace`` thresholds; free floats cover the general case.
scores = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
)
frame_lists = st.lists(
    st.tuples(
        st.lists(st.tuples(boxes, scores), max_size=6),
        st.lists(boxes, max_size=4),
    ),
    max_size=5,
).map(lambda raw: [
    ([det(b.x, b.y, b.w, b.h, score) for b, score in dets], truths)
    for dets, truths in raw
])
iou_thresholds = st.sampled_from([DEFAULT_IOU_THRESHOLD, 0.0, 0.5, 1.0])


class TestOnePassSweepOracle:
    @settings(max_examples=300, deadline=None)
    @given(frame_lists, st.sampled_from([1, 2, 5, 9, 40]), iou_thresholds)
    def test_matches_per_threshold_sweep(self, frames, num_steps, iou_t):
        got = as_rows(sweep_thresholds(frames, num_steps, iou_t))
        assert got == as_rows(reference_sweep(frames, num_steps, iou_t))

    @settings(max_examples=300, deadline=None)
    @given(frame_lists, iou_thresholds)
    def test_match_detections_matches_reference(self, frames, iou_t):
        for dets, truths in frames:
            got = match_detections(dets, truths, iou_t)
            want = reference_match(dets, truths, iou_t)
            assert (got.tp, got.fp, got.fn) == (want.tp, want.fp, want.fn)

    @pytest.mark.parametrize(
        "frames",
        [
            pytest.param(
                [([det(0, 0, 10, 10, 0.5), det(0, 0, 10, 10, 0.5),
                   det(30, 0, 10, 10, 0.5)],
                  [BoundingBox(0, 0, 10, 10)])],
                id="single-score-range",
            ),
            pytest.param(
                [([det(0, 0, 10, 10, 0.0), det(1, 0, 10, 10, 0.5),
                   det(30, 0, 10, 10, 0.5), det(2, 0, 10, 10, 1.0)],
                  [BoundingBox(0, 0, 10, 10), BoundingBox(30, 0, 10, 10)])],
                id="duplicate-scores-on-thresholds",
            ),
            pytest.param(
                # The top detection sits halfway between two truth
                # boxes (IoU 2/3 with both) and claims the first; the
                # second detection only overlaps the other one enough.
                [([det(2, 0, 10, 10, 0.9), det(8, 0, 10, 10, 0.3),
                   det(0, 0, 10, 10, 0.1)],
                  [BoundingBox(0, 0, 10, 10), BoundingBox(4, 0, 10, 10)])],
                id="equal-iou-to-two-truths",
            ),
            pytest.param(
                [([det(0, 0, 0, 0, 0.9), det(0, 0, 10, 0, 0.4),
                   det(0, 0, 10, 10, 0.2)],
                  [BoundingBox(0, 0, 0, 0), BoundingBox(0, 0, 10, 10)])],
                id="zero-area-boxes",
            ),
            pytest.param(
                [([], [BoundingBox(0, 0, 10, 10)]),
                 ([det(0, 0, 10, 10, 0.7), det(50, 0, 10, 10, 0.2)], []),
                 ([det(0, 0, 10, 10, 0.4)], [BoundingBox(1, 1, 10, 10)])],
                id="frames-without-detections-or-truths",
            ),
        ],
    )
    @pytest.mark.parametrize("num_steps", [1, 3, 5, 40])
    def test_edge_cases(self, frames, num_steps):
        got = as_rows(sweep_thresholds(frames, num_steps))
        assert got == as_rows(
            reference_sweep(frames, num_steps, DEFAULT_IOU_THRESHOLD)
        )
        assert got


class TestSweepIouFloor:
    """The sweep matches each frame once, whatever the step count.

    Counts ``BoundingBox.iou`` calls instead of timing anything, so a
    return to per-threshold re-matching fails deterministically.
    """

    def _frames(self):
        rng = np.random.default_rng(3)
        frames = []
        for _ in range(12):
            truths = [
                BoundingBox(*rng.integers(0, 40, 2), *rng.integers(4, 12, 2))
                for _ in range(rng.integers(0, 5))
            ]
            dets = [
                det(*rng.integers(0, 40, 2), *rng.integers(4, 12, 2),
                    float(rng.normal()))
                for _ in range(rng.integers(0, 8))
            ]
            frames.append((dets, truths))
        return frames

    def _iou_calls(self, monkeypatch, frames, num_steps):
        calls = []
        original = BoundingBox.iou

        def counting(self, other):
            calls.append(None)
            return original(self, other)

        with monkeypatch.context() as patch:
            patch.setattr(BoundingBox, "iou", counting)
            sweep_thresholds(frames, num_steps=num_steps)
        return len(calls)

    def test_iou_calls_independent_of_num_steps(self, monkeypatch):
        frames = self._frames()
        coarse = self._iou_calls(monkeypatch, frames, 10)
        fine = self._iou_calls(monkeypatch, frames, 1000)
        bound = sum(len(dets) * len(truths) for dets, truths in frames)
        assert 0 < coarse == fine <= bound
