"""Detection accuracy metrics: precision, recall, f_score, sweeps.

Matches detections to ground-truth boxes greedily by IoU (highest
score first) and accumulates true/false positives and misses; a
threshold sweep then finds the f_score-maximising cut-off ``d_t`` the
paper uses per (algorithm, training video) pair (Section VI-A).  The
sweep matches each frame once and reads every threshold's counts off
that single match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.base import BoundingBox, Detection

DEFAULT_IOU_THRESHOLD = 0.4


@dataclass
class DetectionCounts:
    """Accumulated detection outcomes."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def recall(self) -> float:
        total = self.tp + self.fn
        return self.tp / total if total else 0.0

    @property
    def f_score(self) -> float:
        return f_score(self.recall, self.precision)

    def add(self, other: "DetectionCounts") -> "DetectionCounts":
        return DetectionCounts(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
        )


def f_score(recall: float, precision: float) -> float:
    """The harmonic mean the paper balances precision and recall with."""
    if recall + precision <= 0:
        return 0.0
    return 2.0 * recall * precision / (recall + precision)


def _greedy_match(
    detections: list[Detection],
    ground_truth: list[BoundingBox],
    iou_threshold: float,
) -> list[tuple[float, bool]]:
    """Greedy IoU matching of one frame's detections to its truth boxes.

    Detections are taken in decreasing score order (a stable sort, so
    score ties keep their input order); each claims the still-unclaimed
    truth box it overlaps most, if that IoU reaches ``iou_threshold``.
    Returns ``(score, is_true_positive)`` per detection in that order.
    """
    available = list(range(len(ground_truth)))
    matched = []
    for det in sorted(detections, key=lambda d: -d.score):
        best_iou = 0.0
        best_idx = None
        for idx in available:
            iou = det.bbox.iou(ground_truth[idx])
            if iou > best_iou:
                best_iou = iou
                best_idx = idx
        is_tp = best_idx is not None and best_iou >= iou_threshold
        if is_tp:
            available.remove(best_idx)
        matched.append((det.score, is_tp))
    return matched


def match_detections(
    detections: list[Detection],
    ground_truth: list[BoundingBox],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> DetectionCounts:
    """Greedy IoU matching of one frame's detections to its truth boxes.

    Each ground-truth box absorbs at most one detection; detections
    are considered in decreasing score order.
    """
    matched = _greedy_match(detections, ground_truth, iou_threshold)
    tp = sum(is_tp for _, is_tp in matched)
    return DetectionCounts(
        tp=tp, fp=len(detections) - tp, fn=len(ground_truth) - tp
    )


def precision_recall(
    frames: list[tuple[list[Detection], list[BoundingBox]]],
    threshold: float,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> DetectionCounts:
    """Accumulate counts over frames, applying a score cut-off.

    Args:
        frames: Pairs of (all scored detections, ground-truth boxes).
        threshold: Minimum score to keep a detection.
    """
    total = DetectionCounts()
    for detections, truths in frames:
        kept = [d for d in detections if d.score >= threshold]
        total = total.add(match_detections(kept, truths, iou_threshold))
    return total


def sweep_thresholds(
    frames: list[tuple[list[Detection], list[BoundingBox]]],
    num_steps: int = 40,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> list[tuple[float, DetectionCounts]]:
    """Evaluate counts across a range of score thresholds.

    The candidate thresholds span the observed score range; returns
    (threshold, counts) pairs in ascending threshold order, equal to
    :func:`precision_recall` at each threshold.

    Each frame is matched once, over all its detections.  Matching
    runs in decreasing score order, so the detections a threshold
    keeps (``score >= t``) are a prefix of that order, and greedy
    matching of a prefix is the prefix of the full matching: every
    kept detection has the same true/false-positive outcome as in the
    full match.  A threshold's TP count is therefore the number of
    true positives scoring ``>= t``, FP the rest of the kept
    detections and FN the truth boxes left over.
    """
    matched = [
        pair
        for detections, truths in frames
        for pair in _greedy_match(detections, truths, iou_threshold)
    ]
    if not matched:
        return []
    scores = np.sort([score for score, _ in matched])
    tp_scores = np.sort([score for score, is_tp in matched if is_tp])
    lo, hi = float(scores[0]), float(scores[-1])
    if hi - lo < 1e-12:
        thresholds = [lo]
    else:
        thresholds = list(np.linspace(lo, hi, num_steps))
    kept = scores.size - np.searchsorted(scores, thresholds)
    tps = tp_scores.size - np.searchsorted(tp_scores, thresholds)
    num_truths = sum(len(truths) for _, truths in frames)
    return [
        (t, DetectionCounts(tp=tp, fp=k - tp, fn=num_truths - tp))
        for t, k, tp in zip(thresholds, kept.tolist(), tps.tolist())
    ]


def best_threshold(
    frames: list[tuple[list[Detection], list[BoundingBox]]],
    num_steps: int = 40,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> tuple[float, DetectionCounts]:
    """The f_score-maximising cut-off ``d_t`` and its counts."""
    sweep = sweep_thresholds(frames, num_steps, iou_threshold)
    if not sweep:
        raise ValueError("no detections to sweep thresholds over")
    return max(sweep, key=lambda item: item[1].f_score)
