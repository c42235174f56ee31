"""Camera-subset selection and algorithm downgrade (Sections IV-B.3/4).

During an accuracy assessment period every camera runs all affordable
algorithms and uploads the detection metadata; the controller can then
*compute* — not guess — the global accuracy of any candidate
(camera subset, algorithm assignment) by fusing the stored metadata.
The greedy selection activates cameras in decreasing individual
accuracy until the desired accuracy is met; the downgrade pass then
walks the selected cameras in reverse order, substituting cheaper
algorithms while the requirement still holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.accuracy import (
    DesiredAccuracy,
    GlobalAccuracy,
    estimate_global_accuracy,
)
from repro.core.calibration import TrainingItem
from repro.core.ranking import efficiency_candidates
from repro.detection.base import Detection
from repro.reid.matcher import CrossCameraMatcher


@dataclass
class AssessmentData:
    """Detection metadata collected during one assessment period.

    ``frames[i][camera_id][algorithm]`` holds camera ``camera_id``'s
    thresholded, probability-calibrated detections on assessment frame
    ``i`` when running ``algorithm``.
    """

    frames: list[dict[str, dict[str, list[Detection]]]] = field(
        default_factory=list
    )
    #: Memo of fused accuracies keyed by assignment (see
    #: :meth:`SelectionEngine.global_accuracy`).  Selection evaluates
    #: the same assignment repeatedly (baseline, greedy growth,
    #: downgrade trials); the memo ties the cache's lifetime to the
    #: assessment whose metadata it summarises.
    accuracy_cache: dict[tuple, "GlobalAccuracy"] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def camera_ids(self) -> list[str]:
        cameras: list[str] = []
        for frame in self.frames:
            for camera_id in frame:
                if camera_id not in cameras:
                    cameras.append(camera_id)
        return cameras

    def algorithms_for(self, camera_id: str) -> list[str]:
        algorithms: list[str] = []
        for frame in self.frames:
            for algorithm in frame.get(camera_id, {}):
                if algorithm not in algorithms:
                    algorithms.append(algorithm)
        return algorithms

    def detections(
        self, frame_idx: int, camera_id: str, algorithm: str
    ) -> list[Detection]:
        return self.frames[frame_idx].get(camera_id, {}).get(algorithm, [])


@dataclass
class CameraPlan:
    """Everything the selector needs to know about one camera.

    Attributes:
        camera_id: The camera.
        item: Its matched training item (profiles + thresholds).
        best_algorithm: The most accurate affordable algorithm ``A*``.
        budget: Per-frame energy budget ``B_j``.
        communication_cost: Per-frame communication cost ``C_j``.
    """

    camera_id: str
    item: TrainingItem
    best_algorithm: str
    budget: float
    communication_cost: float = 0.0


class SelectionEngine:
    """Evaluates candidate selections against assessment metadata."""

    def __init__(self, matcher: CrossCameraMatcher) -> None:
        self.matcher = matcher

    # ------------------------------------------------------------------
    # Accuracy evaluation
    # ------------------------------------------------------------------
    def global_accuracy(
        self,
        assessment: AssessmentData,
        assignment: dict[str, str],
    ) -> GlobalAccuracy:
        """Fused ``(N, P-bar)`` for a camera->algorithm assignment.

        Results are memoised per assignment on the assessment itself:
        the metadata is immutable once collected, so the fused accuracy
        of an assignment never changes within one assessment period.
        """
        key = tuple(sorted(assignment.items()))
        cached = assessment.accuracy_cache.get(key)
        if cached is not None:
            return cached
        frame_groups = []
        for frame_idx in range(assessment.num_frames):
            detections: list[Detection] = []
            for camera_id, algorithm in assignment.items():
                detections.extend(
                    assessment.detections(frame_idx, camera_id, algorithm)
                )
            frame_groups.append(self.matcher.group(detections))
        result = estimate_global_accuracy(frame_groups)
        assessment.accuracy_cache[key] = result
        return result

    def individual_accuracy(
        self,
        assessment: AssessmentData,
        camera_id: str,
        algorithm: str,
    ) -> float:
        """A camera's standalone accuracy proxy: the expected number of
        true detections per frame (sum of detection probabilities)."""
        if assessment.num_frames == 0:
            return 0.0
        total = 0.0
        for frame_idx in range(assessment.num_frames):
            for det in assessment.detections(frame_idx, camera_id, algorithm):
                p = det.probability
                if np.isnan(p):
                    p = float(np.clip(det.score, 0.0, 1.0))
                total += p
        return total / assessment.num_frames

    def rank_cameras(
        self,
        assessment: AssessmentData,
        plans: list[CameraPlan],
    ) -> list[CameraPlan]:
        """Order cameras by decreasing individual accuracy, the list
        ``S_o`` of Section IV-B.3."""
        return sorted(
            plans,
            key=lambda plan: -self.individual_accuracy(
                assessment, plan.camera_id, plan.best_algorithm
            ),
        )

    # ------------------------------------------------------------------
    # Greedy camera subset (Section IV-B.3)
    # ------------------------------------------------------------------
    def greedy_subset(
        self,
        assessment: AssessmentData,
        ranked_plans: list[CameraPlan],
        desired: DesiredAccuracy,
    ) -> tuple[list[CameraPlan], GlobalAccuracy]:
        """Activate cameras in rank order until ``desired`` is met.

        Returns the chosen plans and the accuracy they achieve; if
        even the full set misses the requirement, all cameras are
        returned (the best EECS can do).
        """
        if not ranked_plans:
            raise ValueError("no cameras to select from")
        chosen: list[CameraPlan] = []
        achieved = GlobalAccuracy(0, 0.0)
        for plan in ranked_plans:
            chosen.append(plan)
            assignment = {
                p.camera_id: p.best_algorithm for p in chosen
            }
            achieved = self.global_accuracy(assessment, assignment)
            if achieved.meets(desired):
                break
        return chosen, achieved

    # ------------------------------------------------------------------
    # Algorithm downgrade (Section IV-B.4)
    # ------------------------------------------------------------------
    def downgrade(
        self,
        assessment: AssessmentData,
        chosen: list[CameraPlan],
        desired: DesiredAccuracy,
    ) -> dict[str, str]:
        """Substitute cheaper algorithms while accuracy holds.

        Walks the chosen cameras in reverse accuracy order.  For each,
        tries the efficiency-filtered cheaper alternatives (highest
        ``f_score/energy`` first, per the paper's pruning rule); the
        first substitution that keeps the desired global accuracy is
        locked in.  The pass stops at the first camera where no
        alternative works, as specified in Section IV-B.4.
        """
        assignment = {p.camera_id: p.best_algorithm for p in chosen}
        for plan in reversed(chosen):
            current = plan.item.profile(assignment[plan.camera_id])
            available = set(assessment.algorithms_for(plan.camera_id))
            candidates = [
                c
                for c in efficiency_candidates(
                    plan.item,
                    current,
                    plan.budget,
                    plan.communication_cost,
                )
                # Only algorithms with assessment metadata can be
                # evaluated; others would silently count as zero
                # detections.
                if c.algorithm in available
            ]
            substituted = False
            for candidate in candidates:
                trial = dict(assignment)
                trial[plan.camera_id] = candidate.algorithm
                if self.global_accuracy(assessment, trial).meets(desired):
                    assignment = trial
                    substituted = True
                    break
            if not substituted:
                break
        return assignment
