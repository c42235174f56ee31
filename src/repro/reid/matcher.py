"""Cross-camera detection grouping.

For every detection the controller extracts the centre of the bottom
edge of its bounding box — assumed to touch the ground — and projects
it through the camera's offline ground-plane homography into world
coordinates.  Detections from different cameras whose projections land
within a gating radius are candidate matches; the match is accepted
only if their colour features also agree under the Mahalanobis metric
(Section IV-C: colour verification "reduces the false matches due to
imperfect homography matching").
"""

from __future__ import annotations

import math

import numpy as np

from repro.detection.base import Detection
from repro.geometry.homography import Homography
from repro.reid.fusion import ObjectGroup
from repro.reid.mahalanobis import MahalanobisMetric

DEFAULT_GROUND_RADIUS_M = 0.9
DEFAULT_COLOR_THRESHOLD = 3.5

# `CrossCameraMatcher.group` keys grid cell (gx, gy) as gx * _ROW + gy;
# cells whose keys collide (|gy| >= 2**31) merely share a bucket.
_ROW = 1 << 32


class CrossCameraMatcher:
    """Groups one frame's multi-camera detections into objects."""

    def __init__(
        self,
        image_to_ground: dict[str, Homography],
        ground_radius: float = DEFAULT_GROUND_RADIUS_M,
        color_metric: MahalanobisMetric | None = None,
        color_threshold: float = DEFAULT_COLOR_THRESHOLD,
        use_color: bool = True,
    ) -> None:
        """
        Args:
            image_to_ground: Per-camera homography mapping image pixels
                to world ground-plane coordinates (built offline from
                landmarks; see :mod:`repro.geometry.ransac`).
            ground_radius: Gating distance (metres) on the ground plane.
            color_metric: Fitted Mahalanobis metric over colour
                features; required when ``use_color`` is True.
            color_threshold: Maximum colour distance for a match.
            use_color: Disable to measure the homography-only ablation.
        """
        if not image_to_ground:
            raise ValueError("need at least one camera homography")
        if not (math.isfinite(ground_radius) and ground_radius > 0):
            raise ValueError(
                "ground_radius must be positive and finite, "
                f"got {ground_radius!r}"
            )
        if use_color and color_metric is not None and not color_metric.is_fitted:
            raise ValueError("color_metric must be fitted before use")
        self.image_to_ground = dict(image_to_ground)
        self.ground_radius = ground_radius
        self.color_metric = color_metric
        self.color_threshold = color_threshold
        self.use_color = use_color and color_metric is not None
        # Selection re-groups the same assessment detections under many
        # candidate assignments, so the per-detection projection and
        # per-pair colour distance are memoised.  The cached values are
        # the unmemoised scalars, computed once — grouping stays
        # bit-identical.  Values keep a strong reference to their
        # detections so the id() keys cannot be recycled.
        self._point_cache: dict[
            int, tuple[Detection, tuple[float, float, tuple[int, ...]]]
        ] = {}
        self._color_cache: dict[
            tuple[int, int], tuple[Detection, Detection, float]
        ] = {}
        self._reduced_cache: dict[int, tuple[Detection, np.ndarray]] = {}
        # One shared `_nearby_cells` tuple per 2x2 block, so cached
        # points in the same block do not each hold four cell keys.
        self._blocks: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._cache_limit = 200_000
        # Half the side of `group`'s grid cells; see `_nearby_cells`.
        self._half_cell = 1.0
        while self._half_cell / (1 + 2**-40) <= ground_radius:
            self._half_cell *= 2.0

    def _nearby_cells(self, x: float, y: float) -> tuple[int, ...]:
        """Keys of the 2x2 grid cells nearest a ground point, its own
        cell first; empty if the point is not finite.

        Cells have side 2 * half, half being the smallest power of two
        >= 1 above radius * (1 + 2**-40).  These four hold every group
        the point's gate can accept: sqrt(dx*dx + dy*dy) < radius,
        built from correctly rounded operations, passes only if the
        true offset on each axis is below radius * (1 + 2**-50) < half
        (or too small to square).  x / half is exact (a subnormal
        quotient is off by < 2**-1074) and cannot overflow, so a point
        in half-cell hx reaches only half-cells hx - 1 .. hx + 1: its
        own cell hx >> 1 and the neighbour on that half's side.
        """
        if not (math.isfinite(x) and math.isfinite(y)):
            return ()
        hx = math.floor(x / self._half_cell)
        hy = math.floor(y / self._half_cell)
        gx, gy = hx >> 1, hy >> 1
        nx = gx + 1 if hx & 1 else gx - 1
        ny = gy + 1 if hy & 1 else gy - 1
        return (gx * _ROW + gy, nx * _ROW + gy, gx * _ROW + ny, nx * _ROW + ny)

    def _cached_point(
        self, detection: Detection
    ) -> tuple[float, float, tuple[int, ...]]:
        """The detection's ground point and its `_nearby_cells`."""
        key = id(detection)
        hit = self._point_cache.get(key)
        if hit is not None:
            return hit[1]
        if len(self._point_cache) >= self._cache_limit:
            self._point_cache.clear()
            self._blocks.clear()
        # Single-point fast path: the 3-vector product computes the
        # same values as ground_point()'s apply_homography call without
        # its batching scaffolding (verified bit-identical).
        try:
            homography = self.image_to_ground[detection.camera_id]
        except KeyError:
            raise KeyError(
                f"no ground homography for camera {detection.camera_id!r}"
            ) from None
        x, y = detection.bbox.bottom_center
        projected = homography.matrix @ np.array([x, y, 1.0])
        w = projected[2]
        px, py = float(projected[0] / w), float(projected[1] / w)
        nearby = self._nearby_cells(px, py)
        point = (px, py, self._blocks.setdefault(nearby, nearby))
        self._point_cache[key] = (detection, point)
        return point

    def _reduced_feature(self, detection: Detection) -> np.ndarray:
        """The detection's PCA-reduced colour feature, memoised.

        ``MahalanobisMetric.distance`` re-reduces both endpoints on
        every call; caching the reduction per detection leaves exactly
        the per-pair ``sqrt(diff @ P @ diff)`` — the same operations
        on the same values, computed once per detection instead of
        once per pair.
        """
        key = id(detection)
        hit = self._reduced_cache.get(key)
        if hit is not None:
            return hit[1]
        if len(self._reduced_cache) >= self._cache_limit:
            self._reduced_cache.clear()
        reduced = self.color_metric._reduce(detection.color_feature)
        self._reduced_cache[key] = (detection, reduced)
        return reduced

    def _color_distance(self, a: Detection, b: Detection) -> float:
        """`MahalanobisMetric.distance` with the reductions memoised;
        the remaining arithmetic is the metric's own, verbatim."""
        diff = self._reduced_feature(a) - self._reduced_feature(b)
        value = float(diff @ self.color_metric._precision @ diff)
        return float(np.sqrt(max(0.0, value)))

    def _color_compatible_cached(
        self, detection: Detection, members: list[Detection]
    ) -> bool:
        """True if every member is within the colour threshold of the
        detection, with the per-pair distances memoised — the grouping
        scan calls this tens of thousands of times per selection, so
        attribute and call overhead matter."""
        cache = self._color_cache
        threshold = self.color_threshold
        det_id = id(detection)
        for member in members:
            member_id = id(member)
            key = (
                (det_id, member_id)
                if det_id <= member_id
                else (member_id, det_id)
            )
            hit = cache.get(key)
            if hit is None:
                if len(cache) >= self._cache_limit:
                    cache.clear()
                dist = self._color_distance(detection, member)
                cache[key] = (detection, member, dist)
            else:
                dist = hit[2]
            if dist > threshold:
                return False
        return True

    def ground_point(self, detection: Detection) -> np.ndarray:
        """Project a detection's bottom-centre to world coordinates."""
        try:
            homography = self.image_to_ground[detection.camera_id]
        except KeyError:
            raise KeyError(
                f"no ground homography for camera {detection.camera_id!r}"
            ) from None
        return homography.apply(np.array(detection.bbox.bottom_center))

    def group(self, detections: list[Detection]) -> list[ObjectGroup]:
        """Cluster one frame's detections across cameras.

        Highest-confidence detections seed groups first; a detection
        joins the nearest group within the gating radius whose members
        come from other cameras and whose colours agree, otherwise it
        starts a new group.

        This is a scalar restatement of :meth:`group_reference` with
        the numpy overhead stripped from the inner scan: distances and
        centroid updates run on plain Python floats, which execute the
        same IEEE-double operations as the reference's elementwise
        numpy expressions.  The one numerical difference is the gating
        distance itself — ``math.sqrt(dx*dx + dy*dy)`` instead of the
        reference's BLAS-backed ``np.linalg.norm`` — so membership can
        differ from the reference only when a distance sits within one
        ulp of the radius or of a competing group's distance.

        Groups are indexed on a ground-plane grid by their centroid's
        cell, so a detection measures distances only to groups in its
        own cell and the three nearest it: a superset of those the gate
        can accept (see :meth:`_nearby_cells`).  A group moves cell
        when its centroid crosses a cell edge; non-finite points, which
        no gate accepts, are never indexed.
        """
        groups: list[ObjectGroup] = []
        group_cameras: list[set[str]] = []
        centroids: list[tuple[float, float]] = []
        counts: list[int] = []
        group_cells: list[tuple[int, ...]] = []  # () or (own cell,)
        grid: dict[int, list[int]] = {}  # cell key -> group indices
        radius = self.ground_radius
        use_color = self.use_color
        points = self._point_cache
        for det in sorted(detections, key=lambda d: -d.score):
            hit = points.get(id(det))  # `_cached_point`'s hit, inlined
            px, py, nearby = hit[1] if hit else self._cached_point(det)
            camera = det.camera_id
            # The reference scan accepts strictly-improving distances,
            # so colour-rejected groups never update the best: the
            # winner is the colour-compatible eligible group of
            # minimal (distance, index).  Sorting the gated candidates
            # and taking the first colour pass computes the same
            # winner with the fewest colour checks, whatever order the
            # cells are visited in.
            candidates: list[tuple[float, int]] = []
            for key in nearby:
                for idx in grid.get(key, ()):
                    if camera in group_cameras[idx]:
                        continue
                    cx, cy = centroids[idx]
                    dx = px - cx
                    dy = py - cy
                    dist = math.sqrt(dx * dx + dy * dy)
                    if dist < radius:
                        candidates.append((dist, idx))
            candidates.sort()
            best_group = None
            for _, idx in candidates:
                if not use_color or self._color_compatible_cached(
                    det, groups[idx].detections
                ):
                    best_group = idx
                    break
            if best_group is None:
                if nearby:
                    grid.setdefault(nearby[0], []).append(len(groups))
                groups.append(
                    ObjectGroup(detections=[det], ground_point=(px, py))
                )
                group_cameras.append({camera})
                centroids.append((px, py))
                counts.append(1)
                group_cells.append(nearby[:1])
            else:
                group = groups[best_group]
                count = counts[best_group]
                group.add(det)
                group_cameras[best_group].add(camera)
                cx, cy = centroids[best_group]
                # Running mean keeps the centroid stable as members join.
                centroid = (
                    (cx * count + px) / (count + 1),
                    (cy * count + py) / (count + 1),
                )
                centroids[best_group] = centroid
                counts[best_group] = count + 1
                group.ground_point = centroid
                # A gated group is indexed; its new centroid may move
                # cell, or overflow to a non-finite value.
                cell = self._nearby_cells(*centroid)[:1]
                if cell != group_cells[best_group]:
                    grid[group_cells[best_group][0]].remove(best_group)
                    for key in cell:
                        grid.setdefault(key, []).append(best_group)
                    group_cells[best_group] = cell
        return groups

    def group_reference(
        self, detections: list[Detection]
    ) -> list[ObjectGroup]:
        """The unmemoised clustering loop, kept verbatim as the pinned
        oracle for equivalence tests and as the honest per-call
        baseline for the scale benchmarks."""
        groups: list[ObjectGroup] = []
        centroids: list[np.ndarray] = []
        for det in sorted(detections, key=lambda d: -d.score):
            point = self.ground_point(det)
            best_group = None
            best_dist = self.ground_radius
            for idx, group in enumerate(groups):
                if det.camera_id in group.camera_ids:
                    continue
                dist = float(np.linalg.norm(point - centroids[idx]))
                if dist < best_dist and self._reference_color_compatible(
                    det, group
                ):
                    best_dist = dist
                    best_group = idx
            if best_group is None:
                groups.append(
                    ObjectGroup(
                        detections=[det],
                        ground_point=(float(point[0]), float(point[1])),
                    )
                )
                centroids.append(point)
            else:
                group = groups[best_group]
                count = len(group)
                group.add(det)
                centroids[best_group] = (
                    centroids[best_group] * count + point
                ) / (count + 1)
                group.ground_point = (
                    float(centroids[best_group][0]),
                    float(centroids[best_group][1]),
                )
        return groups

    def _reference_color_compatible(
        self, detection: Detection, group: ObjectGroup
    ) -> bool:
        if not self.use_color:
            return True
        for member in group.detections:
            dist = self.color_metric.distance(
                detection.color_feature, member.color_feature
            )
            if dist > self.color_threshold:
                return False
        return True

    def reid_precision(
        self, groups: list[ObjectGroup]
    ) -> float:
        """Evaluation helper: fraction of multi-member groups whose
        members all share the same ground-truth identity (the paper
        reports >90% re-identification precision)."""
        multi = [g for g in groups if len(g) > 1]
        if not multi:
            return 1.0
        pure = sum(
            1
            for g in multi
            if g.is_true_object
            and len({d.truth_id for d in g.detections}) == 1
        )
        return pure / len(multi)
