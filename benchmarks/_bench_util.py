"""Shared benchmark plumbing: timing and threshold helpers.

Every throughput/overhead benchmark in this directory follows the same
shape — env-overridable thresholds, min-of-N wall-clock timing (the
minimum is the least-noisy estimator on a shared machine), and
interleaved variants so both sides of a comparison see the same
background load.  The helpers live here once instead of being
re-implemented per ``test_bench_*`` file.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable


def env_float(name: str, default: float) -> float:
    """An env-overridable benchmark threshold (floors, budgets)."""
    return float(os.environ.get(name, str(default)))


def timed(fn: Callable, *args, **kwargs) -> tuple[float, object]:
    """One wall-clock measurement: ``(elapsed_seconds, result)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def best_of(n: int, fn: Callable, *args, **kwargs) -> tuple[float, object]:
    """Min-of-N timing: ``(best_seconds, last_result)``."""
    best = float("inf")
    result = None
    for _ in range(n):
        elapsed, result = timed(fn, *args, **kwargs)
        best = min(best, elapsed)
    return best, result


def interleaved_best(n: int, *thunks: Callable[[], float]) -> list[float]:
    """Min-of-N over several variants, alternating them on every
    iteration so all are exposed to the same thermal/cache/load
    conditions.  Each thunk performs and times one run itself (so
    setup it wants excluded stays excluded) and returns seconds;
    returns each variant's best, in order."""
    times: list[list[float]] = [[] for _ in thunks]
    for _ in range(n):
        for index, thunk in enumerate(thunks):
            times[index].append(thunk())
    return [min(variant) for variant in times]


def paired_min_ratio(
    blocks: int,
    baseline: Callable[[], float],
    candidate: Callable[[], float],
) -> float:
    """Candidate/baseline cost ratio robust to host-speed phases.

    On a shared host the machine's speed drifts in phases of a second
    or more, so two minima taken far apart can differ by more than
    the effect measured.  Each block runs the two variants twice,
    back to back, in mirrored order (baseline, candidate, candidate,
    baseline, flipped every other block so no variant owns a slot),
    and keeps each variant's min-of-2; the result is the median over
    blocks of the per-block ratio.  Thunks time one run each and
    return seconds.
    """
    ratios = []
    for block in range(blocks):
        flipped = block % 2 == 1
        first, second = (
            (candidate, baseline) if flipped else (baseline, candidate)
        )
        a, b, c, d = first(), second(), second(), first()
        outer, inner = min(a, d), min(b, c)
        ratios.append(outer / inner if flipped else inner / outer)
    return statistics.median(ratios)


def assert_floor(value: float, floor: float, label: str) -> None:
    """Uniform absolute-floor check with an explanatory failure."""
    assert value >= floor, (
        f"{label}: measured {value:.3f}, below the floor {floor} "
        "(override via the documented environment variable for "
        "slower machines)"
    )


def assert_overhead_within(
    candidate: float, baseline: float, budget: float, label: str
) -> None:
    """Uniform relative-overhead check: candidate vs baseline."""
    overhead = candidate / baseline - 1.0
    assert candidate <= baseline * (1.0 + budget), (
        f"{label}: overhead {overhead:.1%} exceeds the {budget:.0%} budget "
        f"(baseline {baseline:.3f}s, candidate {candidate:.3f}s)"
    )
