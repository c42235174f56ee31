"""Regenerate ``BENCH_predictive.json`` (see EXPERIMENTS.md).

Runs the predictive wake-up lifetime comparison of
:mod:`repro.experiments.predictive` — ``subset`` vs ``predictive`` on
the 8-camera single-scene ring — at two sleep-ration settings.  Every
number is deterministic (detection counts and Joules, no wall clock),
so the file regenerates byte-identically on any machine.

Run from the repo root:

    PYTHONPATH=src:. python benchmarks/gen_bench_predictive.py > BENCH_predictive.json
"""

from __future__ import annotations

import json
from dataclasses import replace

from repro.experiments.predictive import (
    BENCH_BATTERY_JOULES,
    BENCH_BUDGET,
    BENCH_CAMERAS,
    BENCH_CONFIG,
    BENCH_END,
    BENCH_START,
    BENCH_WAKE,
    compare_predictive_lifetime,
    predictive_context,
)

SLEEPER_SETTINGS = (2, 3)


def lifetime_entry(side) -> dict:
    return {
        "detected": side.humans_detected,
        "present": side.humans_present,
        "detection_rate": round(side.detection_rate, 4),
        "energy_joules": round(side.energy_joules, 2),
        "lifetime_passes": side.lifetime_passes,
    }


def main() -> None:
    context = predictive_context()
    results = {}
    for max_sleepers in SLEEPER_SETTINGS:
        wake = replace(BENCH_WAKE, max_sleepers=max_sleepers)
        report = compare_predictive_lifetime(context=context, wake=wake)
        results[f"max_sleepers_{max_sleepers}"] = {
            "wake": wake.to_dict(),
            "subset": lifetime_entry(report.subset),
            "predictive": lifetime_entry(report.predictive),
            "detection_retention": round(report.detection_retention, 4),
            "lifetime_extension": round(report.lifetime_extension, 4),
        }

    print(
        json.dumps(
            {
                "description": (
                    "Predictive wake-up policy lifetime extension: "
                    "'subset' (assess every camera every round) vs "
                    "'predictive' (per-camera RLS activity regressors "
                    "gate assessments; rationed sleep slots rotate "
                    "across the most redundant views) on 8 cameras "
                    "ringing dataset #1's scene.  Lifetime is analytic "
                    "from one pass's per-camera energy draw -- passes "
                    "of the identical window until fewer than 2 "
                    "batteries survive -- matching "
                    "repro.experiments.lifetime.simulate_lifetime semantics.  "
                    "All numbers are deterministic (no wall clock).  "
                    "Regenerate with benchmarks/gen_bench_predictive.py "
                    "(recipe in EXPERIMENTS.md)."
                ),
                "units": "detections_joules_and_passes",
                "setup": {
                    "cameras": BENCH_CAMERAS,
                    "budget": BENCH_BUDGET,
                    "window": {"start": BENCH_START, "end": BENCH_END},
                    "assessment_period": BENCH_CONFIG.assessment_period,
                    "recalibration_interval": (
                        BENCH_CONFIG.recalibration_interval
                    ),
                    "battery_joules": BENCH_BATTERY_JOULES,
                    "min_cameras": 2,
                    "seed": 2017,
                },
                "results": results,
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
