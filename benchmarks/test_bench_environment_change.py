"""Extension benchmark: fully adaptive selection across an
environment change.

The Fig. 3 benchmark compares strategies at the metric level; this one
runs the *whole* pipeline with nothing pre-assigned: feature upload,
GFK matching against the training library, algorithm transfer, and
deployment — first in the lab, then in the cluttered chap room.
"""

from repro.experiments.adaptive import AdaptiveDeployment
from repro.experiments.tables import format_table


def run_scenario():
    deployment = AdaptiveDeployment(
        dataset_numbers=(1, 2), window_frames=12, vocabulary_size=250
    )
    return deployment, deployment.run_scenario()


def test_bench_environment_change(benchmark):
    deployment, phases = benchmark.pedantic(
        run_scenario, rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["phase", "matched item", "similarity", "algorithm",
         "recall", "precision", "f_score", "energy (J)"],
        [
            [f"dataset #{p.dataset_number}", p.matched_item, p.similarity,
             p.algorithm, p.counts.recall, p.counts.precision,
             p.counts.f_score, p.energy_joules]
            for p in phases
        ],
    ))

    by_dataset = {p.dataset_number: p for p in phases}

    # The GFK match identifies each environment correctly.
    for phase in phases:
        assert phase.correct_match

    # The chap phase deploys ACF (the paper's winner there); the lab
    # phase deploys one of the strong lab algorithms, not ACF.
    assert by_dataset[2].algorithm == "ACF"
    assert by_dataset[1].algorithm in ("HOG", "C4")

    # Phase accuracy stays in a useful band on both environments.
    for phase in phases:
        assert phase.counts.f_score > 0.5
