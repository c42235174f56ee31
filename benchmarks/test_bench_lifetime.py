"""Extension benchmark: network lifetime under finite batteries.

The paper motivates EECS with network longevity.  With every camera on
a small battery, the all-best policy drains the fleet fastest; EECS's
camera subsets and algorithm downgrades stretch the same batteries
over more processed frames.
"""

from repro.experiments.lifetime import lifetime_extension
from repro.experiments.tables import format_table


def test_bench_lifetime(benchmark, runner_ds1):
    results = benchmark.pedantic(
        lifetime_extension,
        args=(runner_ds1,),
        kwargs=dict(battery_joules=600.0, budget=2.0),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(
        ["policy", "frames survived", "humans detected",
         "energy (J)", "camera deaths"],
        [
            [r.mode, r.frames_survived, r.humans_detected,
             r.energy_consumed, str(r.deaths)]
            for r in results.values()
        ],
    ))

    baseline = results["all_best"]
    eecs = results["full"]

    # EECS survives at least as long and watches at least as many
    # frames on the same batteries.
    assert eecs.frames_survived >= baseline.frames_survived

    # Longevity translates into total mission value: at least as many
    # humans detected over the network's life.
    assert eecs.humans_detected >= 0.9 * baseline.humans_detected
