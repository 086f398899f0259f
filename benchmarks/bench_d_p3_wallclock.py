"""P3 — paper Fig. 5(b): wall-clock time per arrival, all six methods."""
import pandas as pd

from repro.bench.harness import print_rows, run_table


def test_p3_wallclock(spark, benchmark):
    rows = benchmark.pedantic(
        lambda: run_table(spark, "P3"), rounds=1, iterations=1
    )
    print_rows(rows)
    df = pd.DataFrame(rows)
    # Fig. 5(b) shape. At this scale the per-batch costs every method shares
    # (imputation, window upkeep) compress the paper's wall-clock gaps
    # (DESIGN.md §2), so the robust assertion is on the
    # substrate-independent work metric: the index join evaluates far fewer
    # pairs exactly than the straightforward baselines, on every dataset.
    work = df.pivot_table(
        index="dataset", columns="method", values="pairs_eval_per_arrival"
    )
    for dsname, r in work.iterrows():
        assert r["ter"] * 5 <= r["cdd_er"], (dsname, dict(r))
        assert r["ter"] * 5 <= r["dd_er"], (dsname, dict(r))
    # Wall clock is reported but not asserted per-dataset;
    # results/measured.json records the measured order.
