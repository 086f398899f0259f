"""P5-P8, P12-P13 — paper Figs. 7-10, 16-17: wall-clock parameter sweeps.

Sweeps run on the citations dataset (DESIGN.md §3: the default point of each
sweep is covered for all five datasets by P1-P4) with one measured batch per
point; warmup window states are shared across sweep points that do not change
the imputed window.
"""
import pandas as pd
import pytest

from repro.bench.harness import print_rows, run_table


def _monotone_ter(df: pd.DataFrame, param: str, increasing: bool) -> None:
    """Loose trend check on the TER-iDS series (rank-correlation direction,
    computed with numpy — no scipy in this environment)."""
    import numpy as np

    ter = df[df["method"] == "ter"].sort_values(param)
    vals = ter["sec_per_arrival"].to_numpy()
    if len(vals) < 4:
        # a 3-point overhead-dominated series has no meaningful rank trend
        return
    ranks = np.argsort(np.argsort(vals)).astype(float)
    idx = np.arange(len(vals), dtype=float)
    corr = float(np.corrcoef(ranks, idx)[0, 1])
    if increasing:
        assert corr > -0.5, vals
    else:
        assert corr < 0.5, vals


@pytest.mark.parametrize(
    "table,param,increasing",
    [
        ("P5", "alpha", False),   # fewer candidates for larger alpha
        ("P6", "rho", False),     # fewer candidate pairs for larger gamma
        ("P7", "xi", True),       # more imputation work
        ("P8", "w", True),        # more window tuples
        ("P12", "eta", True),     # larger repository to probe
        ("P13", "m", True),       # more missing attributes
    ],
)
def test_time_sweep(benchmark, table, param, increasing):
    rows = benchmark.pedantic(
        lambda: run_table(table, max_batches=1), rounds=1, iterations=1
    )
    print_rows(rows)
    df = pd.DataFrame(rows)
    assert df[param].nunique() >= 3
    _monotone_ter(df, param, increasing)
