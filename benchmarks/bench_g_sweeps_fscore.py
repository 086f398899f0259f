"""P9-P11 — paper Figs. 13-15: F-score parameter sweeps (citations)."""
import pandas as pd
import pytest

from repro.bench.harness import print_rows, run_table


def _ter(df: pd.DataFrame, param: str) -> pd.Series:
    return df[df["method"] == "ter"].sort_values(param).set_index(param)["f"]


@pytest.mark.parametrize(
    "table,param",
    [("P9", "xi"), ("P10", "eta"), ("P11", "m")],
)
def test_fscore_sweep(benchmark, table, param):
    rows = benchmark.pedantic(
        lambda: run_table(table, max_batches=2), rounds=1, iterations=1
    )
    print_rows(rows)
    df = pd.DataFrame(rows)
    ter = _ter(df, param)
    if table == "P9":
        # Fig. 13 shape: accuracy degrades as the missing rate grows; at the
        # default xi TER-iDS sits in the paper's band.
        assert ter.iloc[0] >= 0.9
        assert ter.iloc[-1] <= ter.iloc[0]
    elif table == "P10":
        # Fig. 14 shape: TER-iDS stays accurate across repository ratios
        # (larger eta never hurts it drastically).
        assert (ter >= 0.9).all(), ter.to_dict()
    else:  # P11, Fig. 15 shape
        # Accuracy decreases in m, and under the strongest imputation stress
        # (m = 3 of 5 attributes missing) the paper's method ordering
        # emerges: TER-iDS (CDD) >= DD+ER and clearly above con+ER.
        assert ter.loc[3] <= ter.loc[1]
        last = df[df[param] == 3].set_index("method")["f"]
        assert last["ter"] >= last["dd_er"] - 1e-9, last.to_dict()
        assert last["ter"] >= last["con_er"] - 1e-9, last.to_dict()
