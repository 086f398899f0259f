"""P4 — paper Fig. 6: break-up cost of TER-iDS (CDD select / impute / ER)."""
from repro.bench.harness import print_rows, run_table


def test_p4_breakup(benchmark):
    rows = benchmark.pedantic(
        lambda: run_table("P4"), rounds=1, iterations=1
    )
    print_rows(rows)
    for r in rows:
        assert r["cdd_select"] >= 0 and r["impute"] >= 0 and r["er"] > 0
