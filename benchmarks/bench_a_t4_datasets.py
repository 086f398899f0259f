"""T4 — paper Table 4: dataset statistics (generated at full scale).

Named with an ``a_`` prefix so it runs first and pays the one-time dataset
generation cost for the whole bench session.
"""
from repro.bench.harness import print_rows, run_table


def test_t4_datasets(benchmark):
    rows = benchmark.pedantic(lambda: run_table("T4"), rounds=1, iterations=1)
    print_rows(rows)
    assert len(rows) == 5
