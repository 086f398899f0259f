"""P1 — paper Fig. 4: pruning power of the four strategies per dataset."""
from repro.bench.harness import print_rows, run_table


def test_p1_pruning_power(benchmark):
    rows = benchmark.pedantic(
        lambda: run_table("P1"), rounds=1, iterations=1
    )
    print_rows(rows)
    for r in rows:
        # Fig. 4 shape: topic pruning dominates; all four together prune most
        # of the quadratic pair space.
        assert r["topic"] > 0.5, r
        assert r["total"] > 0.85, r
