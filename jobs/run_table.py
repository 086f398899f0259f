"""Reproduce one results table.

    python jobs/run_table.py P3
    python jobs/run_table.py P1 P2

Rows are printed and appended to results/measured.json (the EXPERIMENTS.md
source). Table ids: T4, P1-P13 (DESIGN.md §3).
"""
import sys

from repro.bench.harness import TABLES, print_rows, run_table


def main(argv: list[str]) -> None:
    tables = argv or ["T4"]
    unknown = [t for t in tables if t not in TABLES]
    if unknown:
        raise SystemExit(f"unknown tables {unknown}; choose from {sorted(TABLES)}")
    for t in tables:
        print(f"=== {t} ===")
        print_rows(run_table(t))


if __name__ == "__main__":
    main(sys.argv[1:])
