"""CDD-index ``I_j`` over detected CDD rules (paper §5.1, Figure 2).

Rule counts are tens per dependent attribute, so the lattice + aR-tree
structure is realized as a broadcastable flat rule table: the imputation
probe joins it on the missing (dependent) attribute and then checks each
rule's determinant constraints exactly.

Rules with up to two determinant constraints (lattice levels 1-2) are encoded
flat: ``(rule_id, dep, x1, lo1, hi1, x2, lo2, hi2, dep_lo, dep_hi)`` with the
second constraint nullable.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    DoubleType,
    IntegerType,
    StructField,
    StructType,
)

from repro.core.cdd import CDDRule

_SCHEMA = StructType(
    [
        StructField("rule_id", IntegerType()),
        StructField("dep", IntegerType()),
        StructField("x1", IntegerType()),
        StructField("lo1", DoubleType()),
        StructField("hi1", DoubleType()),
        StructField("x2", IntegerType(), nullable=True),
        StructField("lo2", DoubleType(), nullable=True),
        StructField("hi2", DoubleType(), nullable=True),
        StructField("dep_lo", DoubleType()),
        StructField("dep_hi", DoubleType()),
    ]
)


@dataclass
class CDDIndex:
    """Flat rule table + the driver-side rules it encodes."""

    rules_df: DataFrame                 # flat rule table (broadcast side)
    rules: dict[int, list[CDDRule]]     # driver-side rules by dependent
    n_rules: int


def rules_to_rows(rules: dict[int, list[CDDRule]]) -> list[tuple]:
    rows = []
    rid = 0
    for dep, rs in sorted(rules.items()):
        for r in rs:
            cs = sorted(r.constraints, key=lambda c: c.attr)
            if not (1 <= len(cs) <= 2):
                raise ValueError("pipeline encodes lattice levels 1-2 only")
            if any(c.interval is None for c in cs):
                raise ValueError("pipeline rules must use interval constraints")
            c1 = cs[0]
            c2 = cs[1] if len(cs) == 2 else None
            rows.append(
                (
                    rid,
                    dep,
                    c1.attr,
                    float(c1.interval[0]),
                    float(c1.interval[1]),
                    c2.attr if c2 else None,
                    float(c2.interval[0]) if c2 else None,
                    float(c2.interval[1]) if c2 else None,
                    float(r.dep_interval[0]),
                    float(r.dep_interval[1]),
                )
            )
            rid += 1
    return rows


def build_cdd_index(
    spark: SparkSession, rules: dict[int, list[CDDRule]]
) -> CDDIndex:
    """Build the CDD-index (offline phase)."""
    rows = rules_to_rows(rules)
    rules_df = spark.createDataFrame(rows, schema=_SCHEMA).coalesce(1).persist()
    n = rules_df.count()
    return CDDIndex(rules_df=rules_df, rules=rules, n_rules=n)
