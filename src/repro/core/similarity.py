"""Similarity / distance functions (paper Definition 5, Eq. 1).

Attributes are textual; an attribute value is a whitespace-separated token
string. ``sim(r, r')`` is the *sum* of per-attribute Jaccard similarities
(range ``[0, d]``); ``dist`` is the per-attribute Jaccard distance
``1 - jaccard`` — a metric, which Lemmas 4.2/4.3 rely on via the triangle
inequality.

Two layers are provided:
- python-set kernels (``tokens``, ``jaccard``, ``sim_tuples``) for pivot
  selection, the DR-index build, imputation, refinement and unit tests
  against the paper's examples;
- Spark Column builders (``tokens_col``, ``jaccard_col``) for rule
  detection.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from pyspark.sql import Column
from pyspark.sql import functions as F


def tokens(value: str | None) -> frozenset[str]:
    """Token set of an attribute value; empty set for missing/empty values."""
    if value is None:
        return frozenset()
    return frozenset(t for t in value.split() if t)


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity |A∩B| / |A∪B| between two token sets.

    Two empty sets are defined to have similarity 0 (an empty attribute never
    contributes evidence that two tuples match).
    """
    sa, sb = set(a), set(b)
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return len(sa & sb) / union


def jaccard_dist(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard distance ``1 - jaccard`` (metric; triangle inequality holds)."""
    return 1.0 - jaccard(a, b)


def sim_tuples(r: Sequence[str | None], s: Sequence[str | None]) -> float:
    """Eq. (1): summed per-attribute Jaccard similarity of two d-dim tuples."""
    if len(r) != len(s):
        raise ValueError(f"dimensionality mismatch: {len(r)} vs {len(s)}")
    return sum(jaccard(tokens(a), tokens(b)) for a, b in zip(r, s))


def dist_tuples(r: Sequence[str | None], s: Sequence[str | None]) -> float:
    """Summed per-attribute Jaccard distance; ``sim = d - dist``."""
    if len(r) != len(s):
        raise ValueError(f"dimensionality mismatch: {len(r)} vs {len(s)}")
    return sum(jaccard_dist(tokens(a), tokens(b)) for a, b in zip(r, s))


def tokens_col(col: Column) -> Column:
    """Spark: token-set array of an attribute string column (deduped)."""
    return F.array_distinct(
        F.filter(F.split(F.coalesce(col, F.lit("")), " "), lambda t: t != "")
    )


def jaccard_col(a: Column, b: Column) -> Column:
    """Spark: Jaccard similarity of two token-array columns (0 when both empty)."""
    inter = F.size(F.array_intersect(a, b))
    union = F.size(F.array_union(a, b))
    return F.when(union == 0, F.lit(0.0)).otherwise(inter / union)


def jaccard_dist_col(a: Column, b: Column) -> Column:
    """Spark: Jaccard distance of two token-array columns."""
    return F.lit(1.0) - jaccard_col(a, b)
