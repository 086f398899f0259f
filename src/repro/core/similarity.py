"""Similarity / distance functions (paper Definition 5, Eq. 1).

Attributes are textual; an attribute value is a whitespace-separated token
string. ``sim(r, r')`` is the *sum* of per-attribute Jaccard similarities
(range ``[0, d]``); ``dist`` is the per-attribute Jaccard distance
``1 - jaccard`` — a metric, which Lemmas 4.2/4.3 rely on via the triangle
inequality.

The kernels work on Python token sets, on the driver: rule detection's pair
profile, pivot selection, the DR-index build, imputation and refinement all
call them. ``tokens`` splits on any whitespace (``str.split()``).
"""
from __future__ import annotations

from typing import Iterable, Sequence


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

