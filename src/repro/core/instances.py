"""Probabilistic imputed tuples (paper Definition 4) and their aggregates.

An imputed tuple ``r^p`` is a set of mutually exclusive instances with
existence probabilities. Everything downstream — the ER-grid aggregates, the
four pruning bounds, and the exact Eq. (2) refinement — is computed from the
*same* instance set, so pruning is provably safe w.r.t. the refinement
(internal consistency). When the raw candidate cross-product exceeds
``max_instances`` we keep the most probable instances and renormalize; this
is the one approximation versus the paper's unbounded instance sets and is
applied identically to TER-iDS and all baselines.

Aggregates per tuple (paper §5.2, "each (imputed) tuple r^p is associated
with 4 types of aggregate values"):
- ``kw_mask``: bitmask over the global topic list (the boolean vector V_r);
- per attribute k: token-set-size interval ``[tmin_k, tmax_k]``;
- per attribute k: main-pivot distance interval ``[lb_k, ub_k]`` and
  expectation ``e_k = E[dist(r^p[A_k], piv_1[A_k])]``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.probability import Instance
from repro.core.similarity import jaccard_dist
from repro.streams.stream_gen import D


@dataclass
class ImputedTuple:
    """One tuple's instance set + aggregates, ready for grid insertion."""

    rid: int
    stream_id: int
    instances: list[Instance]
    kw_mask: int
    tmin: np.ndarray   # (d,) min token-set size per attribute
    tmax: np.ndarray   # (d,) max
    lb: np.ndarray     # (d,) min main-pivot distance per attribute
    ub: np.ndarray     # (d,) max
    e: np.ndarray      # (d,) expected main-pivot distance per attribute


def topic_mask(token_sets, topics: list[str]) -> int:
    """Bitmask of topics present in any of the given token sets."""
    mask = 0
    all_toks = set().union(*token_sets) if token_sets else set()
    for i, t in enumerate(topics):
        if t in all_toks:
            mask |= 1 << i
    return mask


def cap_instances(cands: list[tuple[tuple, float]], cap: int) -> list[tuple[tuple, float]]:
    """Keep the ``cap`` most probable instances and renormalize to sum 1."""
    cands = sorted(cands, key=lambda c: -c[1])[:cap]
    total = sum(p for _, p in cands)
    if total <= 0:
        return [(a, 1.0 / len(cands)) for a, p in cands] if cands else []
    return [(a, p / total) for a, p in cands]


def build_imputed_tuple(
    rid: int,
    stream_id: int,
    attr_values: list[tuple[tuple, float]],
    *,
    topics: list[str],
    pivot_tokens: list[frozenset],
) -> ImputedTuple:
    """Assemble an ImputedTuple from (attrs, p) candidates.

    ``attr_values``: list of (d-tuple of value strings, probability); callers
    build it from the per-missing-attribute candidate cross product (or a
    single entry with p=1 for complete tuples). ``topics`` is the query
    keyword set K: each instance's ``has_kw`` and the tuple's ``kw_mask``
    are computed against it.
    """
    kws = frozenset(topics)
    insts = [Instance(attrs, p, keywords=kws) for attrs, p in attr_values]
    tmin = np.full(D, np.inf)
    tmax = np.zeros(D)
    lb = np.full(D, np.inf)
    ub = np.zeros(D)
    e = np.zeros(D)
    mask = 0
    for inst in insts:
        mask |= topic_mask(inst.token_sets, topics)
        for k in range(D):
            sz = len(inst.token_sets[k])
            tmin[k] = min(tmin[k], sz)
            tmax[k] = max(tmax[k], sz)
            dk = jaccard_dist(inst.token_sets[k], pivot_tokens[k])
            lb[k] = min(lb[k], dk)
            ub[k] = max(ub[k], dk)
            e[k] += inst.p * dk
    if not insts:
        tmin[:] = 0
        lb[:] = 0
    return ImputedTuple(
        rid=rid, stream_id=stream_id, instances=insts, kw_mask=mask,
        tmin=tmin, tmax=tmax, lb=lb, ub=ub, e=e,
    )


def aggregates_frame(tuples: list[ImputedTuple]) -> dict[str, np.ndarray]:
    """Aggregate columns, one row per tuple: ``rid``, ``stream_id``,
    ``kw_mask`` and ``lb{k}``/``ub{k}``/``e{k}``/``tmin{k}``/``tmax{k}`` for
    k in 0..d-1 (the column layout of the ER-grid's window state)."""
    cols = {c: np.array([getattr(t, c) for t in tuples], dtype=np.int64)
            for c in ("rid", "stream_id", "kw_mask")}
    for name in ("lb", "ub", "e", "tmin", "tmax"):
        per_attr = np.array([getattr(t, name) for t in tuples], dtype=float).reshape(-1, D).T
        cols.update({f"{name}{k}": per_attr[k].copy() for k in range(D)})
    return cols
