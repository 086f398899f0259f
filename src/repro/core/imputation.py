"""Online imputation of incomplete tuples (paper Section 3), on the driver.

Per micro-batch, each missing attribute ``A_j`` of an incomplete tuple is
imputed from the repository R through the two offline indexes:
1. the **CDD-index** (``index/cdd_index.py``) gives the rules whose
   dependent attribute is ``A_j`` — the paper's "obtain suitable CDD rules";
2. the **DR-index** (``index/dr_index.py``) token postings of each rule's
   first determinant give the candidate samples ``s in R`` (a sample within
   Jaccard distance ``hi < 1`` shares a token with the probe value); the
   exact determinant constraints then remove the false positives;
3. the DR-index ``dom_pairs`` lookup on the sample's dependent value gives
   the Section-3 candidate set ``cand(s[A_j])`` of domain values within
   ``A_j.I``.

The straightforward baselines take the same three steps without the indexes:
step 2 scans all of R and step 3 scans the whole attribute domain, computing
each Jaccard distance on the fly. One ``indexed`` flag selects the path, so
the two differ only in the work the paper's indexes save.

Frequencies are aggregated per (tuple, attribute, value) and normalized per
Eq. (4); instances of multi-attribute-missing tuples are the per-attribute
candidate cross product (capped + renormalized, DESIGN.md).

``impute_batch`` covers the cdd/dd/er flavors (they differ only in the rule
set and whether the DR-index is used); ``impute_batch_con`` implements the
constraint-based baseline [43], which fills each missing attribute with its
mode over the current *window* (no repository access).
"""
from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import pandas as pd

from repro.core.instances import ImputedTuple, build_imputed_tuple, cap_instances
from repro.core.pivot import AttributePivots
from repro.core.similarity import jaccard_dist, tokens
from repro.index.cdd_index import CDDIndex
from repro.index.dr_index import DRIndex
from repro.streams.stream_gen import ATTR_COLS, D

#: Columns of the candidate-frequency table.
FREQ_COLS = ["rid", "j", "v", "count"]


@dataclass
class ImputeStats:
    """Per-batch imputation accounting (break-up cost, Fig. 6)."""

    t_select: float = 0.0     # CDD selection + sample retrieval
    t_impute: float = 0.0     # candidate-value aggregation
    n_samples: int = 0        # matched (tuple, rule, sample) triples
    n_incomplete: int = 0


class Sample(NamedTuple):
    """A repository sample retrieved for one missing attribute by one rule."""

    rid: int          # incomplete tuple
    j: int            # missing (dependent) attribute
    rule_id: int
    sid: int          # repository sample
    dep_lo: float     # the rule's dependent interval A_j.I
    dep_hi: float
    s_dep_val: str    # s[A_j]


def _missing(v) -> bool:
    return v is None or pd.isna(v)


def retrieve_samples(
    batch: pd.DataFrame,
    need: Iterable[tuple[int, int]],
    dr: DRIndex,
    cddx: CDDIndex,
    *,
    indexed: bool,
) -> list[Sample]:
    """Which repository samples each rule suggests for each missing
    attribute ``(rid, j)`` in ``need``. The postings probe vs the scan of
    all of R is the TER-iDS vs CDD+ER distinction."""
    bt = {
        int(row[0]): [frozenset() if _missing(v) else tokens(v) for v in row[1:]]
        for row in batch[["rid"] + ATTR_COLS].itertuples(index=False, name=None)
    }
    every_row = range(dr.n_samples)
    out = []
    for rid, j in need:
        r = bt[rid]
        for rule in cddx.by_dep.get(j, ()):
            t1 = r[rule.x1]
            # Determinants must be present on the incomplete tuple (paper:
            # "attributes in X_i are non-missing").
            if not t1 or (rule.x2 is not None and not r[rule.x2]):
                continue
            if indexed:
                # A sample within distance hi1 < 1 of r[x1] shares a token
                # with it, so the postings union has no false negatives.
                rows = sorted({i for t in t1 for i in dr.postings.get((rule.x1, t), ())})
            else:
                rows = every_row
            for i in rows:
                s = dr.toks[i]
                if not rule.lo1 <= jaccard_dist(t1, s[rule.x1]) <= rule.hi1:
                    continue
                if rule.x2 is not None and not (
                    rule.lo2 <= jaccard_dist(r[rule.x2], s[rule.x2]) <= rule.hi2
                ):
                    continue
                out.append(Sample(rid, j, rule.rule_id, dr.sids[i],
                                  rule.dep_lo, rule.dep_hi, dr.values[i][j]))
    return out


def candidate_frequencies(
    samples: list[Sample], dr: DRIndex, *, use_dom_index: bool = True
) -> pd.DataFrame:
    """Aggregate candidate-value frequencies F(v) (Section 3) into a
    ``FREQ_COLS`` table.

    ``use_dom_index=True`` (TER-iDS / I_j+G_ER): look ``cand(s[A_j])`` up in
    the precomputed ``dom_pairs``.

    ``use_dom_index=False`` (straightforward baselines): scan the whole
    attribute domain per retrieved sample and compute each Jaccard distance
    on the fly — the paper's straightforward method, whose cost is what the
    index eliminates.

    Frequencies are *vote-split*: each retrieved (rule, sample) contributes a
    total weight of 1, divided over its candidate set ``cand(s[A_j])``. This
    calibrates Eq. (3)/(4): a contaminating sample with a broad candidate
    neighbourhood cannot dilute the concentrated evidence of samples whose
    dependent values pinpoint the missing one — matching the paper's premise
    that CDD imputation concentrates probability mass on the right value.
    Each value's weights are summed with ``math.fsum``, so the table does not
    depend on the order of ``samples``.
    """
    weights: dict[tuple[int, int, str], list[float]] = defaultdict(list)
    for s in samples:
        if use_dom_index:
            near = dr.dom_pairs.get((s.j, s.s_dep_val), ())
        else:
            u = tokens(s.s_dep_val)
            near = ((v, jaccard_dist(u, vt)) for v, vt in dr.domains[s.j].items())
        cands = [v for v, d in near if s.dep_lo <= d <= s.dep_hi]
        for v in cands:
            weights[(s.rid, s.j, v)].append(1.0 / len(cands))
    return pd.DataFrame(
        [(*key, math.fsum(w)) for key, w in weights.items()], columns=FREQ_COLS
    )


def assemble_instances(
    batch: pd.DataFrame,
    freq_pdf: pd.DataFrame,
    *,
    keywords: list[str],
    pivots: dict[int, AttributePivots],
    max_instances: int = 8,
    top_per_attr: int = 8,
) -> list[ImputedTuple]:
    """Eq. (3)/(4) normalization + instance cross product + aggregates.

    ``keywords`` is the query keyword set K — instance keyword flags and
    tuple keyword masks are computed against it (topic-aware ER is
    query-scoped, problem statement §2.3).
    """
    piv_tokens = [pivots[k].main_tokens for k in range(D)]
    by_rid: dict[int, dict[int, dict[str, int]]] = {}
    if len(freq_pdf):
        for row in freq_pdf.itertuples(index=False):
            by_rid.setdefault(row.rid, {}).setdefault(row.j, {})[row.v] = row.count
    out: list[ImputedTuple] = []
    for row in batch.itertuples(index=False):
        vals = [getattr(row, c) for c in ATTR_COLS]
        missing = [k for k in range(D) if _missing(vals[k])]
        base = [None if k in missing else vals[k] for k in range(D)]
        if not missing:
            cands = [(tuple(base), 1.0)]
        else:
            per_attr: list[list[tuple[str | None, float]]] = []
            for j in missing:
                freqs = by_rid.get(row.rid, {}).get(j, {})
                if not freqs:
                    per_attr.append([(None, 1.0)])
                    continue
                top = sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))[:top_per_attr]
                tot = sum(f for _, f in top)
                per_attr.append([(v, f / tot) for v, f in top])
            cands = [(tuple(base), 1.0)]
            for j, choices in zip(missing, per_attr):
                cands = [
                    (tuple(v if k != j else cv for k, v in enumerate(attrs)), p * cp)
                    for attrs, p in cands
                    for cv, cp in choices
                ]
            cands = cap_instances(cands, max_instances)
        out.append(
            build_imputed_tuple(
                int(row.rid), int(row.stream_id), cands,
                topics=keywords, pivot_tokens=piv_tokens,
            )
        )
    return out


def impute_batch(
    batch: pd.DataFrame,
    dr: DRIndex,
    cddx: CDDIndex,
    pivots: dict[int, AttributePivots],
    *,
    keywords: list[str],
    indexed: bool,
    max_instances: int = 8,
) -> tuple[list[ImputedTuple], ImputeStats]:
    """Impute one micro-batch via CDD/DD/editing rules (flavor = cddx rules)."""
    stats = ImputeStats()
    need = [
        (int(row[0]), k)
        for row in batch[["rid"] + ATTR_COLS].itertuples(index=False, name=None)
        for k, v in enumerate(row[1:])
        if _missing(v)
    ]
    stats.n_incomplete = len({r for r, _ in need})
    freq_pdf = pd.DataFrame(columns=FREQ_COLS)
    if need:
        t0 = time.perf_counter()
        samples = retrieve_samples(batch, need, dr, cddx, indexed=indexed)
        stats.n_samples = len(samples)
        stats.t_select = time.perf_counter() - t0

        t1 = time.perf_counter()
        freq_pdf = candidate_frequencies(samples, dr, use_dom_index=indexed)
        stats.t_impute = time.perf_counter() - t1

    tuples = assemble_instances(
        batch, freq_pdf, keywords=keywords, pivots=pivots,
        max_instances=max_instances,
    )
    return tuples, stats


def impute_batch_con(
    batch: pd.DataFrame,
    window_values: pd.DataFrame,
    pivots: dict[int, AttributePivots],
    *,
    keywords: list[str],
) -> tuple[list[ImputedTuple], ImputeStats]:
    """Constraint-based baseline [43]: statistical imputation from the
    stream itself — each missing attribute is filled with the most frequent
    (mode) value of that attribute over the current window; single instance
    with p = 1; no repository access. A tie in count goes to the smallest
    value in code-point order.

    The paper: con+ER "does not adequately consider the semantic association
    among textual attribute values" (worst accuracy) and "imputes missing
    attributes only based on incomplete data streams" (almost constant,
    repository-independent cost). A per-attribute window mode is exactly
    such a semantics-blind statistical constraint fill.
    """
    stats = ImputeStats()
    has_missing = batch[ATTR_COLS].isna().any(axis=1)
    stats.n_incomplete = int(has_missing.sum())
    filled = batch.copy()
    if stats.n_incomplete and len(window_values):
        t0 = time.perf_counter()
        modes = {}
        for c in ATTR_COLS:
            counts = Counter(window_values[c].dropna().tolist())
            if counts:
                modes[c] = min(counts.items(), key=lambda vc: (-vc[1], vc[0]))[0]
        stats.t_impute = time.perf_counter() - t0
        for c in ATTR_COLS:
            filled.loc[filled[c].isna(), c] = modes.get(c)
    tuples = assemble_instances(
        filled, pd.DataFrame(columns=FREQ_COLS),
        keywords=keywords, pivots=pivots,
    )
    return tuples, stats
