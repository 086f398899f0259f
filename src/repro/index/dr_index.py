"""DR-index ``I_R`` over the data repository R (paper §5.1, Figure 3).

R holds hundreds to a few thousand tuples, so the index is a set of plain
Python structures on the driver, built once in the offline phase:

- the repository itself, its values and their token sets, row by row;
- the **token postings** ``(attr, tok) -> rows``. The imputation probe for
  an interval constraint ``dist(r[A_x], s[A_x]) in [lo, hi]`` reads them:
  any sample within Jaccard distance ``hi < 1`` of ``r[A_x]`` shares a token
  with it, so the union of the probe value's postings is a complete
  candidate superset, and the exact constraints remove the false positives
  (DESIGN.md §2.3);
- the per-attribute value **domains** with their token sets (the
  straightforward baselines scan them);
- ``dom_pairs`` ``(attr, u) -> [(v, dist)]``: the value pairs within the
  maximum dependent interval, which turns the Section-3 candidate set
  ``cand(s[A_j])`` into a lookup.

``dom_pairs`` comes from an inverted-token self-join over each domain.
Tokens held by more than ``df_cap`` values of their attribute are skipped as
join keys (hot-token capping: pairs sharing only ultra-frequent tokens have
low similarity and mostly fall outside any dependent interval). Identity
pairs are always included. The cap is why ``dom_pairs`` can miss a pair that
a full domain scan finds (streambench/README.md, "Known divergence").
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import pandas as pd

from repro.core.pivot import AttributePivots
from repro.core.similarity import jaccard_dist, tokens
from repro.streams.stream_gen import ATTR_COLS, D


@dataclass
class DRIndex:
    """The repository and its lookup structures, on the driver.

    ``dom_pairs`` is the *index* (§5.1); the straightforward baselines instead
    scan every value of ``domains[j]`` per retrieved sample, as the paper's
    straightforward method does ("it is rather time-consuming to retrieve
    all samples ... to fill the missing attribute").
    """

    sids: list[int]                               # row -> sample id
    values: list[tuple[str, ...]]                 # row -> attribute values
    toks: list[tuple[frozenset[str], ...]]        # row -> token sets
    postings: dict[tuple[int, str], list[int]]    # (attr, tok) -> rows
    domains: dict[int, dict[str, frozenset[str]]]     # attr -> value -> tokens
    dom_pairs: dict[tuple[int, str], list[tuple[str, float]]]  # (attr, u) -> [(v, dist)]

    @property
    def n_samples(self) -> int:
        return len(self.sids)


def _dom_pairs(
    dom: dict[str, frozenset[str]], df_cap: int, max_dep_hi: float
) -> dict[str, list[tuple[str, float]]]:
    """``u -> [(v, dist)]`` for one attribute's domain: identity pairs plus
    the pairs sharing a token held by at most ``df_cap`` values, kept when
    their distance is at most ``max_dep_hi``."""
    vals = list(dom)
    post: dict[str, list[int]] = defaultdict(list)
    for i, u in enumerate(vals):
        for t in dom[u]:
            post[t].append(i)
    near: dict[int, set[int]] = defaultdict(set)
    for rows in post.values():
        if len(rows) <= df_cap:
            for i in rows:
                near[i].update(rows)
    out = {}
    for i, u in enumerate(vals):
        lst = [(u, 0.0)]
        for j in sorted(near[i] - {i}):
            d = jaccard_dist(dom[u], dom[vals[j]])
            if d <= max_dep_hi:
                lst.append((vals[j], d))
        out[u] = lst
    return out


def build_dr_index(
    spark,
    repo_pdf: pd.DataFrame,
    pivots: dict[int, AttributePivots],
    *,
    n_buckets: int = 10,
    max_dep_hi: float = 0.7,
    df_cap_frac: float = 0.02,
) -> DRIndex:
    """Build the DR-index over the repository (one-time, offline phase).

    ``spark`` is unread; it stays until the benchmark change of ROADMAP item 5.
    ``pivots`` and ``n_buckets`` are not read either: no query probes the
    repository by pivot distance.
    """
    sids = [int(s) for s in repo_pdf["sid"]]
    values = list(repo_pdf[ATTR_COLS].itertuples(index=False, name=None))
    toks = [tuple(tokens(v) for v in row) for row in values]
    postings: dict[tuple[int, str], list[int]] = defaultdict(list)
    for i, row in enumerate(toks):
        for k in range(D):
            for t in row[k]:
                postings[(k, t)].append(i)

    domains = {
        k: {u: tokens(u) for u in sorted({row[k] for row in values})}
        for k in range(D)
    }
    n_dom = sum(len(dom) for dom in domains.values())
    df_cap = max(20, int(df_cap_frac * n_dom))
    dom_pairs = {
        (k, u): lst
        for k, dom in domains.items()
        for u, lst in _dom_pairs(dom, df_cap, max_dep_hi).items()
    }
    return DRIndex(
        sids=sids, values=values, toks=toks, postings=dict(postings),
        domains=domains, dom_pairs=dom_pairs,
    )
