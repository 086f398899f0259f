"""ER-grid synopsis over sliding windows (paper §5.2) + candidate generation.

The window state keeps the tuples' aggregates as numpy columns
(``repro.core.instances.aggregates_frame``). Per micro-batch, candidate
generation splits the window into a 2 x 2 grid keyed by (stream, has
keyword): every member of a group shares its keyword flag, so Theorem 4.1 is
exact at group level. It then evaluates the bound kernels of
:mod:`repro.core.pruning` on the driver:

  new-tuples x groups  -> group-level Thm 4.1, once per (new tuple,
                          other-stream keyword group)
  survivors x members  -> tuple-level pruning (Thm 4.2 via Lemmas 4.1-4.2,
                          Thm 4.3 via Lemma 4.3)

The paper's grid also keys cells by main-pivot distance, to prune whole
cells by Lemmas 4.1/4.2; on this generator those cells pruned no pair that
the tuple level does not, so the key is the keyword flag alone (DESIGN.md
§2 item 3).

One ``fused`` flag gates the pivot-sharing stages, Lemma 4.2 and Lemma 4.3:
the method table (``repro.ter.algorithm.SPECS``) sets it for ``ter`` and
clears it for the I_j+G_ER baseline, which keeps only the grid-native
prunes (DESIGN.md §2 item 4).

A group pruned by Theorem 4.1 credits all its eligible member pairs to
``pruned_topic`` (index-level pruning credited to its theorem, as in the
paper's Figure 4); that count is exactly the cross-stream pairs with no
keyword on either side. New-vs-new pairs (both sides arriving in the same
batch) go through the same staged evaluation, with identical stage
accounting.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
import pandas as pd

from repro.core import pruning as PR
from repro.streams.stream_gen import D

@dataclass
class PruneStats:
    """Stage-attributed pair accounting (Fig. 4 pruning power)."""

    total: int = 0
    pruned_topic: int = 0
    pruned_sim: int = 0
    pruned_prob: int = 0
    pruned_instance: int = 0   # filled by the refinement (Thm 4.4)
    refined: int = 0           # pairs that reached exact evaluation

    def add(self, other: "PruneStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def survivors(self) -> int:
        return self.total - self.pruned_topic - self.pruned_sim - self.pruned_prob


def _staged_prune(
    x: dict, i: np.ndarray, y: dict, j: np.ndarray, *,
    d: int, gamma: float, alpha: float, fused: bool,
) -> tuple[np.ndarray, PruneStats]:
    """Thm 4.1 -> Lemmas 4.1/4.2 -> Lemma 4.3 over the index pairs
    ``(x[i], y[j])`` of two aggregate column maps; Lemmas 4.2 and 4.3 run
    only when ``fused``. Each stage is evaluated only on the pairs that
    survived the stages before it. Returns the survivor mask and the
    stage-attributed stats."""
    def summed(side, idx, name):
        return sum(side[f"{name}{k}"][idx] for k in range(D))

    st = PruneStats(total=len(i))
    live = np.flatnonzero(
        ~PR.topic_keyword_prune(x["kw_mask"][i] != 0, y["kw_mask"][j] != 0))
    st.pruned_topic = st.total - len(live)

    a, b = i[live], j[live]
    sim_ok = sum(
        PR.ub_sim_token_size(x[f"tmin{k}"][a], x[f"tmax{k}"][a],
                             y[f"tmin{k}"][b], y[f"tmax{k}"][b])
        for k in range(D)
    ) > gamma
    if fused:
        piv_ub = float(d) - sum(
            PR.ub_sim_pivot(x[f"lb{k}"][a], x[f"ub{k}"][a],
                            y[f"lb{k}"][b], y[f"ub{k}"][b])
            for k in range(D)
        )
        sim_ok &= piv_ub > gamma
    st.pruned_sim = int((~sim_ok).sum())
    live = live[sim_ok]

    if fused:
        a, b = i[live], j[live]
        prob_ok = PR.ub_prob_paley_zygmund(
            d, gamma,
            summed(x, a, "e"), summed(y, b, "e"),
            summed(x, a, "lb"), summed(x, a, "ub"),
            summed(y, b, "lb"), summed(y, b, "ub"),
        ) > alpha
        st.pruned_prob = int((~prob_ok).sum())
        live = live[prob_ok]
    surv = np.zeros(len(i), dtype=bool)
    surv[live] = True
    return surv, st


def _no_pairs() -> pd.DataFrame:
    return pd.DataFrame(columns=["rid_n", "rid_m"])


def generate_candidates(
    new_aggs: dict,
    window_aggs: dict,
    *,
    d: int,
    gamma: float,
    alpha: float,
    fused: bool = True,
) -> tuple[pd.DataFrame, PruneStats]:
    """Grid-based candidate pairs (new x window) with staged pruning.

    ``new_aggs`` and ``window_aggs`` are aggregate column maps. Returns
    (pairs frame with columns rid_n/rid_m, stats). ``fused`` gates the
    Lemma-4.2/4.3 stages.
    """
    n, m = new_aggs, window_aggs
    if not len(n["rid"]) or not len(m["rid"]):
        return _no_pairs(), PruneStats()

    # The 2 x 2 grid: window members sorted by group g = 2*stream_id + has_kw,
    # so each group is a slice of ``order``.
    group = 2 * m["stream_id"] + (m["kw_mask"] != 0)
    order = np.argsort(group, kind="stable")
    size = np.bincount(group, minlength=4)
    start = np.cumsum(size) - size

    # Group level: Thm 4.1 once per (new tuple, other-stream keyword group).
    gi = np.repeat(np.arange(len(n["rid"])), 2)
    g = 2 * (1 - n["stream_id"][gi]) + np.tile([0, 1], len(n["rid"]))
    pruned = PR.topic_keyword_prune(n["kw_mask"][gi] != 0, g % 2 == 1)
    cnt = size[g]
    stats = PruneStats(total=int(cnt.sum()), pruned_topic=int(cnt[pruned].sum()))

    # Expand the surviving (new, group) pairs to the group's members.
    gi, g, cnt = gi[~pruned], g[~pruned], cnt[~pruned]
    ti = np.repeat(gi, cnt)
    offset = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    tj = order[np.repeat(start[g], cnt) + offset]

    surv, tup = _staged_prune(n, ti, m, tj, d=d, gamma=gamma, alpha=alpha, fused=fused)
    # The group level already counted these pairs in ``total``.
    stats.add(replace(tup, total=0))
    out = pd.DataFrame({"rid_n": n["rid"][ti[surv]], "rid_m": m["rid"][tj[surv]]})
    return out, stats


def newnew_candidates(
    new_aggs: dict,
    *,
    d: int,
    gamma: float,
    alpha: float,
    fused: bool = True,
) -> tuple[pd.DataFrame, PruneStats]:
    """Same-batch (new x new) cross-stream pairs, with the same staged
    pruning and stage accounting as the new x window pairs."""
    a = new_aggs
    idx_i, idx_j = np.triu_indices(len(a["rid"]), k=1)
    cross = a["stream_id"][idx_i] != a["stream_id"][idx_j]
    idx_i, idx_j = idx_i[cross], idx_j[cross]
    if len(idx_i) == 0:
        return _no_pairs(), PruneStats()
    surv, stats = _staged_prune(a, idx_i, a, idx_j, d=d, gamma=gamma, alpha=alpha,
                                fused=fused)
    out = pd.DataFrame({"rid_n": a["rid"][idx_j[surv]], "rid_m": a["rid"][idx_i[surv]]})
    return out, stats
