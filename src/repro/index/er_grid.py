"""ER-grid synopsis over sliding windows (paper §5.2) + candidate generation.

The grid assigns every (imputed) window tuple to a d-dimensional cell by its
per-attribute main-pivot distance lower bound. The window state keeps the
tuples' aggregates as numpy columns (``repro.core.instances.aggregates_frame``)
plus one integer cell code per tuple (:func:`cell_codes`), computed once when
the tuple is inserted. Per micro-batch, candidate generation derives the
occupied cells from the codes with numpy reductions: each cell carries the
paper's aggregates (keyword existence, minimally-bounding pivot-distance
intervals, token-set-size intervals, per-stream member counts), exactly the
min/max over its members. It then evaluates the bound kernels of
:mod:`repro.core.pruning` on the driver:

  new-tuples x cells  -> cell-level pruning (Thm 4.1 / Thm 4.2 via
                          Lemmas 4.1-4.2 on cell aggregates)
  survivors x members -> tuple-level pruning (Thm 4.1, Lemmas 4.1-4.2,
                          Thm 4.3 via Lemma 4.3)

One ``fused`` flag gates the pivot-sharing stages, Lemma 4.2 and Lemma 4.3:
the method table (``repro.ter.algorithm.SPECS``) sets it for ``ter`` and
clears it for the I_j+G_ER baseline, which keeps only the grid-native
prunes (DESIGN.md §2 item 4).

A cell pruned at stage s attributes all its eligible member pairs to stage s
(index-level pruning credited to its theorem, as in the paper's Figure 4).
New-vs-new pairs (both sides arriving in the same batch) go through the same
staged evaluation, with identical stage accounting.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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
        for f in ("total", "pruned_topic", "pruned_sim", "pruned_prob",
                  "pruned_instance", "refined"):
            setattr(self, f, getattr(self, f) + getattr(other, f))

    @property
    def survivors(self) -> int:
        return self.total - self.pruned_topic - self.pruned_sim - self.pruned_prob


def cell_codes(aggs: dict, cells_per_dim: int) -> np.ndarray:
    """Integer cell of each row: the per-attribute ``lb`` quantized to
    ``cells_per_dim`` bins, as the digits of a base-``cells_per_dim`` number
    (attribute k has weight ``cells_per_dim**k``)."""
    code = np.zeros(len(aggs["rid"]), dtype=np.int64)
    for k in reversed(range(D)):
        b = np.clip((aggs[f"lb{k}"] * cells_per_dim).astype(np.int64), 0, cells_per_dim - 1)
        code = code * cells_per_dim + b
    return code


def occupied_cells(window_aggs: dict) -> tuple[dict, np.ndarray, np.ndarray]:
    """The occupied cells of the window members' ``cell`` codes.

    Returns (cells, order, size). ``order`` sorts the members by group
    g = 2*cell + stream_id, so each cell and each of its per-stream member
    lists is a slice; ``size[g]`` is the size of group g. ``cells`` holds,
    per occupied cell in code order, its ``code`` and aggregates that are
    exactly the members' OR (``kw_mask``), min (``lb{k}``, ``tmin{k}``) and
    max (``ub{k}``, ``tmax{k}``)."""
    m = window_aggs
    code, cell = np.unique(m["cell"], return_inverse=True)
    group = 2 * cell + m["stream_id"]
    order = np.argsort(group, kind="stable")
    size = np.bincount(group, minlength=2 * len(code))
    first = (np.cumsum(size) - size)[0::2]
    cells = {"code": code, "kw_mask": np.bitwise_or.reduceat(m["kw_mask"][order], first)}
    for k in range(D):
        for name, reduce in (("lb", np.minimum), ("ub", np.maximum),
                             ("tmin", np.minimum), ("tmax", np.maximum)):
            cells[f"{name}{k}"] = reduce.reduceat(m[f"{name}{k}"][order], first)
    return cells, order, size


def _staged_prune(
    x: dict, i: np.ndarray, y: dict, j: np.ndarray, *,
    d: int, gamma: float, alpha: float, fused: bool,
    weight: np.ndarray | None = None,
) -> tuple[np.ndarray, PruneStats]:
    """Thm 4.1 -> Lemmas 4.1/4.2 -> Lemma 4.3 over the index pairs
    ``(x[i], y[j])`` of two aggregate column maps; Lemmas 4.2 and 4.3 run
    only when ``fused``. Each stage is evaluated only on the pairs that
    survived the stages before it.

    ``weight`` is the number of tuple pairs each index pair stands for (the
    eligible members of a cell); by default each counts once. A weighted
    call is the cell level, whose aggregates carry no expected distances
    ``e``, so Lemma 4.3 runs on unweighted (tuple) pairs only. Returns the
    survivor mask and the stage-attributed stats."""
    def summed(side, idx, name):
        return sum(side[f"{name}{k}"][idx] for k in range(D))

    w = np.ones(len(i), dtype=np.int64) if weight is None else weight
    st = PruneStats(total=int(w.sum()))
    live = np.flatnonzero(
        ~PR.topic_keyword_prune(x["kw_mask"][i] != 0, y["kw_mask"][j] != 0))
    st.pruned_topic = st.total - int(w[live].sum())

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
    st.pruned_sim = int(w[live[~sim_ok]].sum())
    live = live[sim_ok]

    if fused and weight is None:
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

    ``new_aggs`` and ``window_aggs`` are aggregate column maps; the window's
    also carries each member's ``cell`` code. Returns (pairs frame with
    columns rid_n/rid_m, stats). ``fused`` gates the Lemma-4.2/4.3 stages.
    """
    n, m = new_aggs, window_aggs
    if not len(n["rid"]) or not len(m["rid"]):
        return _no_pairs(), PruneStats()
    bounds = dict(d=d, gamma=gamma, alpha=alpha, fused=fused)

    c, order, size = occupied_cells(m)
    start = np.cumsum(size) - size

    # Cell level: every new tuple against every occupied cell, each pair
    # weighted by the cell's members from the other stream.
    n_new, n_cells = len(n["rid"]), len(c["code"])
    ci = np.repeat(np.arange(n_new), n_cells)
    cj = np.tile(np.arange(n_cells), n_new)
    other = 1 - n["stream_id"][ci]
    keep, stats = _staged_prune(n, ci, c, cj, weight=size[2 * cj + other], **bounds)

    # Expand surviving (new, cell) pairs to the cell's other-stream members.
    g = 2 * cj[keep] + other[keep]
    cnt = size[g]
    ti = np.repeat(ci[keep], cnt)
    offset = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    tj = order[np.repeat(start[g], cnt) + offset]

    surv, tup = _staged_prune(n, ti, m, tj, **bounds)
    # The cell level already counted these pairs in ``total``.
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
