"""ER-grid synopsis over sliding windows (paper §5.2) + candidate generation.

The grid assigns every (imputed) window tuple to a d-dimensional cell by its
per-attribute main-pivot distance lower bound. Cells carry the paper's
aggregates: keyword existence, minimally-bounding pivot-distance intervals,
token-set-size intervals, and per-stream member counts. Candidate generation
for a micro-batch is a driver-side numpy pass over the window's aggregates
(a few thousand rows), using the bound kernels of :mod:`repro.core.pruning`:

  new-tuples x cells  -> cell-level pruning (Thm 4.1 / Thm 4.2 via
                          Lemmas 4.1-4.2 on cell aggregates)
  survivors x members -> tuple-level pruning (Thm 4.1, Lemmas 4.1-4.2,
                          Thm 4.3 via Lemma 4.3)

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


def assign_cells(aggs: pd.DataFrame, cells_per_dim: int) -> pd.Series:
    """Cell id string from quantized per-attribute lb distances."""
    parts = []
    for k in range(D):
        b = np.clip(
            (aggs[f"lb{k}"].to_numpy() * cells_per_dim).astype(int),
            0,
            cells_per_dim - 1,
        )
        parts.append(b.astype(str))
    out = parts[0]
    for p in parts[1:]:
        out = np.char.add(np.char.add(out, "|"), p)
    return pd.Series(out, index=aggs.index)


def build_cells(members: pd.DataFrame) -> pd.DataFrame:
    """Cell aggregate table from a member frame that has ``cell`` assigned."""
    agg_spec = {"kw_any": ("kw_mask", lambda s: int((s != 0).any()))}
    for k in range(D):
        agg_spec[f"clb{k}"] = (f"lb{k}", "min")
        agg_spec[f"cub{k}"] = (f"ub{k}", "max")
        agg_spec[f"ctmin{k}"] = (f"tmin{k}", "min")
        agg_spec[f"ctmax{k}"] = (f"tmax{k}", "max")
    cells = members.groupby("cell").agg(**agg_spec).reset_index()
    counts = (
        members.groupby(["cell", "stream_id"]).size().unstack(fill_value=0)
    )
    for s in (0, 1):
        cells[f"n{s}"] = counts.get(s, pd.Series(0, index=counts.index)).reindex(
            cells["cell"]
        ).fillna(0).to_numpy(dtype=int)
    return cells


def _columns(frame: pd.DataFrame) -> dict[str, np.ndarray]:
    return {c: frame[c].to_numpy() for c in frame.columns}


def _staged_prune(
    x: dict, i: np.ndarray, y: dict, j: np.ndarray, *,
    d: int, gamma: float, alpha: float, use_pivot: bool, use_prob: bool,
    weight: np.ndarray | None = None,
) -> tuple[np.ndarray, PruneStats]:
    """Thm 4.1 -> Lemmas 4.1/4.2 -> Lemma 4.3 over the index pairs
    ``(x[i], y[j])`` of two aggregate column maps.

    ``weight`` is the number of tuple pairs each index pair stands for (the
    eligible members of a cell); by default each counts once. Returns the
    survivor mask and the stage-attributed stats."""
    def summed(side, idx, name):
        return sum(side[f"{name}{k}"][idx] for k in range(D))

    w = np.ones(len(i), dtype=np.int64) if weight is None else weight
    surv = ~PR.topic_keyword_prune(x["kw_mask"][i] != 0, y["kw_mask"][j] != 0)
    ts_ub = sum(
        PR.ub_sim_token_size(x[f"tmin{k}"][i], x[f"tmax{k}"][i],
                             y[f"tmin{k}"][j], y[f"tmax{k}"][j])
        for k in range(D)
    )
    sim_ok = ts_ub > gamma
    if use_pivot:
        piv_ub = float(d) - sum(
            PR.ub_sim_pivot(x[f"lb{k}"][i], x[f"ub{k}"][i],
                            y[f"lb{k}"][j], y[f"ub{k}"][j])
            for k in range(D)
        )
        sim_ok &= piv_ub > gamma
    st = PruneStats(total=int(w.sum()), pruned_topic=int(w[~surv].sum()),
                    pruned_sim=int(w[surv & ~sim_ok].sum()))
    surv &= sim_ok
    if use_prob:
        prob_ub = PR.ub_prob_paley_zygmund(
            d, gamma,
            summed(x, i, "e"), summed(y, j, "e"),
            summed(x, i, "lb"), summed(x, i, "ub"),
            summed(y, j, "lb"), summed(y, j, "ub"),
        )
        prob_ok = prob_ub > alpha
        st.pruned_prob = int(w[surv & ~prob_ok].sum())
        surv &= prob_ok
    return surv, st


def _no_pairs() -> pd.DataFrame:
    return pd.DataFrame(columns=["rid_n", "rid_m"])


def generate_candidates(
    new_aggs: pd.DataFrame,
    window_aggs: pd.DataFrame,
    *,
    d: int,
    gamma: float,
    alpha: float,
    cells_per_dim: int,
    use_pivot: bool = True,
    use_prob: bool = True,
) -> tuple[pd.DataFrame, PruneStats]:
    """Grid-based candidate pairs (new x window) with staged pruning.

    Returns (pairs frame with columns rid_n/rid_m, stats). ``use_pivot`` /
    ``use_prob`` gate the Lemma-4.2/4.3 stages (the I_j+G_ER baseline runs
    without the fused pivot-sharing prunes, DESIGN.md §2.4).
    """
    if new_aggs.empty or window_aggs.empty:
        return _no_pairs(), PruneStats()
    bounds = dict(d=d, gamma=gamma, alpha=alpha, use_pivot=use_pivot)

    members = window_aggs.assign(cell=assign_cells(window_aggs, cells_per_dim))
    cells = build_cells(members)
    n = _columns(new_aggs)
    c = _columns(cells.rename(columns={"kw_any": "kw_mask", **{
        f"c{agg}{k}": f"{agg}{k}" for k in range(D) for agg in ("lb", "ub", "tmin", "tmax")
    }}))

    # Cell level: every new tuple against every occupied cell, each pair
    # weighted by the cell's members from the other stream.
    n_new, n_cells = len(new_aggs), len(cells)
    ci = np.repeat(np.arange(n_new), n_cells)
    cj = np.tile(np.arange(n_cells), n_new)
    other = 1 - n["stream_id"][ci]
    elig = cells[["n0", "n1"]].to_numpy()[cj, other]
    keep, stats = _staged_prune(n, ci, c, cj, weight=elig, use_prob=False, **bounds)

    # Expand surviving (new, cell) pairs to the cell's other-stream members:
    # members sorted by group g = 2*cell + stream, so each group is a slice.
    m = _columns(members.drop(columns="cell"))
    code = pd.Categorical(members["cell"], categories=cells["cell"]).codes
    group = 2 * code.astype(np.int64) + m["stream_id"]
    order = np.argsort(group, kind="stable")
    size = np.bincount(group, minlength=2 * n_cells)
    start = np.cumsum(size) - size
    g = 2 * cj[keep] + other[keep]
    cnt = size[g]
    ti = np.repeat(ci[keep], cnt)
    offset = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    tj = order[np.repeat(start[g], cnt) + offset]

    surv, tup = _staged_prune(n, ti, m, tj, use_prob=use_prob, **bounds)
    # The cell level already counted these pairs in ``total``.
    stats.add(replace(tup, total=0))
    out = pd.DataFrame({"rid_n": n["rid"][ti[surv]], "rid_m": m["rid"][tj[surv]]})
    return out, stats


def newnew_candidates(
    new_aggs: pd.DataFrame,
    *,
    d: int,
    gamma: float,
    alpha: float,
    use_pivot: bool = True,
    use_prob: bool = True,
) -> tuple[pd.DataFrame, PruneStats]:
    """Same-batch (new x new) cross-stream pairs, with the same staged
    pruning and stage accounting as the new x window pairs."""
    a = _columns(new_aggs)
    idx_i, idx_j = np.triu_indices(len(new_aggs), k=1)
    cross = a["stream_id"][idx_i] != a["stream_id"][idx_j]
    idx_i, idx_j = idx_i[cross], idx_j[cross]
    if len(idx_i) == 0:
        return _no_pairs(), PruneStats()
    surv, stats = _staged_prune(
        a, idx_i, a, idx_j, d=d, gamma=gamma, alpha=alpha,
        use_pivot=use_pivot, use_prob=use_prob,
    )
    out = pd.DataFrame({"rid_n": a["rid"][idx_j[surv]], "rid_m": a["rid"][idx_i[surv]]})
    return out, stats
