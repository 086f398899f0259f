"""Exact (unpruned) streaming ER kernel shared by the baselines.

The CDD+ER / DD+ER / er+ER / con+ER baselines perform the ER step as the
straightforward method (paper §2.3): every cross-stream (new, window) pair is
evaluated exactly — all instance pairs, no index, no pruning. This is a
driver loop that calls, for every such pair, the Eq. (2) kernel that TER-iDS
refines with (``core/probability.py::pr_ter_ids``), without the Theorem-4.4
early stop. So Eq. (2) has one implementation, and the baselines and TER-iDS
run on the same substrate and differ only in how many pairs they evaluate.
"""
from __future__ import annotations

import pandas as pd

from repro.core.instances import ImputedTuple
from repro.core.probability import pr_ter_ids
from repro.streams.stream_gen import D

_INST_COLS = ["rid", "stream_id", "p", "has_kw"] + [f"v{k}" for k in range(D)]


def instances_frame(tuples: list[ImputedTuple]) -> pd.DataFrame:
    """Flatten instance sets to one row per instance."""
    rows = []
    for t in tuples:
        for inst in t.instances:
            rows.append(
                [t.rid, t.stream_id, inst.p, inst.has_kw]
                + [inst.attrs[k] if inst.attrs[k] is not None else "" for k in range(D)]
            )
    return pd.DataFrame(rows, columns=_INST_COLS)


def exact_er_spark(
    new: list[ImputedTuple],
    pool: list[ImputedTuple],
    *,
    gamma: float,
    alpha: float,
) -> list[tuple[int, int, float]]:
    """All-pairs exact Eq. (2) between new tuples and a pool of tuples.

    ``pool`` may include the new tuples themselves (same-batch pairs); each
    unordered pair is then counted once (pool rid < new rid when both are
    new). Only ``rid``, ``stream_id`` and ``instances`` of a tuple are read.
    Returns (rid_n, rid_m, pr) with pr > alpha.

    The name stays because the streambench probe times the baselines' ER
    under it.
    """
    new_rids = {t.rid for t in new}
    out = []
    for n in new:
        for m in pool:
            if m.stream_id == n.stream_id or (m.rid in new_rids and m.rid >= n.rid):
                continue
            pr = pr_ter_ids(n.instances, m.instances, gamma)
            if pr > alpha:
                out.append((n.rid, m.rid, pr))
    return out
