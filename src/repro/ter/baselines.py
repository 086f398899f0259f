"""Exact (unpruned) streaming ER kernel shared by the baselines.

The CDD+ER / DD+ER / er+ER / con+ER baselines perform the ER step as the
straightforward method (paper §2.3): every cross-stream (new, window) pair is
evaluated exactly — all instance pairs, no index, no pruning. All such pairs
go to the batched Eq. (2) kernel that TER-iDS refines with
(``core/probability.py::pr_ter_ids_batch``) in one call, without the
Theorem-4.4 early stop. So Eq. (2) has one implementation, and the baselines
and TER-iDS run on the same substrate and differ only in how many pairs they
evaluate.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.instances import ImputedTuple
from repro.core.probability import pr_ter_ids_batch
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
    rid_n, rid_m = (np.array([t.rid for t in ts], dtype=np.int64) for ts in (new, pool))
    sid_n, sid_m = (np.array([t.stream_id for t in ts], dtype=np.int64) for ts in (new, pool))
    # every (new, pool) pair, new outer, less same-stream pairs and the
    # second visit of a new x new pair
    skip = (sid_n[:, None] == sid_m) | (np.isin(rid_m, rid_n) & (rid_m >= rid_n[:, None]))
    i, j = np.nonzero(~skip)
    pr, _ = pr_ter_ids_batch([t.instances for t in (*new, *pool)], i, len(new) + j, gamma)
    ok = pr > alpha
    return list(zip(rid_n[i[ok]].tolist(), rid_m[j[ok]].tolist(), pr[ok].tolist()))
