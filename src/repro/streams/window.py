"""Count-based sliding window over incomplete data streams (Defs. 1-2).

The paper's model advances one tuple per timestamp per stream; per the
micro-batch substitution in DESIGN.md §2, the driver advances the window in
*micro-batches* of ``batch_size`` arrivals: at each step the oldest
``batch_size`` tuples per stream expire and ``batch_size`` new ones arrive.
Reported per-timestamp wall-clock = batch wall-clock / arrivals, matching the
paper's "average wall clock time ... for each new timestamp".

The window is one FIFO of row positions per stream over the ``ts``-sorted
stream; a step walks the arrivals' ``rid``/``stream_id`` values, and its
``arrived`` and ``window_before`` frames are row selections of the sorted
stream.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd


@dataclass
class WindowBatch:
    """One micro-batch step: newly arrived tuples, expired rids, and the
    window contents *before* this batch's arrivals (the paper's W_{t-1},
    against which new tuples are matched)."""

    step: int
    arrived: pd.DataFrame
    expired_rids: list[int]
    window_before: pd.DataFrame
    n_arrivals: int


def sliding_batches(
    stream: pd.DataFrame, *, w: int, batch_size: int, max_batches: int | None = None,
    warmup: bool = True,
) -> Iterator[WindowBatch]:
    """Iterate micro-batches of the count-based sliding window.

    ``stream`` must be sorted by ``ts``. Each stream keeps its own window of
    the ``w`` most recent tuples (Def. 2, per-stream windows). When
    ``warmup`` is set, the first window-fill of ``w`` tuples per stream is
    emitted as one batch (step 0) so steady-state steps are measured on a
    full window — matching the paper, which reports per-timestamp cost of a
    full window. The fill ends once every stream holds ``w`` tuples, so a
    stream that fills first overflows, and its oldest tuples expire at
    step 0.
    """
    stream = stream.sort_values(["ts", "rid"], kind="stable").reset_index(drop=True)
    rid = stream["rid"].tolist()
    sid = stream["stream_id"].tolist()
    n = len(stream)
    sids = sorted(set(sid))
    # Row positions in the window, per stream, oldest first.
    per_stream: dict[int, deque] = {s: deque() for s in sids}

    def advance(lo: int, hi: int, step: int) -> WindowBatch:
        window_before = stream.iloc[np.sort(np.fromiter(
            (p for q in per_stream.values() for p in q), dtype=np.int64))]
        expired: list[int] = []
        for pos in range(lo, hi):
            q = per_stream[sid[pos]]
            q.append(pos)
            if len(q) > w:
                expired.append(rid[q.popleft()])
        return WindowBatch(
            step=step,
            arrived=stream.iloc[lo:hi].reset_index(drop=True),
            expired_rids=expired,
            window_before=window_before.reset_index(drop=True),
            n_arrivals=hi - lo,
        )

    pos = step = 0
    if warmup:
        # filled[i]: every stream has w tuples among the first i rows.
        filled = np.ones(n + 1, dtype=bool)
        sid_arr = np.asarray(sid)
        for s in sids:
            filled &= np.r_[0, np.cumsum(sid_arr == s)] >= w
        pos = int(filled.argmax()) if filled.any() else n
        yield advance(0, pos, step)
        step += 1

    while pos < n:
        if max_batches is not None and step > (max_batches if warmup else max_batches - 1):
            return
        hi = min(n, pos + batch_size * len(sids))
        yield advance(pos, hi, step)
        pos = hi
        step += 1
