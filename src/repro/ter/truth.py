"""Groundtruth for the TER-iDS result set (paper §6.1).

Two modes, as in the paper:
- ``entity``: "actual groundtruth" (Citations, Songs) — pairs of co-window,
  cross-stream tuples with the same planted entity id, subject to the topic
  condition (at least one side contains a query keyword);
- ``eq2``: groundtruth "based on Equation (2)" (Anime, Bikes, EBooks) — the
  exact TER result computed over the *complete* (pre-corruption) tuples:
  complete tuples have a single instance with p = 1, so a pair is in the
  truth iff (kw_i or kw_j) and sim > gamma.

Both replay the same sliding-window schedule as the measured run (warmup
batch unmeasured, ``max_batches`` measured steps), so the reference and the
system see identical pair populations.
"""
from __future__ import annotations

from typing import NamedTuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.config import TERConfig
from repro.core.probability import Instance
from repro.core.similarity import tokens
from repro.streams.stream_gen import ATTR_COLS, Dataset
from repro.streams.window import sliding_batches
from repro.ter.baselines import exact_er_spark


def _kw_flags(df: pd.DataFrame, keywords: list[str]) -> pd.Series:
    kws = set(keywords)
    def has(row) -> bool:
        return any(bool(tokens(row[c]) & kws) for c in ATTR_COLS)
    return df.apply(has, axis=1)


class _Complete(NamedTuple):
    """A complete tuple as the exact-ER kernel reads it: one instance, p = 1."""

    rid: int
    stream_id: int
    instances: list[Instance]


def _complete_tuples(df: pd.DataFrame, keywords: list[str]) -> list[_Complete]:
    kws = frozenset(keywords)
    return [
        _Complete(int(row[0]), int(row[1]), [Instance(row[2:], 1.0, keywords=kws)])
        for row in df[["rid", "stream_id", *ATTR_COLS]].itertuples(index=False)
    ]


def _pairs_iter(ds: Dataset, cfg: TERConfig, max_batches: int):
    """Yield (arrived_complete, pool_complete) per measured batch."""
    comp = ds.complete.set_index("rid", drop=False)
    for wb in sliding_batches(
        ds.stream, w=cfg.w, batch_size=cfg.batch_size, max_batches=max_batches
    ):
        if wb.step == 0:
            continue
        arrived = comp.loc[wb.arrived["rid"]].reset_index(drop=True)
        pool_rids = wb.window_before["rid"].tolist() + wb.arrived["rid"].tolist()
        pool = comp.loc[pool_rids].reset_index(drop=True)
        yield arrived, pool


def truth_pairs(
    spark: SparkSession, ds: Dataset, cfg: TERConfig, *, max_batches: int = 3
) -> set[frozenset]:
    """Reference matching-pair set for a run with the given schedule.

    ``spark`` is not read; callers pass it positionally, so it stays."""
    keywords = ds.keywords[: cfg.n_topic_keywords]
    out: set[frozenset] = set()
    for arrived, pool in _pairs_iter(ds, cfg, max_batches):
        if ds.truth_mode == "entity":
            a_kw = _kw_flags(arrived, keywords)
            p_kw = _kw_flags(pool, keywords)
            new_rids = set(arrived["rid"])
            pool_i = pool.assign(kw=p_kw.values)
            for row, kw_n in zip(arrived.itertuples(index=False), a_kw.values):
                cand = pool_i[
                    (pool_i["entity_id"] == row.entity_id)
                    & (pool_i["stream_id"] != row.stream_id)
                ]
                for m in cand.itertuples(index=False):
                    if m.rid == row.rid:
                        continue
                    if m.rid in new_rids and not (m.rid < row.rid):
                        continue
                    if kw_n or m.kw:
                        out.add(frozenset((int(row.rid), int(m.rid))))
        else:
            got = exact_er_spark(
                _complete_tuples(arrived, keywords), _complete_tuples(pool, keywords),
                gamma=cfg.gamma, alpha=cfg.alpha,
            )
            out.update(frozenset((rid_n, rid_m)) for rid_n, rid_m, _ in got)
    return out
