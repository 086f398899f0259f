"""The online TER-iDS operator and baseline runners (paper Algorithms 1-2).

``prepare`` runs the offline pre-computation phase: pivot selection
(Section 5.4), rule detection (Section 2.2), CDD-index and DR-index builds
(Section 5.1). ``warmup`` fills the sliding window (unmeasured, like the
paper's steady-state methodology), and ``run_stream`` drives measured
micro-batches (Section 5.3): expire, impute newly arrived incomplete tuples,
generate and prune candidate pairs, refine survivors exactly, maintain the
entity set ES.

The six methods of paper §6.1 are the rows of :data:`SPECS`.

All ER runs on the driver with one Eq. (2) kernel: the indexed methods refine
the grid's surviving pairs with it, and the unindexed baselines evaluate
every cross-stream pair with it (``baselines.exact_er_spark``).
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.config import TERConfig
from repro.core.cdd_detect import detect_rules, sample_pair_profile
from repro.core.imputation import (
    ImputeStats,
    impute_batch,
    impute_batch_con,
)
from repro.core.instances import ImputedTuple, aggregates_frame
from repro.core.pivot import select_all_pivots
# pr_ter_ids_detail is not called here; the streambench probe patches this name.
from repro.core.probability import pr_ter_ids_batch, pr_ter_ids_detail  # noqa: F401
from repro.index.cdd_index import build_cdd_index
from repro.index.dr_index import build_dr_index
from repro.index.er_grid import PruneStats, generate_candidates, newnew_candidates
from repro.streams.stream_gen import ATTR_COLS, Dataset
from repro.streams.window import WindowBatch, sliding_batches
# instances_frame is not called here; the streambench probe patches this name.
from repro.ter.baselines import exact_er_spark, instances_frame  # noqa: F401


@dataclass(frozen=True)
class MethodSpec:
    """The three choices that define a paper method (§6.1)."""

    flavor: str     # imputation rules: cdd, dd, er; con = window constraints
    indexed: bool   # DR-index retrieval + ER-grid, else full scan + all pairs
    fused: bool     # Lemma-4.2/4.3 grid stages + Theorem-4.4 early stop


#: One row per paper method, in P-table order. Methods that share a
#: ``flavor`` share rule indexes and warmup state (``bench.harness``).
SPECS = {
    # TER-iDS: the fused pipeline, all four prunings and the early stop.
    "ter": MethodSpec("cdd", indexed=True, fused=True),
    # I_j+G_ER: same indexes, only the grid-native prunes, full refinement.
    "ij_ger": MethodSpec("cdd", indexed=True, fused=False),
    # CDD rules, no indexes: full-scan imputation + all-pairs exact ER.
    "cdd_er": MethodSpec("cdd", indexed=False, fused=False),
    # DD rules (looser), no indexes.
    "dd_er": MethodSpec("dd", indexed=False, fused=False),
    # Editing rules, no indexes.
    "er_er": MethodSpec("er", indexed=False, fused=False),
    # Constraint-based window imputation [43], all-pairs exact ER.
    "con_er": MethodSpec("con", indexed=False, fused=False),
}
METHODS = list(SPECS)

#: dom_pairs distance cutoff covering every rule flavor's dependent intervals,
#: so one DR-index serves all methods (TAU_DD = 0.70 is the widest).
DOM_PAIRS_CUTOFF = 0.75


@dataclass
class Prepared:
    """Offline pre-computation products for one (dataset, method)."""

    method: str
    pivots: dict
    cddx: object | None
    dr: object | None
    keywords: list[str]


@dataclass
class TERState:
    """Sliding-window state carried between micro-batches.

    ``tuples`` maps rid to the window's imputed tuples (the instance sets
    that refinement and exact ER read). ``aggs`` holds one row per window
    tuple in ``aggregates_frame``'s numpy columns. ``values``
    holds the window rows' raw attribute values (``rid`` plus
    ``ATTR_COLS``; ``con_er``'s window mode reads the complete ones). Insert
    appends rows and expiry masks them out; both build new arrays and never
    write into old ones, so a clone shares the arrays.
    """

    tuples: dict[int, ImputedTuple] = field(default_factory=dict)
    aggs: dict[str, np.ndarray] = field(default_factory=lambda: aggregates_frame([]))
    values: dict[str, np.ndarray] = field(default_factory=lambda: {
        "rid": np.zeros(0, dtype=np.int64), **{c: np.zeros(0, dtype=object) for c in ATTR_COLS}})

    def clone(self) -> "TERState":
        return TERState(dict(self.tuples), dict(self.aggs), dict(self.values))


@dataclass
class RunResult:
    """Measured outcome of one streaming run."""

    method: str
    pairs: dict = field(default_factory=dict)   # frozenset{rid,rid} -> pr
    prune: PruneStats = field(default_factory=PruneStats)
    t_select: float = 0.0
    t_impute: float = 0.0
    t_er: float = 0.0
    n_arrivals: int = 0

    @property
    def t_total(self) -> float:
        return self.t_select + self.t_impute + self.t_er

    @property
    def per_arrival(self) -> float:
        return self.t_total / max(1, self.n_arrivals)


def select_pivots_for(ds: Dataset, cfg: TERConfig) -> dict:
    domains = {
        k: sorted(ds.repository[c].dropna().unique().tolist())
        for k, c in enumerate(ATTR_COLS)
    }
    return select_all_pivots(
        domains,
        buckets=cfg.pivot_buckets,
        emin=cfg.pivot_emin,
        cnt_max=cfg.pivot_cnt_max,
        seed=cfg.seed,
    )


def prepare(
    spark,
    ds: Dataset,
    cfg: TERConfig,
    method: str,
    *,
    profile: pd.DataFrame | None = None,
    pivots: dict | None = None,
    dr=None,
) -> Prepared:
    """Offline phase. ``profile``/``pivots``/``dr`` may be passed in to share
    the method-independent products across methods (the DR-index is built
    with the flavor-agnostic DOM_PAIRS_CUTOFF, so it serves every flavor).

    ``spark`` is unread; it stays until the benchmark change of ROADMAP item 5."""
    if pivots is None:
        pivots = select_pivots_for(ds, cfg)
    keywords = ds.keywords[: cfg.n_topic_keywords]
    flavor = SPECS[method].flavor
    if flavor == "con":
        return Prepared(method, pivots, None, None, keywords)
    if profile is None:
        profile = sample_pair_profile(None, ds.repository, seed=cfg.seed)
    rules = detect_rules(ds.repository, flavor=flavor, profile=profile)
    cddx = build_cdd_index(rules)
    if dr is None:
        dr = build_dr_index(
            None,
            ds.repository,
            pivots,
            n_buckets=cfg.pivot_buckets,
            max_dep_hi=DOM_PAIRS_CUTOFF,
        )
    return Prepared(method, pivots, cddx, dr, keywords)


def _impute(
    batch: pd.DataFrame, prep: Prepared, cfg: TERConfig, state: TERState,
    *, indexed: bool,
) -> tuple[list[ImputedTuple], ImputeStats]:
    if SPECS[prep.method].flavor == "con":
        return impute_batch_con(
            batch, pd.DataFrame(state.values).dropna(subset=ATTR_COLS),
            prep.pivots, keywords=prep.keywords,
        )
    return impute_batch(
        batch, prep.dr, prep.cddx, prep.pivots,
        keywords=prep.keywords,
        indexed=indexed,
        max_instances=cfg.max_instances,
    )


def _refine(
    cands: list[pd.DataFrame],
    inst_of: dict[int, ImputedTuple],
    *,
    gamma: float,
    alpha: float,
    early: bool,
) -> tuple[dict, int, int]:
    """Exact Eq. (2) on surviving candidate pairs: the ``rid_n``/``rid_m``
    rows of each grid result in ``cands`` in turn, in one kernel call.

    Returns (accepted {pair: pr}, n_instance_pruned, n_refined)."""
    rid_n, rid_m = (np.concatenate([c[col].to_numpy(dtype=np.int64) for c in cands])
                    for col in ("rid_n", "rid_m"))
    rows = pd.Index(np.fromiter(inst_of, dtype=np.int64, count=len(inst_of)))
    row_n, row_m = rows.get_indexer(rid_n), rows.get_indexer(rid_m)
    known = (row_n >= 0) & (row_m >= 0)
    pr, stopped = pr_ter_ids_batch(
        [t.instances for t in inst_of.values()], row_n[known], row_m[known],
        gamma, alpha if early else None)
    ok = pr > alpha
    accepted = {frozenset((a, b)): v for a, b, v in zip(
        rid_n[known][ok].tolist(), rid_m[known][ok].tolist(), pr[ok].tolist())}
    n_inst = int(np.count_nonzero(stopped))
    return accepted, n_inst, len(pr) - n_inst


def _append(cols: dict, new: dict) -> dict:
    return {c: np.concatenate([v, new[c]]) for c, v in cols.items()}


def _drop(cols: dict, rids: list[int]) -> dict:
    keep = ~np.isin(cols["rid"], rids)
    return {c: v[keep] for c, v in cols.items()}


def _expire(state: TERState, expired_rids: list[int]) -> None:
    for rid in expired_rids:
        state.tuples.pop(rid, None)
    if expired_rids:
        state.aggs = _drop(state.aggs, expired_rids)
        state.values = _drop(state.values, expired_rids)


def _insert(state: TERState, arrived: pd.DataFrame, new_tuples: list[ImputedTuple],
            new_aggs: dict) -> None:
    state.tuples.update({t.rid: t for t in new_tuples})
    state.aggs = _append(state.aggs, new_aggs)
    state.values = _append(state.values, {c: arrived[c].to_numpy() for c in state.values})


def warmup(spark, ds: Dataset, cfg: TERConfig, prep: Prepared) -> TERState:
    """Process the window-fill batch (step 0) into a reusable TERState.

    Unmeasured; imputation always retrieves samples through the DR-index's
    prefix probe, whatever the method: it returns exactly what a scan of all
    of R returns, in the same order (asserted by tests), so this only
    bounds setup cost.

    ``spark`` is unread; it stays until the benchmark change of ROADMAP item 5."""
    state = TERState()
    for wb in sliding_batches(ds.stream, w=cfg.w, batch_size=cfg.batch_size,
                              max_batches=0):
        assert wb.step == 0
        state = _fill(cfg, prep, wb)
    return state


def _fill(cfg: TERConfig, prep: Prepared, wb: WindowBatch) -> TERState:
    """The state after the window-fill batch: its arrivals, less the oldest
    tuples of a stream that filled before the other (``wb.expired_rids``)."""
    state = TERState()
    new_tuples, _ = _impute(wb.arrived, prep, cfg, state, indexed=True)
    _insert(state, wb.arrived, new_tuples, aggregates_frame(new_tuples))
    _expire(state, wb.expired_rids)
    return state


def run_stream(
    spark,
    ds: Dataset,
    cfg: TERConfig,
    prep: Prepared,
    *,
    max_batches: int = 3,
    warm: TERState | None = None,
) -> RunResult:
    """Drive measured micro-batches over the sliding window.

    ``warm``: a warmup state snapshot (from :func:`warmup`) to resume from —
    it is cloned, never mutated, so one snapshot serves a whole sweep.

    ``spark`` is unread; it stays until the benchmark change of ROADMAP item 5."""
    res = RunResult(method=prep.method)
    state = warm.clone() if warm is not None else None

    for wb in sliding_batches(
        ds.stream, w=cfg.w, batch_size=cfg.batch_size, max_batches=max_batches
    ):
        if wb.step == 0:
            if state is None:
                state = _fill(cfg, prep, wb)
            continue
        _run_measured_batch(cfg, prep, wb, state, res)
    return res


def _run_measured_batch(
    cfg: TERConfig, prep: Prepared, wb: WindowBatch, state: TERState,
    res: RunResult,
) -> None:
    spec = SPECS[prep.method]
    _expire(state, wb.expired_rids)

    new_tuples, istats = _impute(wb.arrived, prep, cfg, state, indexed=spec.indexed)
    res.t_select += istats.t_select
    res.t_impute += istats.t_impute
    res.n_arrivals += wb.n_arrivals
    new_map = {t.rid: t for t in new_tuples}
    new_aggs = aggregates_frame(new_tuples)

    t0 = time.perf_counter()
    if spec.indexed:
        bounds = dict(d=cfg.d, gamma=cfg.gamma, alpha=cfg.alpha, fused=spec.fused)
        cand, st1 = generate_candidates(new_aggs, state.aggs, **bounds)
        cand2, st2 = newnew_candidates(new_aggs, **bounds)
        res.prune.add(st1)
        res.prune.add(st2)
        inst_of = {**state.tuples, **new_map}
        acc, n_inst, n_ref = _refine(
            [cand, cand2], inst_of, gamma=cfg.gamma, alpha=cfg.alpha, early=spec.fused
        )
        res.prune.pruned_instance += n_inst
        res.prune.refined += n_ref
        res.pairs.update(acc)
    else:
        got = exact_er_spark(
            new_tuples, [*state.tuples.values(), *new_tuples],
            gamma=cfg.gamma, alpha=cfg.alpha,
        )
        for rid_n, rid_m, pr in got:
            res.pairs[frozenset((rid_n, rid_m))] = pr
        # Work accounting: the straightforward ER evaluates every
        # cross-stream pair exactly (no pruning) — the substrate-independent
        # cost the paper's index join removes.
        n_new = Counter(t.stream_id for t in new_tuples)
        n_win = Counter(t.stream_id for t in state.tuples.values())
        total = (
            n_new[0] * n_win[1] + n_new[1] * n_win[0] + n_new[0] * n_new[1]
        )
        res.prune.total += total
        res.prune.refined += total
    res.t_er += time.perf_counter() - t0

    _insert(state, wb.arrived, new_tuples, new_aggs)
