"""End-to-end TER-iDS runs: method equivalence, pruning stats, F-score.

The strongest invariant: TER-iDS, I_j+G_ER and CDD+ER share the identical
CDD imputation (indexed sample retrieval is exactly equivalent to a scan of
all of R) and the pruning/grid stages are safe — so all three must emit the
*same result pair set*; they differ only in how much work they do.
"""
import dataclasses

import pytest

from repro.bench.harness import Context
from repro.index.er_grid import PruneStats
from repro.streams.window import WindowBatch, sliding_batches
from repro.ter.algorithm import METHODS, prepare, run_stream
from repro.ter.metrics import f_score, pruning_power
from repro.ter.truth import truth_pairs

MAX_BATCHES = 2


@pytest.fixture(scope="module")
def ctx(small_ds, small_cfg):
    """The profile, pivots and one DR-index shared across methods, and one
    rule set per flavor."""
    return Context(small_ds, small_cfg)


@pytest.fixture(scope="module")
def runs(ctx, small_ds, small_cfg):
    """Run every method once on the small dataset."""
    return {
        m: run_stream(None, small_ds, small_cfg, ctx.prep(small_cfg, m),
                      max_batches=MAX_BATCHES)
        for m in METHODS
    }


class TestRunBasics:
    def test_all_methods_run(self, runs):
        assert set(runs) == set(METHODS)
        for m, r in runs.items():
            assert r.n_arrivals > 0, m

    def test_ter_produces_results(self, runs):
        assert len(runs["ter"].pairs) > 0

    def test_results_are_cross_stream(self, runs, small_ds):
        sid = small_ds.stream.set_index("rid")["stream_id"]
        for pair in runs["ter"].pairs:
            a, b = sorted(pair)
            assert sid[a] != sid[b]

    def test_timing_recorded(self, runs):
        for m in ("ter", "cdd_er"):
            assert runs[m].t_total > 0
            assert runs[m].per_arrival > 0
        assert runs["ter"].t_select > 0       # CDD selection phase
        assert runs["ter"].t_er > 0


class TestMethodEquivalence:
    def test_ter_equals_cdd_er(self, runs):
        """Index join + pruning changes cost, not results."""
        assert set(runs["ter"].pairs) == set(runs["cdd_er"].pairs)

    def test_ter_equals_ij_ger(self, runs):
        assert set(runs["ter"].pairs) == set(runs["ij_ger"].pairs)

    def test_probabilities_agree(self, runs):
        """Fully-refined TER pairs carry the same Eq. (2) probability as the
        unpruned baseline (early-stopped accepts only report a lower bound
        that is already > alpha, so compare the baseline side)."""
        for pair, pr in runs["cdd_er"].pairs.items():
            assert runs["ter"].pairs[pair] <= pr + 1e-9


class TestPruning:
    def test_stats_accumulated(self, runs):
        st = runs["ter"].prune
        assert st.total > 0
        assert st.pruned_topic > 0

    def test_pruning_power_dominated_by_topic(self, runs):
        """Fig. 4 shape: topic-keyword pruning removes the large majority."""
        pp = pruning_power(runs["ter"].prune)
        assert pp["topic"] > 0.5
        assert pp["total"] > 0.8

    def test_stage_partition(self, runs):
        st = runs["ter"].prune
        assert st.survivors >= 0
        assert st.pruned_instance + st.refined <= st.survivors + 1


class TestGolden:
    """Golden check: the reported pairs and per-stage counts of the ``runs``
    fixture. A change to candidate generation, pruning, refinement or the
    baselines' exact ER that claims the same outputs must reproduce them
    exactly. ``total`` is the window pair count of
    ``test_total_counts_window_pairs``."""

    PAIRS = {frozenset((127, 153)), frozenset((150, 166))}
    PRUNE = {
        "ter": PruneStats(total=4009, pruned_topic=3507, pruned_sim=202,
                          pruned_prob=0, pruned_instance=30, refined=270),
        "ij_ger": PruneStats(total=4009, pruned_topic=3507, pruned_sim=202,
                             pruned_prob=0, pruned_instance=0, refined=300),
        # The unindexed baselines evaluate every cross-stream pair exactly.
        "cdd_er": PruneStats(total=4009, refined=4009),
        "con_er": PruneStats(total=4009, refined=4009),
    }

    @pytest.mark.parametrize("method", ["ter", "ij_ger", "cdd_er", "con_er"])
    def test_pairs_and_prune_stats(self, runs, method):
        assert set(runs[method].pairs) == self.PAIRS
        assert runs[method].prune == self.PRUNE[method]

    def test_total_counts_window_pairs(self, runs, small_ds, small_cfg):
        """Counted from the window schedule alone: each batch's cross-stream
        pairs of an arrival with a tuple of (window_before - expired), plus
        the cross-stream pairs within the batch."""
        want = 0
        for wb in sliding_batches(small_ds.stream, w=small_cfg.w,
                                  batch_size=small_cfg.batch_size,
                                  max_batches=MAX_BATCHES):
            if wb.step == 0:
                continue
            pool = wb.window_before[~wb.window_before["rid"].isin(wb.expired_rids)]
            a = wb.arrived["stream_id"].value_counts()
            p = pool["stream_id"].value_counts()
            want += (a.get(0, 0) * p.get(1, 0) + a.get(1, 0) * p.get(0, 0)
                     + a.get(0, 0) * a.get(1, 0))
        assert want == self.PRUNE["ter"].total
        assert {runs[m].prune.total for m in METHODS} == {want}


class TestWindowState:
    """Def. 2: from the window fill on, the state holds exactly the window,
    also when one stream fills before the other."""

    @pytest.mark.parametrize("method", ["ter", "cdd_er"])
    def test_state_is_the_window(self, small_ds, small_cfg, prepared_ter, method):
        from repro.ter.algorithm import RunResult, _run_measured_batch, warmup

        prep = dataclasses.replace(prepared_ter, method=method)
        batches = sliding_batches(small_ds.stream, w=small_cfg.w,
                                  batch_size=small_cfg.batch_size,
                                  max_batches=MAX_BATCHES)
        wb = next(batches)
        assert wb.expired_rids, "the fill should overflow one stream"
        state = warmup(None, small_ds, small_cfg, prep)
        res = RunResult(method)
        while True:
            want = (set(wb.window_before["rid"]) | set(wb.arrived["rid"])) - set(
                wb.expired_rids)
            assert set(state.tuples) == set(state.aggs["rid"].tolist()) == want
            assert set(state.values["rid"].tolist()) == want
            wb = next(batches, None)
            if wb is None:
                break
            _run_measured_batch(small_cfg, prep, wb, state, res)
        assert res.n_arrivals > 0


class TestEmptyBatch:
    @pytest.mark.parametrize("method", METHODS)
    def test_empty_batch_is_a_no_op(self, ctx, small_ds, small_cfg, method):
        """A micro-batch with no arrivals and no expiries reports nothing,
        prunes nothing and leaves the window state as it was."""
        from repro.ter.algorithm import RunResult, _run_measured_batch, warmup

        prep = ctx.prep(small_cfg, method)
        state = warmup(None, small_ds, small_cfg, prep)
        before = (sorted(state.tuples), state.aggs["rid"].tolist(),
                  state.values["rid"].tolist())
        empty = small_ds.stream.iloc[0:0]
        res = RunResult(method)
        _run_measured_batch(small_cfg, prep, WindowBatch(1, empty, [], empty, 0),
                            state, res)
        assert res.pairs == {}
        assert res.prune == PruneStats()
        assert res.n_arrivals == 0
        assert (sorted(state.tuples), state.aggs["rid"].tolist(),
                state.values["rid"].tolist()) == before


class TestFScore:
    def test_truth_nonempty(self, small_ds, small_cfg):
        truth = truth_pairs(None, small_ds, small_cfg, max_batches=MAX_BATCHES)
        assert len(truth) > 0

    def test_ter_fscore_high(self, small_ds, small_cfg, runs):
        truth = truth_pairs(None, small_ds, small_cfg, max_batches=MAX_BATCHES)
        fs = f_score(set(runs["ter"].pairs), truth)
        assert fs.f > 0.6, fs

    def test_accuracy_ordering_ter_vs_con(self, small_ds, small_cfg, runs):
        """Fig. 5(a) shape: CDD-based TER-iDS beats the constraint-based
        imputation baseline."""
        truth = truth_pairs(None, small_ds, small_cfg, max_batches=MAX_BATCHES)
        f_ter = f_score(set(runs["ter"].pairs), truth).f
        f_con = f_score(set(runs["con_er"].pairs), truth).f
        assert f_ter >= f_con


class TestWarmupReuse:
    def test_warm_equals_cold(self, small_ds, small_cfg, prepared_ter):
        """Resuming from a warmup snapshot yields the same results as a cold
        run (the sweep-bench fast path is semantics-preserving)."""
        from repro.ter.algorithm import run_stream as rs, warmup

        warm = warmup(None, small_ds, small_cfg, prepared_ter)
        r_warm = rs(None, small_ds, small_cfg, prepared_ter,
                    max_batches=MAX_BATCHES, warm=warm)
        r_cold = rs(None, small_ds, small_cfg, prepared_ter,
                    max_batches=MAX_BATCHES)
        assert set(r_warm.pairs) == set(r_cold.pairs)
        assert r_warm.prune == r_cold.prune

    def test_warm_state_not_mutated(self, small_ds, small_cfg, prepared_ter):
        from repro.ter.algorithm import run_stream as rs, warmup

        warm = warmup(None, small_ds, small_cfg, prepared_ter)
        n_tuples = len(warm.tuples)
        n_aggs = len(warm.aggs["rid"])
        r1 = rs(None, small_ds, small_cfg, prepared_ter, max_batches=1, warm=warm)
        r2 = rs(None, small_ds, small_cfg, prepared_ter, max_batches=1, warm=warm)
        assert len(warm.tuples) == n_tuples and len(warm.aggs["rid"]) == n_aggs
        assert set(r1.pairs) == set(r2.pairs)

    def test_warmup_flavor_sharing(self):
        from repro.ter.algorithm import SPECS

        assert SPECS["ter"].flavor == SPECS["cdd_er"].flavor == "cdd"
        assert SPECS["dd_er"].flavor == "dd"
        assert SPECS["con_er"].flavor == "con"


class TestMethodTable:
    def test_rows_in_p_table_order(self):
        from repro.ter.algorithm import SPECS

        assert METHODS == ["ter", "ij_ger", "cdd_er", "dd_er", "er_er", "con_er"]
        assert list(SPECS) == METHODS

    def test_fields_are_data(self):
        from repro.ter.algorithm import SPECS

        for spec in SPECS.values():
            assert isinstance(spec.flavor, str)
            assert isinstance(spec.indexed, bool) and isinstance(spec.fused, bool)
            with pytest.raises(dataclasses.FrozenInstanceError):
                spec.fused = not spec.fused

    def test_ter_and_ij_ger_differ_only_in_fused(self):
        from repro.ter.algorithm import SPECS

        assert SPECS["ter"] == dataclasses.replace(SPECS["ij_ger"], fused=True)
        assert [m for m, s in SPECS.items() if s.indexed] == ["ter", "ij_ger"]
        assert [m for m, s in SPECS.items() if s.fused] == ["ter"]


class TestPrepare:
    def test_prepare_shares_pivots(self, small_ds, small_cfg, prepared_ter):
        p2 = prepare(
            None, small_ds, small_cfg, "con_er", pivots=prepared_ter.pivots
        )
        assert p2.pivots is prepared_ter.pivots
        assert p2.dr is None and p2.cddx is None

    def test_keywords_limited(self, prepared_ter, small_cfg, small_ds):
        assert prepared_ter.keywords == small_ds.keywords[: small_cfg.n_topic_keywords]
