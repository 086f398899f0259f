"""End-to-end TER-iDS runs: method equivalence, pruning stats, F-score.

The strongest invariant: TER-iDS, I_j+G_ER and CDD+ER share the identical
CDD imputation (indexed sample retrieval is exactly equivalent to a scan of
all of R) and the pruning/grid stages are safe — so all three must emit the
*same result pair set*; they differ only in how much work they do.
"""
import pytest

from repro.bench.harness import Context
from repro.index.er_grid import PruneStats
from repro.ter.algorithm import METHODS, prepare, run_stream
from repro.ter.metrics import f_score, pruning_power
from repro.ter.truth import truth_pairs

MAX_BATCHES = 2


@pytest.fixture(scope="module")
def runs(spark, small_ds, small_cfg):
    """Run every method once on the small dataset. The profile, pivots and
    one DR-index are shared across methods, and one rule set per flavor."""
    ctx = Context(spark, small_ds, small_cfg)
    return {
        m: run_stream(spark, small_ds, small_cfg, ctx.prep(spark, small_cfg, m),
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
    fixture. A change to candidate generation, pruning or refinement that
    claims the same outputs must reproduce them exactly."""

    PAIRS = {frozenset((127, 153)), frozenset((150, 166))}
    PRUNE = {
        "ter": PruneStats(total=4638, pruned_topic=4102, pruned_sim=209,
                          pruned_prob=0, pruned_instance=37, refined=290),
        "ij_ger": PruneStats(total=4638, pruned_topic=4102, pruned_sim=209,
                             pruned_prob=0, pruned_instance=0, refined=327),
    }

    @pytest.mark.parametrize("method", ["ter", "ij_ger"])
    def test_pairs_and_prune_stats(self, runs, method):
        assert set(runs[method].pairs) == self.PAIRS
        assert runs[method].prune == self.PRUNE[method]


class TestFScore:
    def test_truth_nonempty(self, spark, small_ds, small_cfg):
        truth = truth_pairs(spark, small_ds, small_cfg, max_batches=MAX_BATCHES)
        assert len(truth) > 0

    def test_ter_fscore_high(self, spark, small_ds, small_cfg, runs):
        truth = truth_pairs(spark, small_ds, small_cfg, max_batches=MAX_BATCHES)
        fs = f_score(set(runs["ter"].pairs), truth)
        assert fs.f > 0.6, fs

    def test_accuracy_ordering_ter_vs_con(self, spark, small_ds, small_cfg, runs):
        """Fig. 5(a) shape: CDD-based TER-iDS beats the constraint-based
        imputation baseline."""
        truth = truth_pairs(spark, small_ds, small_cfg, max_batches=MAX_BATCHES)
        f_ter = f_score(set(runs["ter"].pairs), truth).f
        f_con = f_score(set(runs["con_er"].pairs), truth).f
        assert f_ter >= f_con


class TestWarmupReuse:
    def test_warm_equals_cold(self, spark, small_ds, small_cfg, prepared_ter):
        """Resuming from a warmup snapshot yields the same results as a cold
        run (the sweep-bench fast path is semantics-preserving)."""
        from repro.ter.algorithm import run_stream as rs, warmup

        warm = warmup(spark, small_ds, small_cfg, prepared_ter)
        r_warm = rs(spark, small_ds, small_cfg, prepared_ter,
                    max_batches=MAX_BATCHES, warm=warm)
        r_cold = rs(spark, small_ds, small_cfg, prepared_ter,
                    max_batches=MAX_BATCHES)
        assert set(r_warm.pairs) == set(r_cold.pairs)

    def test_warm_state_not_mutated(self, spark, small_ds, small_cfg, prepared_ter):
        from repro.ter.algorithm import run_stream as rs, warmup

        warm = warmup(spark, small_ds, small_cfg, prepared_ter)
        n_tuples = len(warm.tuples)
        n_aggs = len(warm.aggs)
        r1 = rs(spark, small_ds, small_cfg, prepared_ter, max_batches=1, warm=warm)
        r2 = rs(spark, small_ds, small_cfg, prepared_ter, max_batches=1, warm=warm)
        assert len(warm.tuples) == n_tuples and len(warm.aggs) == n_aggs
        assert set(r1.pairs) == set(r2.pairs)

    def test_warmup_flavor_sharing(self):
        from repro.ter.algorithm import warmup_flavor

        assert warmup_flavor("ter") == warmup_flavor("cdd_er") == "cdd"
        assert warmup_flavor("dd_er") == "dd"
        assert warmup_flavor("con_er") == "con"


class TestPrepare:
    def test_prepare_shares_pivots(self, spark, small_ds, small_cfg, prepared_ter):
        p2 = prepare(
            spark, small_ds, small_cfg, "con_er", pivots=prepared_ter.pivots
        )
        assert p2.pivots is prepared_ter.pivots
        assert p2.dr is None and p2.cddx is None

    def test_keywords_limited(self, prepared_ter, small_cfg, small_ds):
        assert prepared_ter.keywords == small_ds.keywords[: small_cfg.n_topic_keywords]
