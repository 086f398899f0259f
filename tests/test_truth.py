"""Groundtruth computation tests (entity mode vs Eq.-2 mode)."""
import pandas as pd
import pytest

from repro.config import TERConfig
from repro.streams.stream_gen import ATTR_COLS, generate
from repro.ter.truth import _kw_flags, truth_pairs


@pytest.fixture(scope="module")
def eq2_ds():
    # anime uses eq2 truth
    return generate("anime", scale=0.03, xi=0.2, m=1, eta=0.3, w=60, seed=11)


class TestKwFlags:
    def test_flags(self, small_ds):
        kws = small_ds.keywords[:5]
        flags = _kw_flags(small_ds.complete.head(200), kws)
        joined = small_ds.complete.head(200)[ATTR_COLS].fillna("").agg(" ".join, axis=1)
        expect = joined.map(lambda s: any(k in s.split() for k in kws))
        assert (flags.values == expect.values).all()


class TestEntityTruth:
    def test_pairs_are_same_entity_cross_stream(self, small_ds, small_cfg):
        truth = truth_pairs(None, small_ds, small_cfg, max_batches=2)
        meta = small_ds.stream.set_index("rid")
        for p in truth:
            a, b = sorted(p)
            assert meta.loc[a, "entity_id"] == meta.loc[b, "entity_id"]
            assert meta.loc[a, "stream_id"] != meta.loc[b, "stream_id"]

    def test_topic_condition_enforced(self, small_ds, small_cfg):
        kws = set(small_ds.keywords[: small_cfg.n_topic_keywords])
        comp = small_ds.complete.set_index("rid")
        truth = truth_pairs(None, small_ds, small_cfg, max_batches=2)
        for p in truth:
            toks = set()
            for rid in p:
                for c in ATTR_COLS:
                    toks |= set(str(comp.loc[rid, c]).split())
            assert toks & kws, p

    def test_deterministic(self, small_ds, small_cfg):
        a = truth_pairs(None, small_ds, small_cfg, max_batches=2)
        b = truth_pairs(None, small_ds, small_cfg, max_batches=2)
        assert a == b


class TestEq2Truth:
    def test_pairs_satisfy_eq2_on_complete(self, eq2_ds):
        from repro.core.similarity import sim_tuples

        cfg = TERConfig(w=60, batch_size=20, xi=0.2)
        truth = truth_pairs(None, eq2_ds, cfg, max_batches=2)
        assert len(truth) > 0
        comp = eq2_ds.complete.set_index("rid")
        for p in truth:
            a, b = sorted(p)
            sim = sim_tuples(
                [comp.loc[a, c] for c in ATTR_COLS],
                [comp.loc[b, c] for c in ATTR_COLS],
            )
            assert sim > cfg.gamma

    def test_truth_mode_selected_by_spec(self, eq2_ds, small_ds):
        assert eq2_ds.truth_mode == "eq2"
        assert small_ds.truth_mode == "entity"
