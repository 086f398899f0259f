"""Imputed-tuple instance model + aggregate tests (Def. 4, §5.2)."""
import numpy as np
import pytest

from repro.core.instances import (
    ImputedTuple,
    aggregates_frame,
    build_imputed_tuple,
    cap_instances,
    topic_mask,
)
from repro.core.probability import Instance
from repro.core.similarity import jaccard_dist, tokens
from repro.streams.stream_gen import D


def _piv():
    return [frozenset({"p", "q"})] * D


class TestCapInstances:
    def test_no_cap_needed(self):
        c = [(("a",), 0.6), (("b",), 0.4)]
        assert cap_instances(c, 4) == [(("a",), 0.6), (("b",), 0.4)]

    def test_caps_and_renormalizes(self):
        c = [((str(i),), 0.1 * (10 - i)) for i in range(10)]
        got = cap_instances(c, 2)
        assert len(got) == 2
        assert sum(p for _, p in got) == pytest.approx(1.0)
        # keeps the top-2 by probability
        assert [a for a, _ in got] == [("0",), ("1",)]

    def test_empty(self):
        assert cap_instances([], 3) == []


class TestTopicMask:
    def test_mask_bits(self):
        sets = [frozenset({"topic00", "x"}), frozenset({"y"})]
        assert topic_mask(sets, ["topic00", "topic01"]) == 0b01
        assert topic_mask(sets, ["topic01", "topic00"]) == 0b10

    def test_no_topics(self):
        assert topic_mask([frozenset({"x"})], ["topic00"]) == 0


class TestBuildImputedTuple:
    def test_complete_tuple(self):
        attrs = ("a b", "c", "d e f", "g", "h")
        t = build_imputed_tuple(
            1, 0, [(attrs, 1.0)], topics=["topic00"], pivot_tokens=_piv()
        )
        assert len(t.instances) == 1
        assert t.tmin.tolist() == [2, 1, 3, 1, 1]
        assert t.tmax.tolist() == [2, 1, 3, 1, 1]
        for k in range(D):
            dk = jaccard_dist(tokens(attrs[k]), _piv()[k])
            assert t.lb[k] == pytest.approx(dk)
            assert t.ub[k] == pytest.approx(dk)
            assert t.e[k] == pytest.approx(dk)

    def test_probabilistic_aggregates(self):
        cands = [(("a b", "c", "d", "e", "f"), 0.5), (("a b c d", "c", "d", "e", "f"), 0.5)]
        t = build_imputed_tuple(
            2, 1, cands, topics=["topic00"], pivot_tokens=_piv()
        )
        assert t.tmin[0] == 2 and t.tmax[0] == 4
        d1 = jaccard_dist(tokens("a b"), _piv()[0])
        d2 = jaccard_dist(tokens("a b c d"), _piv()[0])
        assert t.lb[0] == pytest.approx(min(d1, d2))
        assert t.ub[0] == pytest.approx(max(d1, d2))
        assert t.e[0] == pytest.approx(0.5 * d1 + 0.5 * d2)

    def test_kw_mask_from_any_instance(self):
        cands = [(("topic00 x", "c", "d", "e", "f"), 0.5), (("y", "c", "d", "e", "f"), 0.5)]
        t = build_imputed_tuple(
            3, 0, cands, topics=["topic00", "topic01"], pivot_tokens=_piv()
        )
        assert t.kw_mask == 0b01
        assert t.instances[0].has_kw
        assert not t.instances[1].has_kw

    def test_missing_attr_empty_tokens(self):
        attrs = (None, "c", "d", "e", "f")
        t = build_imputed_tuple(
            4, 0, [(attrs, 1.0)], topics=[], pivot_tokens=_piv()
        )
        assert t.tmin[0] == 0 and t.tmax[0] == 0
        assert t.lb[0] == pytest.approx(1.0)  # dist(empty, pivot) = 1


class TestAggregatesFrame:
    def test_roundtrip(self):
        t1 = build_imputed_tuple(
            1, 0, [(("a", "b", "c", "d", "e"), 1.0)], topics=[], pivot_tokens=_piv()
        )
        t2 = build_imputed_tuple(
            2, 1, [(("x y", "b", "c", "d", "e"), 1.0)], topics=[], pivot_tokens=_piv()
        )
        cols = aggregates_frame([t1, t2])
        assert all(len(v) == 2 for v in cols.values())
        assert cols["rid"][0] == 1 and cols["stream_id"][1] == 1
        assert cols["tmax0"][1] == 2
        assert {"lb0", "ub4", "e2", "tmin3", "kw_mask"} <= set(cols)
        for k in range(D):
            assert cols[f"lb{k}"][1] == t2.lb[k] and cols[f"e{k}"][0] == t1.e[k]

    def test_empty(self):
        cols = aggregates_frame([])
        assert len(cols["rid"]) == 0
        assert "rid" in cols and "lb0" in cols
