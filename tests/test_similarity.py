"""Unit tests for the similarity kernels (paper Definition 5, Eq. 1)."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.similarity import (
    dist_tuples,
    jaccard,
    jaccard_dist,
    sim_tuples,
    tokens,
)
from tests.spark_reference import jaccard_col, jaccard_dist_col, tokens_col


class TestTokens:
    def test_basic(self):
        assert tokens("a b c") == frozenset({"a", "b", "c"})

    def test_dedup(self):
        assert tokens("a a b") == frozenset({"a", "b"})

    def test_none(self):
        assert tokens(None) == frozenset()

    def test_empty(self):
        assert tokens("") == frozenset()

    def test_extra_whitespace(self):
        assert tokens("  a   b ") == frozenset({"a", "b"})


class TestJaccard:
    def test_identical(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_half(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard(set(), set()) == 0.0

    def test_one_empty(self):
        assert jaccard({"a"}, set()) == 0.0

    def test_dist_complement(self):
        assert jaccard_dist({"a", "b"}, {"b", "c"}) == pytest.approx(2 / 3)

    @given(
        st.sets(st.sampled_from("abcdefgh"), max_size=6),
        st.sets(st.sampled_from("abcdefgh"), max_size=6),
        st.sets(st.sampled_from("abcdefgh"), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        """Jaccard distance is a metric — Lemmas 4.2/4.3 depend on this."""
        # Empty-set convention (dist=1 to anything nonempty, sim(∅,∅)=0) keeps
        # the triangle inequality except the degenerate all-empty corner.
        if not a or not b or not c:
            return
        assert jaccard_dist(a, c) <= jaccard_dist(a, b) + jaccard_dist(b, c) + 1e-12


class TestSimTuples:
    def test_sum_over_attrs(self):
        r = ("a b", "x y", "k")
        s = ("a b", "x z", "m")
        assert sim_tuples(r, s) == pytest.approx(1.0 + 1 / 3 + 0.0)

    def test_missing_attr_contributes_zero(self):
        assert sim_tuples(("a", None), ("a", "b")) == pytest.approx(1.0)

    def test_sim_dist_complementary(self):
        r = ("a b", "x y", "k")
        s = ("a c", "x y z", "k")
        assert sim_tuples(r, s) + dist_tuples(r, s) == pytest.approx(3.0)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            sim_tuples(("a",), ("a", "b"))


class TestSparkColumns:
    def test_tokens_col(self, spark):
        df = spark.createDataFrame([("a b  a",), (None,)], ["v"])
        got = df.select(tokens_col(F.col("v")).alias("t")).collect()
        assert sorted(got[0]["t"]) == ["a", "b"]
        assert got[1]["t"] == []

    def test_jaccard_col_matches_python(self, spark):
        rows = [("a b c", "b c d"), ("a", "a"), ("a", "b"), ("", "")]
        df = spark.createDataFrame(rows, ["x", "y"])
        got = df.select(
            jaccard_col(tokens_col(F.col("x")), tokens_col(F.col("y"))).alias("j"),
            jaccard_dist_col(tokens_col(F.col("x")), tokens_col(F.col("y"))).alias("d"),
        ).collect()
        for (x, y), row in zip(rows, got):
            assert row["j"] == pytest.approx(jaccard(tokens(x), tokens(y)))
            assert row["d"] == pytest.approx(jaccard_dist(tokens(x), tokens(y)))
