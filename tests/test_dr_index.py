"""DR-index tests: pivot distances, bucketing, and dom_pairs vs brute force."""
import itertools

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.pivot import select_all_pivots
from repro.core.similarity import jaccard_dist, tokens
from repro.index.dr_index import build_dr_index
from repro.streams.stream_gen import ATTR_COLS, D


@pytest.fixture(scope="module")
def tiny_repo():
    rows = [
        ["alpha beta", "x y", "k l", "m n", "p q r"],
        ["alpha beta gamma", "x z", "k l", "m o", "p q"],
        ["delta eps", "w v", "a b", "c d", "e f g"],
        ["delta eps zeta", "w u", "a b", "c e", "e f"],
    ]
    return pd.DataFrame(
        {"sid": range(len(rows)), **{c: [r[k] for r in rows] for k, c in enumerate(ATTR_COLS)}}
    )


@pytest.fixture(scope="module")
def tiny_index(spark, tiny_repo):
    pivots = select_all_pivots(
        {k: tiny_repo[c].tolist() for k, c in enumerate(ATTR_COLS)}, emin=0.0
    )
    dr = build_dr_index(spark, tiny_repo, pivots, n_buckets=5, max_dep_hi=0.8,
                        df_cap_frac=1.0)
    yield dr, pivots
    dr.unpersist()


class TestBuild:
    def test_counts(self, tiny_index, tiny_repo):
        dr, _ = tiny_index
        assert dr.n_samples == len(tiny_repo)
        assert dr.repo.count() == len(tiny_repo)

    def test_pivot_distances_match_python(self, tiny_index, tiny_repo):
        dr, pivots = tiny_index
        rows = {r["sid"]: r for r in dr.repo.collect()}
        for t in tiny_repo.itertuples(index=False):
            for k, c in enumerate(ATTR_COLS):
                expect = jaccard_dist(tokens(getattr(t, c)), pivots[k].main_tokens)
                assert rows[t.sid][f"pd{k}"] == pytest.approx(expect)

    def test_buckets_consistent(self, tiny_index):
        dr, _ = tiny_index
        for r in dr.repo.collect():
            for k in range(D):
                b = min(dr.n_buckets - 1, int(r[f"pd{k}"] * dr.n_buckets))
                assert r[f"pb{k}"] == b

    def test_domains(self, tiny_index, tiny_repo):
        dr, _ = tiny_index
        for k, c in enumerate(ATTR_COLS):
            assert sorted(dr.domains[k]) == sorted(tiny_repo[c].unique())


class TestDomPairs:
    def test_matches_bruteforce(self, tiny_index, tiny_repo):
        """dom_pairs (with df_cap disabled) == exhaustive pairs within cutoff."""
        dr, _ = tiny_index
        got = {
            (r["attr"], r["u"], r["v"]): r["dist"] for r in dr.dom_pairs.collect()
        }
        for k, c in enumerate(ATTR_COLS):
            dom = tiny_repo[c].unique().tolist()
            for u, v in itertools.product(dom, dom):
                d = jaccard_dist(tokens(u), tokens(v))
                if d <= 0.8:
                    assert (k, u, v) in got
                    assert got[(k, u, v)] == pytest.approx(d)
                else:
                    assert (k, u, v) not in got

    def test_identity_pairs_present(self, tiny_index, tiny_repo):
        dr, _ = tiny_index
        ident = dr.dom_pairs.where(
            (F.col("u") == F.col("v")) & (F.col("dist") == 0.0)
        ).count()
        n_dom = sum(len(tiny_repo[c].unique()) for c in ATTR_COLS)
        assert ident == n_dom

    def test_hot_token_capping_keeps_identity(self, spark, tiny_repo):
        """Even with an aggressive df cap, identity pairs survive."""
        pivots = select_all_pivots(
            {k: tiny_repo[c].tolist() for k, c in enumerate(ATTR_COLS)}, emin=0.0
        )
        dr = build_dr_index(
            spark, tiny_repo, pivots, n_buckets=5, max_dep_hi=0.8, df_cap_frac=0.0
        )
        try:
            ident = dr.dom_pairs.where(F.col("u") == F.col("v")).count()
            n_dom = sum(len(tiny_repo[c].unique()) for c in ATTR_COLS)
            assert ident == n_dom
        finally:
            dr.unpersist()
