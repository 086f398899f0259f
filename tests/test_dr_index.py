"""DR-index tests: tokenized repository, postings, domains, and dom_pairs
vs brute force."""
import itertools

import pandas as pd
import pytest

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


def _pivots(repo):
    return select_all_pivots(
        {k: repo[c].tolist() for k, c in enumerate(ATTR_COLS)}, emin=0.0
    )


@pytest.fixture(scope="module")
def tiny_index(tiny_repo):
    return build_dr_index(None, tiny_repo, _pivots(tiny_repo), n_buckets=5,
                          max_dep_hi=0.8, df_cap_frac=1.0)


class TestBuild:
    def test_counts(self, tiny_index, tiny_repo):
        dr = tiny_index
        assert dr.n_samples == len(tiny_repo)
        assert dr.sids == tiny_repo["sid"].tolist()

    def test_postings_complete(self, tiny_index, tiny_repo):
        """Every token of every repository value posts its row, and nothing
        else is posted."""
        dr = tiny_index
        expect = {
            (k, t, i)
            for i, row in enumerate(tiny_repo[ATTR_COLS].itertuples(index=False))
            for k in range(D)
            for t in tokens(row[k])
        }
        got = {(k, t, i) for (k, t), rows in dr.postings.items() for i in rows}
        assert got == expect
        for i, row in enumerate(tiny_repo[ATTR_COLS].itertuples(index=False)):
            assert dr.toks[i] == tuple(tokens(v) for v in row)

    def test_domains(self, tiny_index, tiny_repo):
        dr = tiny_index
        for k, c in enumerate(ATTR_COLS):
            assert sorted(dr.domains[k]) == sorted(tiny_repo[c].unique())


class TestDomPairs:
    def test_matches_bruteforce(self, tiny_index, tiny_repo):
        """dom_pairs (with df_cap disabled) == exhaustive pairs within cutoff."""
        got = {
            (k, u, v): d
            for (k, u), lst in tiny_index.dom_pairs.items()
            for v, d in lst
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
        ident = sum(
            (u, 0.0) in lst for (_, u), lst in tiny_index.dom_pairs.items()
        )
        n_dom = sum(len(tiny_repo[c].unique()) for c in ATTR_COLS)
        assert ident == n_dom

    def test_hot_token_capping_keeps_identity(self, tiny_repo):
        """Even with an aggressive df cap, identity pairs survive."""
        dr = build_dr_index(
            None, tiny_repo, _pivots(tiny_repo), n_buckets=5, max_dep_hi=0.8,
            df_cap_frac=0.0,
        )
        ident = sum(any(v == u for v, _ in lst) for (_, u), lst in dr.dom_pairs.items())
        n_dom = sum(len(tiny_repo[c].unique()) for c in ATTR_COLS)
        assert ident == n_dom

    def test_hot_token_not_a_join_key(self):
        """A token held by more than ``df_cap`` (at least 20) values of its
        attribute joins no pair; a rarer shared token still does."""
        vals = [f"hot w{i}" for i in range(25)] + ["hot w0 rare", "rare x"]
        repo = pd.DataFrame({"sid": range(len(vals)),
                             **{c: vals for c in ATTR_COLS}})
        dr = build_dr_index(None, repo, _pivots(repo), max_dep_hi=0.8)
        near = dict(dr.dom_pairs[(0, "hot w1")])
        assert set(near) == {"hot w1"}                 # "hot w2" shares only "hot"
        near = dict(dr.dom_pairs[(0, "hot w0 rare")])
        assert near["rare x"] == pytest.approx(0.75)   # shares "rare"
        assert near["hot w0"] == pytest.approx(1 / 3)  # shares the rare "w0"
