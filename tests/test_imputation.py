"""Imputation kernel tests (Section 3, on the driver).

Key invariant: the DR-index prefix probe must return exactly the same
samples, in the same order, as the straightforward scan of all of R (the
index introduces no false negatives) — this is the correctness contract of
the index probe.
"""
import random

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdd_detect import _EPS_GRID
from repro.core.imputation import (
    candidate_frequencies,
    impute_batch,
    impute_batch_con,
    retrieve_samples,
)
from repro.core.similarity import jaccard_dist, tokens
from repro.index.cdd_index import CDDIndex, RuleRow
from repro.index.dr_index import build_dr_index
from repro.oracle import assert_equivalent
from repro.streams.stream_gen import ATTR_COLS, D
from repro.ter.algorithm import prepare
from tests.spark_reference import job_mark


@pytest.fixture(scope="module")
def batch(small_ds):
    """A batch with both complete and incomplete tuples."""
    s = small_ds.stream
    inc = s[s[ATTR_COLS].isna().any(axis=1)].head(8)
    comp = s[~s[ATTR_COLS].isna().any(axis=1)].head(8)
    return pd.concat([inc, comp], ignore_index=True)


@pytest.fixture(scope="module")
def need(batch):
    return [
        (int(row.rid), k)
        for row in batch.itertuples(index=False)
        for k, c in enumerate(ATTR_COLS)
        if pd.isna(getattr(row, c))
    ]


@pytest.fixture(scope="module")
def samples(batch, need, prepared_ter):
    p = prepared_ter
    return retrieve_samples(batch, need, p.dr, p.cddx, indexed=True)


def _dom_pairs_frame(dr) -> pd.DataFrame:
    return pd.DataFrame(
        [(k, u, v, d) for (k, u), lst in dr.dom_pairs.items() for v, d in lst],
        columns=["attr", "u", "v", "dist"],
    )


def _frame(rows: list[list[str | None]], id_col: str) -> pd.DataFrame:
    """Rows of D attribute values as a repository (``sid``) or batch
    (``rid``) frame."""
    return pd.DataFrame({id_col: range(len(rows)),
                         **{c: [r[k] for r in rows] for k, c in enumerate(ATTR_COLS)}})


def _rule(hi1: float, *, lo1: float = 0.0, x2: int | None = None,
          hi2: float = 0.5) -> CDDIndex:
    """One rule ``A_1 (, A_x2) -> A_0`` in a CDD-index of its own."""
    return CDDIndex({0: [RuleRow(0, 0, 1, lo1, hi1, x2,
                                 None if x2 is None else 0.0,
                                 None if x2 is None else hi2, 0.0, 0.5)]})


class TestRetrieveSamples:
    def test_indexed_equals_unindexed(self, batch, need, prepared_ter, samples):
        """Prefix-probe samples == samples from a scan of all of R, exactly,
        in the same order."""
        p = prepared_ter
        full = retrieve_samples(batch, need, p.dr, p.cddx, indexed=False)
        assert samples
        assert samples == full

    @pytest.mark.parametrize("method", ["dd_er", "er_er"])
    def test_indexed_equals_unindexed_other_rule_sets(
        self, batch, need, small_ds, small_cfg, prepared_ter, method
    ):
        """The same for the DD and editing-rule sets."""
        p = prepared_ter
        cddx = prepare(None, small_ds, small_cfg, method, pivots=p.pivots, dr=p.dr).cddx
        got = retrieve_samples(batch, need, p.dr, cddx, indexed=True)
        assert got
        assert got == retrieve_samples(batch, need, p.dr, cddx, indexed=False)

    def test_prefix_length_is_float_safe(self):
        """``hi1 = 0.7`` and ``|x| = 10`` need an overlap of 3, so the probe
        reads the 8 rarest tokens. ``10 * (1 - 0.7)`` is 3.0000000000000004
        in floats; rounding that up would read only 7 and miss sample 0,
        which shares with ``x`` just its 3 least rare tokens."""
        dr = build_dr_index(None, _frame([
            ["s", "a b c", "s", "s", "s"],        # J = 3/10: distance 0.7
            ["s", "a b c k", "s", "s", "s"],      # J = 3/11: too far
        ], "sid"), {})
        x = "a b c d e f g h i j"                 # d..j are absent from R
        rows = _frame([[None, x, "s", "s", "s"]], "rid")
        cddx = _rule(0.7)
        got = retrieve_samples(rows, [(0, 0)], dr, cddx, indexed=True)
        assert [s.sid for s in got] == [0]
        assert got == retrieve_samples(rows, [(0, 0)], dr, cddx, indexed=False)

    def test_size_filter_is_float_safe(self):
        """At ``hi1 = 0.7`` a sample of 10 tokens holding all 3 of ``x`` is
        at distance exactly 0.7, and ``|x| / (1 - 0.7)`` is
        9.999999999999998 in floats; rounding that down would drop sample 0
        by its size. Sample 1, of 11 tokens, is too far."""
        dr = build_dr_index(None, _frame([
            ["s", "a b c d e f g h i j", "s", "s", "s"],
            ["s", "a b c d e f g h i j k", "s", "s", "s"],
        ], "sid"), {})
        rows = _frame([[None, "a b c", "s", "s", "s"]], "rid")
        cddx = _rule(0.7)
        got = retrieve_samples(rows, [(0, 0)], dr, cddx, indexed=True)
        assert [s.sid for s in got] == [0]
        assert got == retrieve_samples(rows, [(0, 0)], dr, cddx, indexed=False)

    def test_rule_reaching_distance_one_scans_every_row(self):
        """At ``hi1 >= 1`` a sample sharing no token with ``r[x1]``
        qualifies, so no postings probe can find it: every row is read."""
        dr = build_dr_index(None, _frame([
            ["u", "a b", "s", "s", "s"],
            ["v", "c", "s", "s", "s"],
        ], "sid"), {})
        rows = _frame([[None, "zz", "s", "s", "s"]], "rid")
        for hi1 in (1.0, 1.5):
            cddx = _rule(hi1)
            got = retrieve_samples(rows, [(0, 0)], dr, cddx, indexed=True)
            assert [s.sid for s in got] == [0, 1]
            assert got == retrieve_samples(rows, [(0, 0)], dr, cddx, indexed=False)

    @settings(max_examples=150, deadline=None)
    @given(
        repo=st.lists(st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=4),
                               min_size=D, max_size=D), min_size=1, max_size=10),
        probes=st.lists(st.lists(st.frozensets(st.sampled_from("abcdefxy"), max_size=5),
                                 min_size=D, max_size=D), min_size=1, max_size=3),
        hi1=st.sampled_from([0.0, *map(float, _EPS_GRID)]),
        band=st.booleans(),
        x2=st.sampled_from([None, 2]),
        hi2=st.sampled_from([0.0, 0.5, 0.8]),
    )
    def test_probe_equals_scan_property(self, repo, probes, hi1, band, x2, hi2):
        """Random token sets, empty ones and tokens absent from R (x, y)
        included, at every detected ``hi1``, with band rules (``lo1 > 0``)
        and with and without a second determinant: the indexed list is the
        scan list, order included."""
        def value(ts):
            return " ".join(sorted(ts))

        dr = build_dr_index(None, _frame([[value(t) for t in r] for r in repo], "sid"), {})
        rows = _frame([[None, *map(value, r[1:])] for r in probes], "rid")
        need = [(rid, 0) for rid in range(len(probes))]
        cddx = _rule(hi1, lo1=hi1 / 2 if band else 0.0, x2=x2, hi2=hi2)
        got = retrieve_samples(rows, need, dr, cddx, indexed=True)
        assert got == retrieve_samples(rows, need, dr, cddx, indexed=False)

    def test_samples_satisfy_constraints(self, batch, prepared_ter, samples):
        """Every retrieved (tuple, rule, sample) satisfies the rule's
        determinant constraints and carries the sample's dependent value."""
        p = prepared_ter
        rules = {r.rule_id: r for rs in p.cddx.by_dep.values() for r in rs}
        repo = dict(zip(p.dr.sids, p.dr.values))
        bt = batch.set_index("rid")
        for row in samples:
            rule = rules[row.rule_id]
            s = repo[row.sid]
            r = bt.loc[row.rid]
            assert rule.dep == row.j and s[row.j] == row.s_dep_val
            for x, lo, hi in [(rule.x1, rule.lo1, rule.hi1), (rule.x2, rule.lo2, rule.hi2)]:
                if x is None:
                    continue
                d = jaccard_dist(tokens(r[ATTR_COLS[x]]), tokens(s[x]))
                assert lo - 1e-9 <= d <= hi + 1e-9

    def test_empty_string_determinant_skipped(self, batch, prepared_ter):
        """An empty-string determinant has no tokens: its rules are skipped."""
        p = prepared_ter
        row = batch.iloc[[0]].copy()
        j = next(k for k, c in enumerate(ATTR_COLS) if pd.isna(row.iloc[0][c]))
        empty = {k for k, c in enumerate(ATTR_COLS) if k != j}
        for k in empty:
            row[ATTR_COLS[k]] = ""
        got = retrieve_samples(row, [(int(row.iloc[0]["rid"]), j)], p.dr, p.cddx,
                               indexed=True)
        assert got == []


class TestCandidateFrequencies:
    def test_oracle_frequency_aggregation(self, prepared_ter, samples):
        """The vote-split aggregation is oracle-checked against DuckDB, which
        joins the samples with ``dom_pairs`` itself."""
        freqs = candidate_frequencies(samples, prepared_ter.dr).rename(
            columns={"count": "f"})
        assert len(freqs)
        assert_equivalent(
            freqs,
            """
            SELECT rid, j, v, SUM(w) AS f FROM (
              SELECT s.rid, s.j, p.v,
                     1.0 / COUNT(*) OVER (PARTITION BY s.rid, s.j, s.rule_id, s.sid) AS w
              FROM samples s JOIN dom_pairs p
                ON p.attr = s.j AND p.u = s.s_dep_val
              WHERE p.dist BETWEEN s.dep_lo AND s.dep_hi
            ) GROUP BY rid, j, v
            """,
            samples=pd.DataFrame(samples),
            dom_pairs=_dom_pairs_frame(prepared_ter.dr),
        )

    def test_candidates_within_dep_interval(self, prepared_ter, samples):
        dr = prepared_ter.dr
        n = 0
        for s in samples:
            for v, d in dr.dom_pairs.get((s.j, s.s_dep_val), ()):
                if s.dep_lo <= d <= s.dep_hi:
                    assert d == jaccard_dist(tokens(s.s_dep_val), tokens(v))
                    n += 1
        assert n

    def test_sample_order_irrelevant(self, prepared_ter, samples):
        """Shuffling the samples gives an identical frequency table."""
        dr = prepared_ter.dr
        shuffled = list(samples)
        random.Random(3).shuffle(shuffled)
        key = ["rid", "j", "v"]
        for indexed in (True, False):
            a = candidate_frequencies(samples, dr, use_dom_index=indexed)
            b = candidate_frequencies(shuffled, dr, use_dom_index=indexed)
            pd.testing.assert_frame_equal(
                a.sort_values(key).reset_index(drop=True),
                b.sort_values(key).reset_index(drop=True),
                check_exact=True,
            )


class TestImputeBatch:
    def test_instances_probabilities(self, batch, prepared_ter, small_cfg):
        p = prepared_ter
        tuples, stats = impute_batch(
            batch, p.dr, p.cddx, p.pivots,
            keywords=p.keywords, indexed=True,
            max_instances=small_cfg.max_instances,
        )
        assert len(tuples) == len(batch)
        assert stats.n_incomplete == 8
        assert stats.n_samples > 0
        for t in tuples:
            assert 1 <= len(t.instances) <= small_cfg.max_instances
            assert sum(i.p for i in t.instances) == pytest.approx(1.0)

    def test_complete_tuples_single_instance(self, batch, prepared_ter):
        p = prepared_ter
        tuples, _ = impute_batch(
            batch, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=True
        )
        comp_rids = set(
            batch[~batch[ATTR_COLS].isna().any(axis=1)]["rid"].astype(int)
        )
        for t in tuples:
            if t.rid in comp_rids:
                assert len(t.instances) == 1
                assert t.instances[0].p == 1.0

    def test_imputation_recovers_truth_for_covered_entities(
        self, small_ds, prepared_ter
    ):
        """For incomplete tuples whose entity is covered by R, some imputed
        instance should be close to the true (pre-corruption) value.
        Uncovered entities have no basis for imputation (the eta trend of
        Fig. 14: more coverage -> better accuracy)."""
        from repro.core.similarity import jaccard

        p = prepared_ter
        covered = set(small_ds.repository["entity_id"])
        s = small_ds.stream
        inc = s[s[ATTR_COLS].isna().any(axis=1) & s["entity_id"].isin(covered)].head(40)
        tuples, _ = impute_batch(
            inc, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=True
        )
        comp = small_ds.complete.set_index("rid")
        hits = tried = 0
        for t in tuples:
            row = inc[inc["rid"] == t.rid].iloc[0]
            missing = [k for k, c in enumerate(ATTR_COLS) if pd.isna(row[c])]
            tried += 1
            true_val = comp.loc[t.rid]
            best = max(
                jaccard(tokens(inst.attrs[k]), tokens(true_val[ATTR_COLS[k]]))
                for inst in t.instances
                for k in missing
            )
            hits += best >= 0.5
        assert tried >= 5
        assert hits / tried > 0.5

    def test_no_missing_short_circuit(self, batch, prepared_ter):
        p = prepared_ter
        comp = batch[~batch[ATTR_COLS].isna().any(axis=1)]
        tuples, stats = impute_batch(
            comp, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=True
        )
        assert stats.n_incomplete == 0
        assert stats.t_select == 0.0
        assert len(tuples) == len(comp)

    def test_all_missing_tuple_one_none_instance(self, batch, prepared_ter):
        """No determinant is present, so no rule applies: one instance with
        every attribute ``None``."""
        p = prepared_ter
        row = batch.iloc[[0]].copy()
        for c in ATTR_COLS:
            row[c] = None
        for indexed in (True, False):
            (t,), stats = impute_batch(
                row, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=indexed
            )
            assert stats.n_incomplete == 1 and stats.n_samples == 0
            assert len(t.instances) == 1
            assert t.instances[0].attrs == (None,) * len(ATTR_COLS)
            assert t.instances[0].p == 1.0

    def test_missing_attribute_without_rule_stays_none(self, batch, prepared_ter):
        p = prepared_ter
        inc = batch[batch[ATTR_COLS].isna().any(axis=1)]
        no_rules = CDDIndex({})
        tuples, stats = impute_batch(
            inc, p.dr, no_rules, p.pivots, keywords=p.keywords, indexed=True
        )
        assert stats.n_samples == 0
        for t, row in zip(tuples, inc.itertuples(index=False)):
            (inst,) = t.instances
            for k, c in enumerate(ATTR_COLS):
                expect = None if pd.isna(getattr(row, c)) else getattr(row, c)
                assert inst.attrs[k] == expect

    @pytest.mark.parametrize("indexed", [True, False])
    def test_no_spark_jobs(self, spark, batch, prepared_ter, indexed):
        p = prepared_ter
        before = job_mark(spark)
        _, stats = impute_batch(
            batch, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=indexed
        )
        assert stats.n_samples > 0
        assert job_mark(spark) == before


class TestConImputer:
    def test_fills_from_window(self, batch, prepared_ter, small_ds):
        p = prepared_ter
        window_values = small_ds.complete.head(60)
        tuples, stats = impute_batch_con(
            batch, window_values, p.pivots, keywords=p.keywords
        )
        assert len(tuples) == len(batch)
        assert stats.n_incomplete == 8
        for t in tuples:
            assert len(t.instances) == 1
            # con fills every missing attribute (window has complete tuples)
            assert all(a is not None for a in t.instances[0].attrs)

    def test_empty_window_leaves_missing(self, batch, prepared_ter, small_ds):
        p = prepared_ter
        tuples, _ = impute_batch_con(
            batch, small_ds.complete.iloc[0:0], p.pivots, keywords=p.keywords
        )
        inc_rids = set(batch[batch[ATTR_COLS].isna().any(axis=1)]["rid"].astype(int))
        for t in tuples:
            if t.rid in inc_rids:
                assert any(a is None for a in t.instances[0].attrs)

    def test_mode_tie_goes_to_smaller_value(self, batch, prepared_ter):
        """Each attribute's fill is the DuckDB window mode: count descending,
        then value ascending (byte order, which is code-point order)."""
        p = prepared_ter
        window = pd.DataFrame({
            ATTR_COLS[0]: ["b x", "a y", "b x", "a y", "c"],      # tie: "a y"
            ATTR_COLS[1]: ["zeta", "\u00e9clair", "zeta", "\u00e9clair", None],
            ATTR_COLS[2]: ["a", "B", "a", "B", "a"],              # "a" by count
            ATTR_COLS[3]: ["q", "p", "r", "s", "t"],              # all tie: "p"
            ATTR_COLS[4]: ["B", "a", "B", "a", "a b"],            # tie: "B"
        })
        row = batch.head(1).copy()
        row[ATTR_COLS] = None
        (t,), _ = impute_batch_con(row, window, p.pivots, keywords=p.keywords)
        (inst,) = t.instances
        got = pd.DataFrame({"attr": range(len(ATTR_COLS)), "v": list(inst.attrs)})
        assert list(inst.attrs) == ["a y", "zeta", "a", "p", "B"]
        long = pd.DataFrame(
            [(k, v) for k, c in enumerate(ATTR_COLS) for v in window[c].dropna()],
            columns=["attr", "v"])
        assert_equivalent(got, """
            SELECT attr, v FROM (
              SELECT attr, v, row_number() OVER (
                PARTITION BY attr ORDER BY COUNT(*) DESC, v ASC) AS rk
              FROM long GROUP BY attr, v)
            WHERE rk = 1""", long=long)
