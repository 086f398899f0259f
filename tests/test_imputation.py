"""Imputation pipeline tests (Section 3 as Spark joins).

Key invariant: the DR-index token-postings probe must return exactly the same
candidate frequencies as the straightforward cross join (the index introduces
no false negatives) — this is the correctness contract of the index join.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.imputation import (
    candidate_frequencies,
    impute_batch,
    impute_batch_con,
    retrieve_samples,
)
from repro.oracle import assert_equivalent
from repro.streams.stream_gen import ATTR_COLS


@pytest.fixture(scope="module")
def batch(small_ds):
    """A batch with both complete and incomplete tuples."""
    s = small_ds.stream
    inc = s[s[ATTR_COLS].isna().any(axis=1)].head(8)
    comp = s[~s[ATTR_COLS].isna().any(axis=1)].head(8)
    return pd.concat([inc, comp], ignore_index=True)


@pytest.fixture(scope="module")
def need(batch):
    rows = []
    for row in batch.itertuples(index=False):
        for k, c in enumerate(ATTR_COLS):
            if pd.isna(getattr(row, c)):
                rows.append((int(row.rid), k))
    return pd.DataFrame(rows, columns=["rid", "j"])


class TestRetrieveSamples:
    def test_indexed_equals_unindexed(self, spark, batch, need, prepared_ter):
        """Postings-probe candidates == cross-join candidates, exactly."""
        p = prepared_ter
        kw = dict(dr=p.dr, cddx=p.cddx)
        a = retrieve_samples(spark, batch, need, indexed=True, **kw)
        b = retrieve_samples(spark, batch, need, indexed=False, **kw)
        key = ["rid", "j", "rule_id", "sid"]
        pa = a.select(*key).distinct().toPandas().sort_values(key).reset_index(drop=True)
        pb = b.select(*key).distinct().toPandas().sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(pa, pb)

    def test_samples_satisfy_constraints(self, spark, batch, need, prepared_ter):
        """Every retrieved (tuple, rule, sample) satisfies the rule's
        determinant constraints (checked against driver-side rule objects)."""
        from repro.core.similarity import jaccard_dist, tokens

        p = prepared_ter
        got = retrieve_samples(
            spark, batch, need, p.dr, p.cddx, indexed=True
        ).toPandas()
        rules_flat = p.cddx.rules_df.toPandas().set_index("rule_id")
        repo = p.dr.repo.select("sid", *ATTR_COLS).toPandas().set_index("sid")
        bt = batch.set_index("rid")
        for row in got.head(200).itertuples(index=False):
            rule = rules_flat.loc[row.rule_id]
            s = repo.loc[row.sid]
            r = bt.loc[row.rid]
            for x, lo, hi in [(rule.x1, rule.lo1, rule.hi1), (rule.x2, rule.lo2, rule.hi2)]:
                if pd.isna(x):
                    continue
                x = int(x)
                d = jaccard_dist(tokens(r[ATTR_COLS[x]]), tokens(s[ATTR_COLS[x]]))
                assert lo - 1e-9 <= d <= hi + 1e-9


class TestCandidateFrequencies:
    def test_oracle_frequency_aggregation(self, spark, batch, need, prepared_ter):
        """The groupBy-count aggregation is oracle-checked against DuckDB
        over the materialized (rid, j, v) candidate rows."""
        p = prepared_ter
        samples = retrieve_samples(
            spark, batch, need, p.dr, p.cddx, indexed=True
        )
        dp = p.dr.dom_pairs
        cand_rows = samples.join(
            dp, (dp["attr"] == samples["j"]) & (dp["u"] == samples["s_dep_val"])
        ).where(
            (F.col("dist") >= F.col("dep_lo")) & (F.col("dist") <= F.col("dep_hi"))
        ).select("rid", "j", "rule_id", "sid", "v")
        freqs = candidate_frequencies(samples, p.dr).withColumnRenamed("count", "f")
        assert_equivalent(
            freqs,
            """
            SELECT rid, j, v, SUM(w) AS f FROM (
              SELECT rid, j, v,
                     1.0 / COUNT(*) OVER (PARTITION BY rid, j, rule_id, sid) AS w
              FROM cand
            ) GROUP BY rid, j, v
            """,
            cand=cand_rows,
        )

    def test_candidates_within_dep_interval(self, spark, batch, need, prepared_ter):
        from repro.core.similarity import jaccard_dist, tokens

        p = prepared_ter
        samples = retrieve_samples(
            spark, batch, need, p.dr, p.cddx, indexed=True
        )
        dp = p.dr.dom_pairs
        rows = samples.join(
            dp, (dp["attr"] == samples["j"]) & (dp["u"] == samples["s_dep_val"])
        ).where(
            (F.col("dist") >= F.col("dep_lo")) & (F.col("dist") <= F.col("dep_hi"))
        ).select("s_dep_val", "v", "dep_lo", "dep_hi").limit(100).collect()
        assert rows
        for r in rows:
            d = jaccard_dist(tokens(r["s_dep_val"]), tokens(r["v"]))
            assert r["dep_lo"] - 1e-9 <= d <= r["dep_hi"] + 1e-9


class TestImputeBatch:
    def test_instances_probabilities(self, spark, batch, prepared_ter, small_cfg):
        p = prepared_ter
        tuples, stats = impute_batch(
            spark, batch, p.dr, p.cddx, p.pivots,
            keywords=p.keywords, indexed=True,
            max_instances=small_cfg.max_instances,
        )
        assert len(tuples) == len(batch)
        assert stats.n_incomplete == 8
        assert stats.n_samples > 0
        for t in tuples:
            assert 1 <= len(t.instances) <= small_cfg.max_instances
            assert sum(i.p for i in t.instances) == pytest.approx(1.0)

    def test_complete_tuples_single_instance(self, spark, batch, prepared_ter):
        p = prepared_ter
        tuples, _ = impute_batch(
            spark, batch, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=True
        )
        comp_rids = set(
            batch[~batch[ATTR_COLS].isna().any(axis=1)]["rid"].astype(int)
        )
        for t in tuples:
            if t.rid in comp_rids:
                assert len(t.instances) == 1
                assert t.instances[0].p == 1.0

    def test_imputation_recovers_truth_for_covered_entities(
        self, spark, small_ds, prepared_ter
    ):
        """For incomplete tuples whose entity is covered by R, some imputed
        instance should be close to the true (pre-corruption) value.
        Uncovered entities have no basis for imputation (the eta trend of
        Fig. 14: more coverage -> better accuracy)."""
        from repro.core.similarity import jaccard, tokens

        p = prepared_ter
        covered = set(small_ds.repository["entity_id"])
        s = small_ds.stream
        inc = s[s[ATTR_COLS].isna().any(axis=1) & s["entity_id"].isin(covered)].head(40)
        tuples, _ = impute_batch(
            spark, inc, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=True
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

    def test_no_missing_short_circuit(self, spark, batch, prepared_ter):
        p = prepared_ter
        comp = batch[~batch[ATTR_COLS].isna().any(axis=1)]
        tuples, stats = impute_batch(
            spark, comp, p.dr, p.cddx, p.pivots, keywords=p.keywords, indexed=True
        )
        assert stats.n_incomplete == 0
        assert stats.t_select == 0.0
        assert len(tuples) == len(comp)


class TestConImputer:
    def test_fills_from_window(self, spark, batch, prepared_ter, small_ds):
        p = prepared_ter
        window_values = small_ds.complete.head(60)
        tuples, stats = impute_batch_con(
            spark, batch, window_values, p.pivots, keywords=p.keywords
        )
        assert len(tuples) == len(batch)
        assert stats.n_incomplete == 8
        for t in tuples:
            assert len(t.instances) == 1
            # con fills every missing attribute (window has complete tuples)
            assert all(a is not None for a in t.instances[0].attrs)

    def test_empty_window_leaves_missing(self, spark, batch, prepared_ter, small_ds):
        p = prepared_ter
        tuples, _ = impute_batch_con(
            spark, batch, small_ds.complete.iloc[0:0], p.pivots, keywords=p.keywords
        )
        inc_rids = set(batch[batch[ATTR_COLS].isna().any(axis=1)]["rid"].astype(int))
        for t in tuples:
            if t.rid in inc_rids:
                assert any(a is None for a in t.instances[0].attrs)
