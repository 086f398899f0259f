"""Exact all-pairs ER of the baselines vs an independent DuckDB reference."""
import numpy as np
import pandas as pd
import pytest

from repro.core.instances import build_imputed_tuple
from repro.oracle import assert_equivalent
from repro.streams.stream_gen import D
from repro.ter.baselines import exact_er_spark, instances_frame
from tests.spark_reference import job_mark

KW = ["topic00"]
PIV = [frozenset({"p"})] * D


def _tup(rid, sid, cands):
    return build_imputed_tuple(rid, sid, cands, topics=KW, pivot_tokens=PIV)


def _pop(seed=3, n=14):
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(25)]
    out = []
    for rid in range(n):
        attrs = [" ".join(rng.choice(vocab, size=4, replace=False)) for _ in range(D)]
        if rid % 3 == 0:
            attrs[0] += " topic00"
        if rid % 4 == 0:
            alt = list(attrs)
            alt[1] = " ".join(rng.choice(vocab, size=3, replace=False))
            cands = [(tuple(attrs), 0.7), (tuple(alt), 0.3)]
        else:
            cands = [(tuple(attrs), 1.0)]
        # plant near-duplicates across streams
        if rid % 2 == 1:
            cands = [
                (tuple(v + " x" if k == 2 else v for k, v in enumerate(a)), p)
                for a, p in prev_cands
            ]
        out.append(_tup(rid, rid % 2, cands))
        prev_cands = cands
    return out


def _tokens_sql(table: str) -> str:
    """(rid, inst, attr, tok) rows of an instance table, tokenized in SQL."""
    return " UNION ALL ".join(
        f"SELECT rid, inst, {k} AS attr, unnest(string_split(v{k}, ' ')) AS tok "
        f"FROM {table}"
        for k in range(D)
    )


def _reference_sql(gamma: float, alpha: float) -> str:
    """Eq. (2) in SQL: per-attribute Jaccard from token joins, summed into
    Eq. (1); p_n * p_m summed over keyword-bearing instance pairs with
    sim > gamma; cross-stream pairs, each new x new pair once."""
    return f"""
    WITH nt AS (SELECT DISTINCT * FROM ({_tokens_sql('n')}) WHERE tok <> ''),
         mt AS (SELECT DISTINCT * FROM ({_tokens_sql('m')}) WHERE tok <> ''),
         ns AS (SELECT rid, inst, attr, count(*) AS sz FROM nt GROUP BY ALL),
         ms AS (SELECT rid, inst, attr, count(*) AS sz FROM mt GROUP BY ALL),
         inter AS (
           SELECT nt.rid AS rid_n, nt.inst AS i_n, mt.rid AS rid_m,
                  mt.inst AS i_m, nt.attr, count(*) AS c
           FROM nt JOIN mt ON nt.attr = mt.attr AND nt.tok = mt.tok
           GROUP BY ALL),
         sim AS (
           SELECT i.rid_n, i.i_n, i.rid_m, i.i_m,
                  sum(i.c / (a.sz + b.sz - i.c)) AS sim
           FROM inter i
           JOIN ns a ON a.rid = i.rid_n AND a.inst = i.i_n AND a.attr = i.attr
           JOIN ms b ON b.rid = i.rid_m AND b.inst = i.i_m AND b.attr = i.attr
           GROUP BY ALL)
    SELECT n.rid AS rid_n, m.rid AS rid_m, sum(n.p * m.p) AS pr
    FROM n JOIN m ON n.stream_id <> m.stream_id
    JOIN sim s ON s.rid_n = n.rid AND s.i_n = n.inst
              AND s.rid_m = m.rid AND s.i_m = m.inst
    WHERE (n.has_kw OR m.has_kw) AND s.sim > {gamma}
      AND NOT (m.rid IN (SELECT rid FROM n) AND m.rid >= n.rid)
    GROUP BY ALL
    HAVING sum(n.p * m.p) > {alpha}
    """


def _inst_table(tuples) -> pd.DataFrame:
    df = instances_frame(tuples)
    return df.assign(inst=np.arange(len(df)))


class TestInstancesFrame:
    def test_flatten(self):
        pop = _pop()
        df = instances_frame(pop)
        assert len(df) == sum(len(t.instances) for t in pop)
        assert set(df.columns) == {"rid", "stream_id", "p", "has_kw"} | {
            f"v{k}" for k in range(D)
        }

    def test_probabilities_preserved(self):
        pop = _pop()
        df = instances_frame(pop)
        sums = df.groupby("rid")["p"].sum()
        assert np.allclose(sums.to_numpy(), 1.0)


class TestExactErSpark:
    @pytest.mark.parametrize("gamma,alpha", [(2.5, 0.5), (1.5, 0.1), (3.5, 0.8)])
    def test_matches_duckdb_reference(self, gamma, alpha):
        pop = _pop()
        new, win = pop[:6], pop[6:]
        got = exact_er_spark(new, win + new, gamma=gamma, alpha=alpha)
        assert got
        assert_equivalent(
            pd.DataFrame(got, columns=["rid_n", "rid_m", "pr"]),
            _reference_sql(gamma, alpha),
            n=_inst_table(new), m=_inst_table(win + new),
        )

    def test_same_batch_dedupe(self):
        pop = _pop()
        new = pop[:6]
        got = exact_er_spark(new, new, gamma=1.0, alpha=0.0)
        assert got
        pairs = [frozenset((n, m)) for n, m, _ in got]
        assert len(pairs) == len(set(pairs))   # each unordered pair once
        for rid_n, rid_m, _ in got:
            assert rid_m < rid_n

    def test_empty_inputs(self):
        pop = _pop()
        assert exact_er_spark([], pop, gamma=1, alpha=0) == []
        assert exact_er_spark(pop, [], gamma=1, alpha=0) == []

    def test_same_stream_never_reported(self):
        attrs = ("a b topic00",) + ("c d",) * (D - 1)
        a, b, c = (_tup(rid, sid, [(attrs, 1.0)]) for rid, sid in ((1, 0), (2, 0), (3, 1)))
        got = exact_er_spark([a], [b, c], gamma=0.0, alpha=0.0)
        assert [(n, m) for n, m, _ in got] == [(1, 3)]

    def test_all_missing_instance_contributes_zero(self):
        attrs = ("a b topic00",) + ("c d",) * (D - 1)
        half = _tup(1, 0, [(attrs, 0.5), ((None,) * D, 0.5)])
        empty = _tup(2, 0, [((None,) * D, 1.0)])
        full = _tup(3, 1, [(attrs, 1.0)])
        got = exact_er_spark([half, empty], [full], gamma=0.0, alpha=0.0)
        assert got == [(1, 3, 0.5)]

    def test_no_keyword_pair_never_reported(self):
        attrs = ("a b",) + ("c d",) * (D - 1)
        a, b = _tup(1, 0, [(attrs, 1.0)]), _tup(2, 1, [(attrs, 1.0)])
        assert not a.instances[0].has_kw
        assert exact_er_spark([a], [b], gamma=0.0, alpha=0.0) == []

    def test_no_spark_jobs(self, spark):
        pop = _pop()
        before = job_mark(spark)
        assert exact_er_spark(pop[:6], pop, gamma=1.5, alpha=0.1)
        assert job_mark(spark) == before
