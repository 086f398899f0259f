"""DR-index ``I_R`` over the data repository R (paper §5.1, Figure 3).

Repository tuples are tokenized and pivot-converted per attribute (Jaccard
distance of ``s[A_x]`` to the main pivot ``piv_1[A_x]``, with its equi-width
bucket of [0, 1]). The imputation probe for an interval constraint
``dist(r[A_x], s[A_x]) in [lo, hi]`` runs on the **token postings**
``repo_tok``: any sample within Jaccard distance ``hi < 1`` of ``r[A_x]``
shares a token with it, so a postings equi-join yields a complete candidate
superset, and the exact constraints remove the false positives (DESIGN.md
§2.3).

The index also precomputes the per-attribute value **domains** and the
``dom_pairs`` table (value pairs within the maximum dependent interval),
which turns the Section-3 candidate-set lookup ``cand(s[A_j])`` into an
equi-join. ``dom_pairs`` is built with an inverted token index self-join;
tokens with document frequency above ``df_cap`` are skipped as join keys
(hot-token capping — pairs sharing only ultra-frequent tokens have low
similarity and fall outside any dependent interval; identity pairs are always
included).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.pivot import AttributePivots
from repro.core.similarity import jaccard_dist_col, tokens_col
from repro.streams.stream_gen import ATTR_COLS, D


def _pivot_lit(tokens: frozenset) -> F.col:
    return F.array(*[F.lit(t) for t in sorted(tokens)])


@dataclass
class DRIndex:
    """Prepared repository: tokenized/pivot-converted Spark frames + domains.

    ``dom_pairs`` is part of the *index* infrastructure (§5.1); the
    straightforward baselines instead scan ``dom_values`` — every domain
    value per attribute — per retrieved sample, as the paper's straightforward
    method does ("it is rather time-consuming to retrieve all samples ...
    to fill the missing attribute").
    """

    repo: DataFrame          # sid, a0..a4, t0..t4, pd0..pd4, pb0..pb4
    repo_tok: DataFrame      # sid, attr, tok (token postings list)
    dom_pairs: DataFrame     # attr, u, v, dist  (dist <= max_dep_hi)
    dom_values: DataFrame    # attr, v, vtok    (unindexed candidate scan)
    domains: dict[int, list[str]]
    n_buckets: int
    n_samples: int

    def unpersist(self) -> None:
        for df in (self.repo, self.repo_tok, self.dom_pairs, self.dom_values):
            try:
                df.unpersist()
            except Exception:
                pass


def build_dr_index(
    spark: SparkSession,
    repo_pdf: pd.DataFrame,
    pivots: dict[int, AttributePivots],
    *,
    n_buckets: int = 10,
    max_dep_hi: float = 0.7,
    df_cap_frac: float = 0.02,
) -> DRIndex:
    """Build the DR-index over the repository (one-time, offline phase)."""
    sdf = spark.createDataFrame(repo_pdf[["sid"] + ATTR_COLS])
    cols = [F.col("sid")] + [F.col(c) for c in ATTR_COLS]
    for k, c in enumerate(ATTR_COLS):
        cols.append(tokens_col(F.col(c)).alias(f"t{k}"))
    sdf = sdf.select(*cols)
    for k in range(D):
        pd_col = jaccard_dist_col(F.col(f"t{k}"), _pivot_lit(pivots[k].main_tokens))
        sdf = sdf.withColumn(f"pd{k}", pd_col).withColumn(
            f"pb{k}",
            F.least(
                F.lit(n_buckets - 1),
                F.floor(F.col(f"pd{k}") * n_buckets).cast("int"),
            ),
        )
    repo = sdf.coalesce(4).persist()
    n_samples = repo.count()

    # Token postings: any sample satisfying a (non-degenerate) interval
    # constraint dist(r[A_x], s[A_x]) <= hi < 1 must share at least one token
    # with the probing tuple on A_x, so a postings join retrieves a complete
    # candidate superset (exact determinant constraints filter the rest).
    tok_parts = [
        repo.select("sid", F.lit(k).alias("attr"), F.explode(F.col(f"t{k}")).alias("tok"))
        for k in range(D)
    ]
    repo_tok = tok_parts[0]
    for p in tok_parts[1:]:
        repo_tok = repo_tok.unionByName(p)
    repo_tok = repo_tok.coalesce(8).persist()
    repo_tok.count()

    # --- attribute domains + dom_pairs (inverted-index similarity self-join) ---
    vals = None
    for k, c in enumerate(ATTR_COLS):
        v = repo.select(F.lit(k).alias("attr"), F.col(c).alias("u")).where(
            F.col(c).isNotNull()
        ).distinct()
        vals = v if vals is None else vals.unionByName(v)
    vals = vals.persist()
    n_dom = vals.count()
    df_cap = max(20, int(df_cap_frac * n_dom))

    tok = vals.select("attr", "u", F.explode(tokens_col(F.col("u"))).alias("tok"))
    tok_df = tok.groupBy("attr", "tok").count().where(F.col("count") <= df_cap)
    tok_rare = tok.join(F.broadcast(tok_df.select("attr", "tok")), ["attr", "tok"])
    cand = (
        tok_rare.alias("l")
        .join(tok_rare.alias("r"), ["attr", "tok"])
        .select("attr", F.col("l.u").alias("u"), F.col("r.u").alias("v"))
        .distinct()
    )
    pairs = cand.withColumn(
        "dist",
        jaccard_dist_col(tokens_col(F.col("u")), tokens_col(F.col("v"))),
    ).where(F.col("dist") <= max_dep_hi)
    ident = vals.select("attr", F.col("u"), F.col("u").alias("v"), F.lit(0.0).alias("dist"))
    dom_pairs = pairs.unionByName(ident).distinct().coalesce(8).persist()
    dom_pairs.count()

    dom_values = (
        vals.select("attr", F.col("u").alias("v"), tokens_col(F.col("u")).alias("vtok"))
        .coalesce(8)
        .persist()
    )
    dom_values.count()
    domains = {
        k: [r["u"] for r in vals.where(F.col("attr") == k).collect()]
        for k in range(D)
    }
    vals.unpersist()
    return DRIndex(
        repo=repo, repo_tok=repo_tok, dom_pairs=dom_pairs,
        dom_values=dom_values, domains=domains,
        n_buckets=n_buckets, n_samples=n_samples,
    )
