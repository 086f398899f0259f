"""Online imputation of incomplete tuples (paper Section 3) as Spark joins.

Per micro-batch, incomplete tuples are joined with:
1. the **CDD-index** rule table (broadcast) on the missing attribute — the
   paper's "obtain suitable CDD rules";
2. the **DR-index** token postings of the primary determinant (a sample
   within Jaccard distance ``hi < 1`` shares a token with the probe value)
   to retrieve candidate samples ``s in R`` — exact
   determinant constraints are then checked with Catalyst array expressions
   (false positives removed; the unindexed baselines use a cross join here);
3. the ``dom_pairs`` table on the sample's dependent value — the Section-3
   candidate set ``cand(s[A_j])`` of domain values within ``A_j.I``.

Frequencies are aggregated per (tuple, attribute, value) and normalized per
Eq. (4); instances of multi-attribute-missing tuples are the per-attribute
candidate cross product (capped + renormalized, DESIGN.md).

``impute_batch`` covers the cdd/dd/er flavors (they differ only in the rule
set and whether the DR-index is used); ``impute_batch_con`` implements the
constraint-based baseline [43], which imputes from the most similar complete
tuple in the current *window* (no repository access).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.instances import ImputedTuple, build_imputed_tuple, cap_instances
from repro.core.pivot import AttributePivots
from repro.core.similarity import jaccard_col, tokens_col
from repro.index.cdd_index import CDDIndex
from repro.index.dr_index import DRIndex
from repro.streams.stream_gen import ATTR_COLS, D


@dataclass
class ImputeStats:
    """Per-batch imputation accounting (break-up cost, Fig. 6)."""

    t_select: float = 0.0     # CDD selection + sample retrieval (Spark action)
    t_impute: float = 0.0     # candidate-value aggregation (Spark action)
    n_samples: int = 0        # matched (tuple, rule, sample) triples
    n_incomplete: int = 0


def _pick(attr_col: Column, cols: list[Column]) -> Column:
    """CASE chain selecting ``cols[attr]`` for a runtime attribute index."""
    expr = F.lit(None)
    for k in reversed(range(D)):
        expr = F.when(attr_col == F.lit(k), cols[k]).otherwise(expr)
    return expr


def _batch_features(spark: SparkSession, batch: pd.DataFrame) -> DataFrame:
    """Tokenize every attribute of a micro-batch."""
    sdf = spark.createDataFrame(batch[["rid"] + ATTR_COLS])
    return sdf.select(
        "rid", *[tokens_col(F.col(c)).alias(f"bt{k}") for k, c in enumerate(ATTR_COLS)]
    )


def retrieve_samples(
    spark: SparkSession,
    batch: pd.DataFrame,
    need: pd.DataFrame,
    dr: DRIndex,
    cddx: CDDIndex,
    *,
    indexed: bool,
) -> DataFrame:
    """(rid, j, rule_id, sid, dep value) triples: which repository samples
    each rule suggests for each missing attribute. The index join vs the
    straightforward cross join is the TER-iDS vs CDD+ER distinction."""
    feats = _batch_features(spark, batch)
    need_sdf = spark.createDataFrame(need)  # rid, j
    probe = need_sdf.join(feats, "rid").join(
        F.broadcast(cddx.rules_df), F.col("j") == F.col("dep")
    )
    bt = [F.col(f"bt{k}") for k in range(D)]
    # Determinants must be present on the incomplete tuple (paper: "attributes
    # in X_i are non-missing").
    probe = probe.where(F.size(_pick(F.col("x1"), bt)) > 0)
    probe = probe.where(
        F.col("x2").isNull() | (F.size(_pick(F.col("x2"), bt)) > 0)
    )

    if indexed:
        # DR-index probe via token postings: any sample within Jaccard
        # distance hi1 < 1 of r[x1] shares a token with it, so the postings
        # join yields a complete candidate superset (no false negatives);
        # duplicates from multi-token overlap are dropped before the exact
        # constraint check. The probe side (batch x rules x tokens) is tiny
        # and broadcast.
        probe = probe.withColumn("ptok", F.explode(_pick(F.col("x1"), bt)))
        cand = dr.repo_tok.join(
            F.broadcast(probe),
            (dr.repo_tok["attr"] == probe["x1"]) & (dr.repo_tok["tok"] == probe["ptok"]),
        ).drop("attr", "tok", "ptok")
        cand = cand.dropDuplicates(["rid", "j", "rule_id", "sid"])
        cand = cand.join(dr.repo, "sid")
    else:
        cand = probe.crossJoin(dr.repo)

    st = [F.col(f"t{k}") for k in range(D)]
    d1 = F.lit(1.0) - jaccard_col(_pick(F.col("x1"), bt), _pick(F.col("x1"), st))
    cand = cand.where((d1 >= F.col("lo1")) & (d1 <= F.col("hi1")))
    d2 = F.lit(1.0) - jaccard_col(_pick(F.col("x2"), bt), _pick(F.col("x2"), st))
    cand = cand.where(
        F.col("x2").isNull() | ((d2 >= F.col("lo2")) & (d2 <= F.col("hi2")))
    )
    sval = [F.col(c) for c in ATTR_COLS]
    return cand.select(
        "rid",
        "j",
        "rule_id",
        "sid",
        "dep_lo",
        "dep_hi",
        _pick(F.col("j"), sval).alias("s_dep_val"),
    )


def candidate_frequencies(
    samples: DataFrame, dr: DRIndex, *, use_dom_index: bool = True
) -> DataFrame:
    """Aggregate candidate-value frequencies F(v) (Section 3).

    ``use_dom_index=True`` (TER-iDS / I_j+G_ER): equi-join the precomputed
    ``dom_pairs`` table — the DR-index turns ``cand(s[A_j])`` into a lookup.

    ``use_dom_index=False`` (straightforward baselines): scan the whole
    attribute domain per retrieved sample and compute each Jaccard distance
    on the fly — the paper's straightforward method, whose cost is what the
    index joins eliminate.

    Frequencies are *vote-split*: each retrieved (rule, sample) contributes a
    total weight of 1, divided over its candidate set ``cand(s[A_j])``. This
    calibrates Eq. (3)/(4): a contaminating sample with a broad candidate
    neighbourhood cannot dilute the concentrated evidence of samples whose
    dependent values pinpoint the missing one — matching the paper's premise
    that CDD imputation concentrates probability mass on the right value.
    """
    if use_dom_index:
        dp = dr.dom_pairs
        cands = dp.join(
            F.broadcast(samples),
            (dp["attr"] == samples["j"]) & (dp["u"] == samples["s_dep_val"]),
        ).where(
            (F.col("dist") >= F.col("dep_lo")) & (F.col("dist") <= F.col("dep_hi"))
        )
    else:
        dv = dr.dom_values
        scan = dv.join(F.broadcast(samples), dv["attr"] == samples["j"])
        dist = F.lit(1.0) - jaccard_col(
            tokens_col(F.col("s_dep_val")), F.col("vtok")
        )
        cands = scan.withColumn("dist", dist).where(
            (F.col("dist") >= F.col("dep_lo")) & (F.col("dist") <= F.col("dep_hi"))
        )
    w = Window.partitionBy("rid", "j", "rule_id", "sid")
    cands = cands.withColumn("weight", F.lit(1.0) / F.count(F.lit(1)).over(w))
    return cands.groupBy("rid", "j", "v").agg(F.sum("weight").alias("count"))


def assemble_instances(
    batch: pd.DataFrame,
    freq_pdf: pd.DataFrame,
    *,
    keywords: list[str],
    pivots: dict[int, AttributePivots],
    max_instances: int = 8,
    top_per_attr: int = 8,
) -> list[ImputedTuple]:
    """Eq. (3)/(4) normalization + instance cross product + aggregates.

    ``keywords`` is the query keyword set K — instance keyword flags and
    tuple keyword masks are computed against it (topic-aware ER is
    query-scoped, problem statement §2.3).
    """
    piv_tokens = [pivots[k].main_tokens for k in range(D)]
    by_rid: dict[int, dict[int, dict[str, int]]] = {}
    if len(freq_pdf):
        for row in freq_pdf.itertuples(index=False):
            by_rid.setdefault(row.rid, {}).setdefault(row.j, {})[row.v] = row.count
    out: list[ImputedTuple] = []
    for row in batch.itertuples(index=False):
        vals = [getattr(row, c) for c in ATTR_COLS]
        missing = [k for k in range(D) if vals[k] is None or pd.isna(vals[k])]
        base = [None if k in missing else vals[k] for k in range(D)]
        if not missing:
            cands = [(tuple(base), 1.0)]
        else:
            per_attr: list[list[tuple[str | None, float]]] = []
            for j in missing:
                freqs = by_rid.get(row.rid, {}).get(j, {})
                if not freqs:
                    per_attr.append([(None, 1.0)])
                    continue
                top = sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))[:top_per_attr]
                tot = sum(f for _, f in top)
                per_attr.append([(v, f / tot) for v, f in top])
            cands = [(tuple(base), 1.0)]
            for j, choices in zip(missing, per_attr):
                cands = [
                    (tuple(v if k != j else cv for k, v in enumerate(attrs)), p * cp)
                    for attrs, p in cands
                    for cv, cp in choices
                ]
            cands = cap_instances(cands, max_instances)
        out.append(
            build_imputed_tuple(
                int(row.rid), int(row.stream_id), cands,
                topics=keywords, pivot_tokens=piv_tokens,
            )
        )
    return out


def impute_batch(
    spark: SparkSession,
    batch: pd.DataFrame,
    dr: DRIndex,
    cddx: CDDIndex,
    pivots: dict[int, AttributePivots],
    *,
    keywords: list[str],
    indexed: bool,
    max_instances: int = 8,
) -> tuple[list[ImputedTuple], ImputeStats]:
    """Impute one micro-batch via CDD/DD/editing rules (flavor = cddx rules)."""
    stats = ImputeStats()
    need_rows = []
    for row in batch.itertuples(index=False):
        for k, c in enumerate(ATTR_COLS):
            v = getattr(row, c)
            if v is None or pd.isna(v):
                need_rows.append((int(row.rid), k))
    stats.n_incomplete = len({r for r, _ in need_rows})
    if not need_rows:
        tuples = assemble_instances(
            batch, pd.DataFrame(columns=["rid", "j", "v", "count"]),
            keywords=keywords, pivots=pivots, max_instances=max_instances,
        )
        return tuples, stats

    need = pd.DataFrame(need_rows, columns=["rid", "j"])
    t0 = time.perf_counter()
    samples = retrieve_samples(
        spark, batch, need, dr, cddx, indexed=indexed
    ).persist()
    stats.n_samples = samples.count()
    stats.t_select = time.perf_counter() - t0

    t1 = time.perf_counter()
    freq_pdf = candidate_frequencies(
        samples, dr, use_dom_index=indexed
    ).toPandas()
    stats.t_impute = time.perf_counter() - t1
    samples.unpersist()

    tuples = assemble_instances(
        batch, freq_pdf, keywords=keywords, pivots=pivots,
        max_instances=max_instances,
    )
    return tuples, stats


def impute_batch_con(
    spark: SparkSession,
    batch: pd.DataFrame,
    window_values: pd.DataFrame,
    pivots: dict[int, AttributePivots],
    *,
    keywords: list[str],
) -> tuple[list[ImputedTuple], ImputeStats]:
    """Constraint-based baseline [43]: statistical imputation from the
    stream itself — each missing attribute is filled with the most frequent
    (mode) value of that attribute over the current window; single instance
    with p = 1; no repository access.

    The paper: con+ER "does not adequately consider the semantic association
    among textual attribute values" (worst accuracy) and "imputes missing
    attributes only based on incomplete data streams" (almost constant,
    repository-independent cost). A per-attribute window mode is exactly
    such a semantics-blind statistical constraint fill.
    """
    stats = ImputeStats()
    has_missing = batch[ATTR_COLS].isna().any(axis=1)
    stats.n_incomplete = int(has_missing.sum())
    filled = batch.copy()
    if stats.n_incomplete and len(window_values):
        t0 = time.perf_counter()
        wv = window_values[ATTR_COLS]
        long = None
        for k, c in enumerate(ATTR_COLS):
            part = spark.createDataFrame(
                wv[[c]].dropna().rename(columns={c: "v"})
            ).select(F.lit(k).alias("attr"), "v")
            long = part if long is None else long.unionByName(part)
        mode = (
            long.groupBy("attr", "v")
            .count()
            .withColumn(
                "rk",
                F.row_number().over(
                    Window.partitionBy("attr").orderBy(F.desc("count"), F.asc("v"))
                ),
            )
            .where(F.col("rk") == 1)
            .select("attr", "v")
            .toPandas()
        )
        stats.t_impute = time.perf_counter() - t0
        modes = dict(zip(mode["attr"], mode["v"]))
        for idx, row in filled[has_missing].iterrows():
            for k, c in enumerate(ATTR_COLS):
                if row[c] is None or pd.isna(row[c]):
                    filled.loc[idx, c] = modes.get(k)
    tuples = assemble_instances(
        filled, pd.DataFrame(columns=["rid", "j", "v", "count"]),
        keywords=keywords, pivots=pivots,
    )
    return tuples, stats
