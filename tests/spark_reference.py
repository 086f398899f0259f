"""Spark SQL references for driver-side kernels, used only by the tests.

``spark_pair_profile`` is the rule-detection pair profile as one Spark
query (a broadcast nested-loop join on an OR of block equalities that tests
all |R|^2 pairs). ``core/cdd_detect.py::sample_pair_profile`` lists the same
pairs from the blocks on the driver, and the tests require equal rows.
``job_mark`` lets a test assert that a call launched no Spark job.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import Column, SparkSession
from pyspark.sql import functions as F

from repro.streams.stream_gen import ATTR_COLS, D


def job_mark(spark: SparkSession) -> int:
    """Highest Spark job id so far (-1 before the first job)."""
    ids = spark.sparkContext.statusTracker().getJobIdsForGroup(None)
    return max(ids) if ids else -1


def tokens_col(col: Column) -> Column:
    """Spark: token-set array of an attribute string column (deduped)."""
    return F.array_distinct(
        F.filter(F.split(F.coalesce(col, F.lit("")), " "), lambda t: t != "")
    )


def jaccard_col(a: Column, b: Column) -> Column:
    """Spark: Jaccard similarity of two token-array columns (0 when both empty)."""
    inter = F.size(F.array_intersect(a, b))
    union = F.size(F.array_union(a, b))
    return F.when(union == 0, F.lit(0.0)).otherwise(inter / union)


def jaccard_dist_col(a: Column, b: Column) -> Column:
    """Spark: Jaccard distance of two token-array columns."""
    return F.lit(1.0) - jaccard_col(a, b)


def spark_pair_profile(
    spark: SparkSession, repo: pd.DataFrame, *, n_blocks: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """The pair profile of ``sample_pair_profile``, computed by Spark."""
    if n_blocks is None:
        n_blocks = max(1, len(repo) // 16)
    sdf = spark.createDataFrame(repo[["sid"] + ATTR_COLS])
    tok = sdf.select(
        "sid",
        F.pmod(F.hash(F.col("sid") + F.lit(seed)), F.lit(n_blocks)).alias("blk"),
        (F.col("sid") / 8).cast("int").alias("lblk"),
        *[tokens_col(F.col(c)).alias(f"t{k}") for k, c in enumerate(ATTR_COLS)],
    )
    left = tok.alias("l")
    right = tok.alias("r")
    same_rand = F.col("l.blk") == F.col("r.blk")
    same_local = F.col("l.lblk") == F.col("r.lblk")
    pairs = left.join(
        F.broadcast(right),
        (same_rand | same_local) & (F.col("l.sid") < F.col("r.sid")),
    )
    prof = pairs.select(
        *[
            jaccard_dist_col(F.col(f"l.t{k}"), F.col(f"r.t{k}")).alias(f"d{k}")
            for k in range(D)
        ]
    )
    return prof.toPandas()
