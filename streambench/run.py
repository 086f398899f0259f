"""Steady-state stream benchmark for TER-iDS (``ter``) and CDD+ER (``cdd_er``).

Run from the root of a checkout:

    python3 streambench/run.py --cores 4 --driver-memory 2g \
        --shuffle-partitions 2 --arrow true \
        --workload citations-impute-heavy --seed 7 --seconds 5 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``END_TO_END``); with ``--trace 1``
they are the per-layer ones (``PER_LAYER``) and the spans are written to
``.bench_work/``. See ``streambench/README.md``.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

METHODS = ("ter", "cdd_er")

#: Post-fill batches per measured pass. A batch here costs about what its
#: Spark jobs cost to plan and run (3-5 s on 4 cores), and a run must fit in
#: about a minute after a ~10 s JVM start and a 35-50 s set-up, so one batch
#: per method is all there is room for.
MEASURED_BATCHES = 1

#: name -> unit of every metric printed with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "ter.sec_per_arrival": "s/arrival",
    "ter.batch_s.p50": "s",
    "cdd_er.sec_per_arrival": "s/arrival",
    "ter.pair_exactness": "ratio",
    "batch_ok_share": "ratio",
    "driver_peak_rss_mb": "MB",
}

_COMMON_LAYER = {
    "window.advance_s": "s",
    "window.maintain_s": "s",
    "imputation.select_s": "s",
    "imputation.select_jobs": "count",
    "imputation.rows_to_jvm": "count",
    "imputation.samples": "count",
    "imputation.incomplete": "count",
    "imputation.aggregate_s": "s",
    "imputation.rows_from_jvm": "count",
    "instances.assemble_s": "s",
    "instances.per_tuple_mean": "count",
    "instances.per_tuple_max": "count",
    "imputation.top1_hit": "ratio",
    "imputation.true_mass": "ratio",
    "batch.jobs": "count",
    "batch.samples": "count",
    "untimed_share": "ratio",
}
_TER_LAYER = {
    "er_grid.candidates_s": "s",
    "er_grid.jobs": "count",
    "er_grid.rows_to_jvm": "count",
    "er_grid.rows_from_jvm": "count",
    "er_grid.pairs": "count",
    "prune.topic": "count",
    "prune.sim_ub": "count",
    "prune.prob_ub": "count",
    "prune.survivor_ratio": "ratio",
    "er_grid.newnew_s": "s",
    "probability.refine_s": "s",
    "probability.refine_pairs": "count",
    "prune.instance": "count",
    "probability.accept_ratio": "ratio",
}
_CDD_LAYER = {
    "baselines.exact_er_s": "s",
    "baselines.instances_frame_s": "s",
    "baselines.rows_to_jvm": "count",
}
#: name -> unit of every metric printed with --trace 1.
PER_LAYER = {
    **{f"ter.{k}": u for k, u in {**_COMMON_LAYER, **_TER_LAYER}.items()},
    **{f"cdd_er.{k}": u for k, u in {**_COMMON_LAYER, **_CDD_LAYER}.items()},
    "setup.generate_s": "s",
    "setup.profile_s": "s",
    "setup.pivots_s": "s",
    "setup.rules_s": "s",
    "setup.dr_index_s": "s",
    "setup.warmup_s": "s",
    "setup.warm_batches_s": "s",
    "setup.jobs": "count",
    "ter.f_score": "ratio",
    "ter.pair_errors": "count",
    "ter_vs_cdd_er.pair_diff": "count",
    "ter_vs_cdd_er.pair_overlap": "ratio",
    "failed_batch_share": "ratio",
    "trace.overhead_share": "ratio",
}


#: Layer times printed, with --trace 1, as shares of the batch wall time.
SHARE_OF_WALL = (
    "window.advance_s", "window.maintain_s", "imputation.select_s",
    "imputation.aggregate_s", "instances.assemble_s", "er_grid.candidates_s",
    "er_grid.newnew_s", "probability.refine_s", "baselines.exact_er_s",
    "baselines.instances_frame_s",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The Spark settings have no defaults: BENCHMARK.json pins them.
    ap.add_argument("--cores", type=int, required=True,
                    help="local[n] master; capped at the machine's CPU count")
    ap.add_argument("--driver-memory", required=True)
    ap.add_argument("--shuffle-partitions", type=int, required=True)
    ap.add_argument("--arrow", choices=("true", "false"), required=True)
    return ap.parse_args(argv)


def start_spark(args, work: Path):
    """One local-mode SparkSession whose scratch space is inside ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    cores = max(1, min(args.cores, os.cpu_count() or 1))
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {args.driver_memory} "
        f"--driver-java-options -Djava.io.tmpdir={tmp} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("streambench")
        .config("spark.sql.shuffle.partitions", str(args.shuffle_partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", args.arrow)
        # AQE adds jobs without saving time on these micro-batches;
        # broadcast joins are left to the program, as in the tests.
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(tmp))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the gateway JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()     # the gateway JVM exits when stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def full_batches(stream, w: int, batch_size: int) -> int:
    """Post-fill batches of ``sliding_batches`` that carry 2*batch_size
    arrivals (the fill ends once both streams hold ``w`` tuples)."""
    s = stream.sort_values(["ts", "rid"], kind="stable")["stream_id"].to_numpy()
    filled = ((s == 0).cumsum() >= w) & ((s == 1).cumsum() >= w)
    fill_end = int(filled.argmax()) + 1 if filled.any() else len(s)
    return (len(s) - fill_end) // (2 * batch_size)


class Bench:
    def __init__(self, spark, wl, seed: int, trace: bool):
        from repro.config import TERConfig
        from tracer import Probe

        self.spark = spark
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.cfg = TERConfig(seed=seed, **wl.params)
        self.probe = Probe(spark)
        self.setup_parts: dict[str, float] = {}
        self.passes: list[dict] = []        # method, batches, res, timed, traced, raised
        self.failed_steps: set[tuple[int, int]] = set()
        self.oracle_cache: dict = {}
        self.oracle_pairs = 0
        self.order = METHODS if seed % 2 == 0 else METHODS[::-1]

    # -- phases ------------------------------------------------------------
    def _timed(self, key: str, fn):
        t0 = time.perf_counter()
        out = fn()
        self.setup_parts[key] = self.setup_parts.get(key, 0.0) + time.perf_counter() - t0
        return out

    def setup(self) -> float:
        from repro.core.cdd_detect import sample_pair_profile
        from repro.index.dr_index import build_dr_index
        from repro.streams.stream_gen import generate
        from repro.ter.algorithm import (
            DOM_PAIRS_CUTOFF, prepare, select_pivots_for, warmup,
        )

        cfg, wl, spark = self.cfg, self.wl, self.spark
        jobs0 = self.probe.job_mark()
        t0 = time.perf_counter()
        self.ds = self._timed("generate", lambda: generate(
            wl.dataset, scale=wl.scale, xi=cfg.xi, m=cfg.m, eta=cfg.eta, w=cfg.w,
            n_keywords=cfg.n_topic_keywords, seed=self.seed))
        profile = self._timed("profile", lambda: sample_pair_profile(
            spark, self.ds.repository, seed=cfg.seed))
        pivots = self._timed("pivots", lambda: select_pivots_for(self.ds, cfg))
        dr = self._timed("dr_index", lambda: build_dr_index(
            spark, self.ds.repository, pivots, n_buckets=cfg.pivot_buckets,
            max_dep_hi=DOM_PAIRS_CUTOFF))
        # Both methods use the same CDD-flavor rules, so one rule detection
        # and CDD-index serve both (as one DR-index serves every method).
        ter = self._timed("rules", lambda: prepare(
            spark, self.ds, cfg, "ter", profile=profile, pivots=pivots, dr=dr))
        self.preps = {"ter": ter, "cdd_er": dataclasses.replace(ter, method="cdd_er")}
        with self.probe.warmup():
            self.warm = self._timed("warmup", lambda: warmup(
                spark, self.ds, cfg, self.preps["ter"]))
        self.n_batches = min(MEASURED_BATCHES,
                             full_batches(self.ds.stream, cfg.w, cfg.batch_size))
        if self.n_batches < 1:
            raise SystemExit(f"workload {wl.name}: no full batch after the window fill")
        # Cold first batches (JIT, first plans) belong to set-up, not to the
        # steady state.
        for m in self.order:
            self._timed("warm_batches", lambda m=m: self.run_pass(m, 1, timed=False))
        self.setup_parts["jobs"] = self.probe.job_mark() - jobs0
        return time.perf_counter() - t0

    def run_pass(self, method: str, n: int, *, timed: bool, traced: bool = False) -> None:
        """One ``run_stream`` pass from the warm snapshot over the first
        ``n`` post-fill batches."""
        from repro.ter.algorithm import run_stream

        # Start every pass from a collected Python heap, so a pass does not
        # pay for the previous pass's garbage.
        gc.collect()
        probe = self.probe
        probe.traced = traced
        pass_no = len(self.passes)
        first = len(probe.batches)
        res = None
        raised = False
        try:
            res = run_stream(self.spark, self.ds, self.cfg, self.preps[method],
                             max_batches=n, warm=self.warm)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            step = probe._cur.step if probe._cur is not None else -1
            self.failed_steps.add((pass_no, step))
            probe._cur, probe._stack = None, []
            raised = True
        finally:
            probe.traced = False
        self.passes.append({
            "method": method, "pass_no": pass_no, "res": res,
            "batches": probe.batches[first:], "timed": timed, "traced": traced,
            "raised": raised,
        })

    def measure(self, seconds: float) -> None:
        """Measured rounds until ``seconds`` have passed, at least one. A
        traced run alternates untraced and traced rounds and ends on an even
        count, so the tracing overhead is measured on the same batches."""
        deadline = time.perf_counter() + seconds
        step = 2 if self.trace else 1
        rounds = 0
        while rounds < step or rounds % step or time.perf_counter() < deadline:
            traced = self.trace and rounds % 2 == 1
            for m in self.order:
                self.run_pass(m, self.n_batches, timed=True, traced=traced)
            rounds += 1

    # -- correctness -------------------------------------------------------
    def oracle_pass(self, p) -> dict[int, set]:
        """Exact Eq. (2) pairs per step, over this pass's captured instances."""
        from oracle import batch_pairs
        from repro.streams.stream_gen import D

        cfg = self.cfg
        inst_of = {t.rid: t for t in self.probe.warmup_tuples}
        key: tuple = ()
        out: dict[int, set] = {}
        for b in p["batches"]:
            key = key + (b.step, tuple(
                (t.rid, tuple((i.attrs, i.p) for i in t.instances)) for t in b.tuples))
            if key not in self.oracle_cache:
                expired = set(b.expired)
                pool = [inst_of[r] for r in b.window_before if r not in expired]
                self.oracle_cache[key] = batch_pairs(
                    b.tuples, pool, keywords=self.ds.keywords[: cfg.n_topic_keywords],
                    gamma=cfg.gamma, alpha=cfg.alpha, d=D)
            out[b.step] = self.oracle_cache[key]
            inst_of.update({t.rid: t for t in b.tuples})
        return out

    def check(self) -> dict:
        """Gate every ter pass against the oracle; compare ter with cdd_er."""
        errors = inter = union = 0
        for p in self.passes:
            if p["method"] != "ter" or p["res"] is None:
                continue
            want = self.oracle_pass(p)
            got = set(p["res"].pairs)
            exp = set().union(*want.values()) if want else set()
            self.oracle_pairs = len(exp)
            diff = got ^ exp
            errors += len(diff)
            inter += len(got & exp)
            union += len(got | exp)
            step_of = {r: b.step for b in p["batches"] for r in b.arrived}
            for pair in diff:
                self.failed_steps.add((p["pass_no"], step_of.get(max(pair), -1)))
        by_key = defaultdict(dict)
        for p in self.passes:
            if p["res"] is not None:
                by_key[p["timed"]].setdefault(p["method"], p["res"])
        d_inter = d_union = diff_n = 0
        for runs in by_key.values():
            if len(runs) == 2:
                a, b = set(runs["ter"].pairs), set(runs["cdd_er"].pairs)
                diff_n += len(a ^ b)
                d_inter += len(a & b)
                d_union += len(a | b)
        # A pass that raised attempted the batch it raised in as well.
        attempted = sum(len(p["batches"]) + p["raised"] for p in self.passes)
        return {
            "pair_errors": errors,
            "exactness": inter / union if union else 1.0,
            "pair_diff": diff_n,
            "overlap": d_inter / d_union if d_union else 1.0,
            "attempted": attempted,
            "failed": len(self.failed_steps),
        }

    def f_score(self) -> float | None:
        from repro.ter.metrics import f_score
        from repro.ter.truth import truth_pairs

        res = next((p["res"] for p in self.passes
                    if p["method"] == "ter" and p["timed"] and p["res"] is not None),
                   None)
        if res is None:
            return None
        truth = truth_pairs(self.spark, self.ds, self.cfg, max_batches=self.n_batches)
        return f_score(set(res.pairs), truth).f

    # -- metrics -----------------------------------------------------------
    def timed_batches(self, method: str, traced: bool | None = None):
        full = 2 * self.cfg.batch_size
        return [b for p in self.passes
                if p["method"] == method and p["timed"] and p["res"] is not None
                and (traced is None or p["traced"] == traced)
                for b in p["batches"] if b.n_arrivals == full]

    def end_to_end(self, setup_s: float, rss_mb: float, chk: dict) -> dict:
        """End-to-end metrics; a method whose timed passes all raised has
        no timings, and the run then reports ``correct: false``."""
        out = {"setup_s": setup_s}
        self.samples = 0
        for m in METHODS:
            bs = self.timed_batches(m, traced=False)
            if not bs:
                continue
            out[f"{m}.sec_per_arrival"] = (
                sum(b.wall_s for b in bs) / sum(b.n_arrivals for b in bs))
            if m == "ter":
                out["ter.batch_s.p50"] = statistics.median(b.wall_s for b in bs)
                self.samples = len(bs)
        out["ter.pair_exactness"] = chk["exactness"]
        out["batch_ok_share"] = 1.0 - chk["failed"] / chk["attempted"]
        out["driver_peak_rss_mb"] = rss_mb
        return out

    def per_layer(self, chk: dict) -> dict:
        from oracle import imputation_quality
        from repro.streams.stream_gen import ATTR_COLS

        out: dict[str, float] = {}
        stream_by = self.ds.stream.set_index("rid", drop=False).to_dict("index")
        comp_by = self.ds.complete.set_index("rid", drop=False).to_dict("index")
        self.shares: dict[str, dict[str, float]] = {}
        for m in METHODS:
            bs = self.timed_batches(m, traced=True)
            if not bs:
                continue
            v = defaultdict(list)
            sums = defaultdict(float)
            for b in bs:
                spans = defaultdict(list)
                for sp in b.spans:
                    spans[sp.name].append(sp)
                root = spans["batch"][0]
                total_self = sum(sp.self_s for sp in b.spans)
                if abs(total_self - root.dur) > 1e-6:
                    raise AssertionError(
                        f"{m} step {b.step}: span self times {total_self:.6f}s "
                        f"!= batch wall {root.dur:.6f}s")

                def dur(name):
                    return sum(sp.dur for sp in spans[name])

                def sp_sum(name, attr):
                    return sum(getattr(sp, attr) for sp in spans[name])

                st, c = b.impute_stats, b.counters
                v["window.advance_s"].append(dur("window.advance"))
                v["window.maintain_s"].append(root.self_s)
                v["imputation.select_s"].append(st.t_select)
                v["imputation.aggregate_s"].append(st.t_impute)
                v["imputation.samples"].append(st.n_samples)
                v["imputation.incomplete"].append(st.n_incomplete)
                v["imputation.select_jobs"].append(c.get("select_jobs", 0))
                v["imputation.rows_to_jvm"].append(c.get("select_rows_to_jvm", 0))
                v["imputation.rows_from_jvm"].append(c.get("aggregate_rows_from_jvm", 0))
                v["instances.assemble_s"].append(
                    dur("instances.assemble") + dur("instances.aggregates_frame"))
                v["batch.jobs"].append(root.jobs)
                sums["wall"] += b.wall_s
                missing = self.ds.stream.set_index("rid").loc[b.arrived, ATTR_COLS]
                imputed = set(missing.index[missing.isna().any(axis=1)].tolist())
                for t in b.tuples:
                    if t.rid in imputed:
                        v["_inst"].append(len(t.instances))
                n, hits, mass = imputation_quality(b.tuples, stream_by, comp_by, ATTR_COLS)
                sums["imp_n"] += n
                sums["imp_hits"] += hits
                sums["imp_mass"] += mass
                if m == "ter":
                    g = "er_grid.generate_candidates"
                    v["er_grid.candidates_s"].append(dur(g))
                    v["er_grid.jobs"].append(sp_sum(g, "jobs"))
                    v["er_grid.rows_to_jvm"].append(sp_sum(g, "rows_to_jvm"))
                    v["er_grid.rows_from_jvm"].append(sp_sum(g, "rows_from_jvm"))
                    v["er_grid.newnew_s"].append(dur("er_grid.newnew_candidates"))
                    prune = c.get("prune", [])
                    total = sum(s.total for s in prune)
                    v["er_grid.pairs"].append(total)
                    v["prune.topic"].append(sum(s.pruned_topic for s in prune))
                    v["prune.sim_ub"].append(sum(s.pruned_sim for s in prune))
                    v["prune.prob_ub"].append(sum(s.pruned_prob for s in prune))
                    v["probability.refine_s"].append(c.get("refine_s", 0.0))
                    v["probability.refine_pairs"].append(c.get("refine_calls", 0))
                    v["prune.instance"].append(c.get("refine_instance_pruned", 0))
                    sums["pairs"] += total
                    sums["refined"] += c.get("refine_calls", 0)
                    sums["accepted"] += c.get("refine_accepted", 0)
                else:
                    v["baselines.exact_er_s"].append(dur("baselines.exact_er_spark"))
                    v["baselines.instances_frame_s"].append(dur("baselines.instances_frame"))
                    v["baselines.rows_to_jvm"].append(
                        sp_sum("baselines.exact_er_spark", "rows_to_jvm"))
            for k, vals in v.items():
                if not k.startswith("_"):
                    out[f"{m}.{k}"] = float(statistics.median(vals))
            self.shares[m] = {k.removesuffix("_s"): sum(v[k]) / sums["wall"]
                              for k in SHARE_OF_WALL if k in v}
            inst = v["_inst"] or [1]
            out[f"{m}.instances.per_tuple_mean"] = statistics.fmean(inst)
            out[f"{m}.instances.per_tuple_max"] = float(max(inst))
            out[f"{m}.imputation.top1_hit"] = sums["imp_hits"] / max(1, sums["imp_n"])
            out[f"{m}.imputation.true_mass"] = sums["imp_mass"] / max(1, sums["imp_n"])
            out[f"{m}.batch.samples"] = float(len(bs))
            timers = sum(p["res"].t_total for p in self.passes
                         if p["method"] == m and p["timed"] and p["traced"]
                         and p["res"] is not None)
            out[f"{m}.untimed_share"] = 1.0 - timers / sums["wall"]
            if m == "ter":
                out["ter.prune.survivor_ratio"] = sums["refined"] / max(1, sums["pairs"])
                out["ter.probability.accept_ratio"] = (
                    sums["accepted"] / max(1, sums["refined"]))
        for k in ("generate", "profile", "pivots", "rules", "dr_index", "warmup",
                  "warm_batches"):
            out[f"setup.{k}_s"] = self.setup_parts[k]
        out["setup.jobs"] = float(self.setup_parts["jobs"])
        f = self.f_score()
        if f is not None:
            out["ter.f_score"] = f
        out["ter.pair_errors"] = float(chk["pair_errors"])
        out["ter_vs_cdd_er.pair_diff"] = float(chk["pair_diff"])
        out["ter_vs_cdd_er.pair_overlap"] = chk["overlap"]
        out["failed_batch_share"] = chk["failed"] / chk["attempted"]
        traced = sum(b.wall_s for m in METHODS for b in self.timed_batches(m, True))
        plain = sum(b.wall_s for m in METHODS for b in self.timed_batches(m, False))
        if traced and plain:
            out["trace.overhead_share"] = traced / plain - 1.0
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as f:
            for p in self.passes:
                for b in p["batches"]:
                    for sp in b.spans:
                        f.write(json.dumps({
                            "method": p["method"], "pass": p["pass_no"],
                            "step": b.step, "name": sp.name, "parent": sp.parent,
                            "start": sp.start, "dur_s": sp.dur, "self_s": sp.self_s,
                            "jobs": sp.jobs, "rows_to_jvm": sp.rows_to_jvm,
                            "rows_from_jvm": sp.rows_from_jvm, "calls": sp.calls,
                        }) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "ter" / "algorithm.py").is_file():
        print("streambench: run from the root of a checkout of this repository "
              "(src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"streambench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".bench_work"
    marks = [time.perf_counter()]
    spark = start_spark(args, work)
    try:
        bench = Bench(spark, wl, args.seed, bool(args.trace))
        marks.append(time.perf_counter())
        with bench.probe:
            setup_s = bench.setup()
            marks.append(time.perf_counter())
            bench.measure(args.seconds)
            marks.append(time.perf_counter())
        # Read before the checks, whose oracle matrices are not the program's.
        rss_mb = peak_rss_mb()
        chk = bench.check()
        if args.trace:
            metrics, units = bench.per_layer(chk), PER_LAYER
            spans = work / f"spans-{wl.name}-{args.seed}.jsonl"
            bench.write_spans(spans)
            print(f"spans written to {spans.relative_to(root)}")
        else:
            metrics, units = bench.end_to_end(setup_s, rss_mb, chk), END_TO_END
    finally:
        stop_spark(spark)

    bad = sorted(k for k, x in metrics.items() if not math.isfinite(x))
    metrics = {k: x for k, x in metrics.items() if k not in bad}
    missing = [k for k in units if k not in metrics]
    if missing:
        print(f"streambench: metrics missing or not finite: {missing}", file=sys.stderr)
    for k in units:
        if k in metrics:
            print(f"{k:36s} {metrics[k]:.6g} {units[k]}")
    for m, shares in getattr(bench, "shares", {}).items():
        print(f"{m} share of batch wall: " + ", ".join(
            f"{k} {x:.2f}" for k, x in shares.items()))
    print("setup parts: " + ", ".join(
        f"{k} {v:.2f}" for k, v in bench.setup_parts.items()))
    if not args.trace:
        print(f"ter batch samples: {bench.samples} (batch_s.p50 is their median)")
    marks.append(time.perf_counter())
    print("timeline (s): " + ", ".join(
        f"{k} {b - a:.1f}" for k, a, b in zip(
            ("spark start", "set-up", "measured rounds", "checks and stop"),
            marks, marks[1:])))
    print(f"batches attempted {chk['attempted']}, failed {chk['failed']}, "
          f"oracle pairs per ter pass {bench.oracle_pairs}, "
          f"ter pair errors {chk['pair_errors']}, ter/cdd_er pair diff {chk['pair_diff']}")
    # A raised batch leaves a method without timings; the run then fails
    # with the metrics it has.
    correct = chk["failed"] == 0 and not missing
    result = {
        "correct": correct,
        "attempted": chk["attempted"],
        "failed": chk["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
