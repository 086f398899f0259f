"""Harness that reproduces each results table (DESIGN.md §3).

Caching layers (all in-process, keyed by generation/offline parameters):
- datasets (`_DATASETS`),
- offline contexts: profile + pivots + shared DR-index (`_CONTEXTS`),
- per-(context, flavor) rule indexes (`Context.preps`),
- warmup window states per (context, warmup-flavor, cfg window params)
  (`_WARMUPS`) — sweep points that don't change the imputed window resume
  from the same snapshot (semantics-preserving, tested).

Every ``table_*`` function returns a list of row dicts; ``print_rows``
renders them; jobs/ and benchmarks/ are thin wrappers. Results are also
appended to ``results/measured.json`` so EXPERIMENTS.md can be regenerated.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.config import PARAM_GRID, TERConfig
from repro.core.cdd_detect import sample_pair_profile
from repro.streams.stream_gen import Dataset, generate
from repro.ter.algorithm import (
    METHODS,
    Prepared,
    RunResult,
    prepare,
    run_stream,
    select_pivots_for,
    warmup,
    warmup_flavor,
)
from repro.index.dr_index import build_dr_index
from repro.ter.algorithm import DOM_PAIRS_CUTOFF
from repro.ter.metrics import f_score, pruning_power
from repro.ter.truth import truth_pairs

DATASETS = ["citations", "anime", "bikes", "ebooks", "songs"]
#: dataset used for parameter sweeps (P5-P13) — the paper sweeps all five;
#: we sweep the smallest and rely on P1-P4 for full-dataset coverage
SWEEP_DATASET = "citations"
#: generation scale for benchmark runs (1.0 = Table-4 cardinalities)
BENCH_SCALE = 1.0
#: measured micro-batches per run
BENCH_BATCHES = 2

_DATASETS: dict = {}
_CONTEXTS: dict = {}
_WARMUPS: dict = {}
_RUNS: dict = {}

RESULTS_PATH = Path(__file__).resolve().parents[3] / "results" / "measured.json"


def _ds_key(name: str, cfg: TERConfig, scale: float) -> tuple:
    return (name, scale, cfg.xi, cfg.m, cfg.eta, cfg.w, cfg.seed)


def get_dataset(name: str, cfg: TERConfig, scale: float = BENCH_SCALE) -> Dataset:
    key = _ds_key(name, cfg, scale)
    if key not in _DATASETS:
        _DATASETS[key] = generate(
            name, scale=scale, xi=cfg.xi, m=cfg.m, eta=cfg.eta, w=cfg.w,
            n_keywords=cfg.n_topic_keywords, seed=cfg.seed,
        )
    return _DATASETS[key]


class Context:
    """Shared offline products for one generated dataset."""

    def __init__(self, ds: Dataset, cfg: TERConfig):
        self.ds = ds
        self.profile = sample_pair_profile(None, ds.repository, seed=cfg.seed)
        self.pivots = select_pivots_for(ds, cfg)
        self.dr = build_dr_index(
            None, ds.repository, self.pivots,
            n_buckets=cfg.pivot_buckets, max_dep_hi=DOM_PAIRS_CUTOFF,
        )
        self.preps: dict[str, Prepared] = {}

    def prep(self, cfg: TERConfig, method: str) -> Prepared:
        """Rules are detected and indexed once per flavor; methods sharing a
        flavor get a copy that differs only in ``method``."""
        if method not in self.preps:
            flavor = warmup_flavor(method)
            same = [p for p in self.preps.values() if warmup_flavor(p.method) == flavor]
            self.preps[method] = (
                dataclasses.replace(same[0], method=method) if same else prepare(
                    None, self.ds, cfg, method,
                    profile=self.profile, pivots=self.pivots, dr=self.dr,
                )
            )
        return self.preps[method]


def get_context(name: str, cfg: TERConfig, scale: float = BENCH_SCALE) -> Context:
    key = _ds_key(name, cfg, scale)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = Context(get_dataset(name, cfg, scale), cfg)
    return _CONTEXTS[key]


def get_warm(ctx: Context, cfg: TERConfig, method: str, key: tuple):
    wkey = key + (warmup_flavor(method), cfg.w, cfg.batch_size)
    if wkey not in _WARMUPS:
        _WARMUPS[wkey] = warmup(None, ctx.ds, cfg, ctx.prep(cfg, method))
    return _WARMUPS[wkey]


def run_method(
    name: str, cfg: TERConfig, method: str,
    *, scale: float = BENCH_SCALE, max_batches: int = BENCH_BATCHES,
) -> RunResult:
    """Run one (dataset, cfg, method) measurement; memoized so tables that
    share a data point (P1/P3/P4 all need the default-config TER run) do not
    re-measure it."""
    key = _ds_key(name, cfg, scale) + (cfg.alpha, cfg.rho, cfg.batch_size,
                                       method, max_batches)
    if key in _RUNS:
        return _RUNS[key]
    ctx = get_context(name, cfg, scale)
    prep = ctx.prep(cfg, method)
    warm = get_warm(ctx, cfg, method, _ds_key(name, cfg, scale))
    res = run_stream(None, ctx.ds, cfg, prep, max_batches=max_batches, warm=warm)
    _RUNS[key] = res
    return res


def method_fscore(
    name: str, cfg: TERConfig, method: str,
    *, scale: float = BENCH_SCALE, max_batches: int = BENCH_BATCHES,
):
    res = run_method(name, cfg, method, scale=scale, max_batches=max_batches)
    truth = truth_pairs(None, get_dataset(name, cfg, scale), cfg,
                        max_batches=max_batches)
    return f_score(set(res.pairs), truth)


# ---------------------------------------------------------------- tables ---

def table_t4(scale: float = BENCH_SCALE) -> list[dict]:
    """T4 (paper Table 4): generated dataset statistics."""
    cfg = TERConfig()
    rows = []
    for name in DATASETS:
        ds = get_dataset(name, cfg, scale)
        s = ds.stream
        matched = ds.complete[ds.complete["stream_id"] == 1]["entity_id"].isin(
            set(ds.complete[ds.complete["stream_id"] == 0]["entity_id"])
        ).sum()
        rows.append(
            {
                "table": "T4",
                "dataset": name,
                "src_a": int((s["stream_id"] == 0).sum()),
                "src_b": int((s["stream_id"] == 1).sum()),
                "planted_matches": int(matched),
                "repo": len(ds.repository),
            }
        )
    return rows


def table_p1(datasets: list[str] | None = None) -> list[dict]:
    """P1 (Fig. 4): pruning power per strategy per dataset (TER-iDS)."""
    cfg = TERConfig()
    rows = []
    for name in datasets or DATASETS:
        res = run_method(name, cfg, "ter")
        pp = pruning_power(res.prune)
        rows.append({"table": "P1", "dataset": name, **{k: round(v, 4) for k, v in pp.items()}})
    return rows


def table_p2(datasets: list[str] | None = None) -> list[dict]:
    """P2 (Fig. 5a): F-score of TER-iDS vs DD+ER, er+ER, con+ER."""
    cfg = TERConfig()
    rows = []
    for name in datasets or DATASETS:
        for method in ("ter", "dd_er", "er_er", "con_er"):
            fs = method_fscore(name, cfg, method)
            rows.append(
                {
                    "table": "P2", "dataset": name, "method": method,
                    "f": round(fs.f, 4), "precision": round(fs.precision, 4),
                    "recall": round(fs.recall, 4), "returned": fs.n_returned,
                    "truth": fs.n_truth,
                }
            )
    return rows


def table_p3(datasets: list[str] | None = None) -> list[dict]:
    """P3 (Fig. 5b): wall clock per arrival, TER-iDS vs 5 baselines."""
    cfg = TERConfig()
    rows = []
    for name in datasets or DATASETS:
        for method in METHODS:
            res = run_method(name, cfg, method)
            # pairs the method had to evaluate exactly (Eq. 2) — the
            # substrate-independent work metric (see EXPERIMENTS.md)
            evaluated = res.prune.refined + res.prune.pruned_instance
            rows.append(
                {
                    "table": "P3", "dataset": name, "method": method,
                    "sec_per_arrival": round(res.per_arrival, 5),
                    "pairs_eval_per_arrival": round(
                        evaluated / max(1, res.n_arrivals), 1
                    ),
                    "t_total": round(res.t_total, 3),
                    "n_arrivals": res.n_arrivals,
                }
            )
    return rows


def table_p4(datasets: list[str] | None = None) -> list[dict]:
    """P4 (Fig. 6): TER-iDS break-up cost (CDD select / impute / ER)."""
    cfg = TERConfig()
    rows = []
    for name in datasets or DATASETS:
        res = run_method(name, cfg, "ter")
        n = max(1, res.n_arrivals)
        rows.append(
            {
                "table": "P4", "dataset": name,
                "cdd_select": round(res.t_select / n, 5),
                "impute": round(res.t_impute / n, 5),
                "er": round(res.t_er / n, 5),
            }
        )
    return rows


def _sweep(
    table: str, param: str, values: list, *,
    methods: list[str], measure: str, datasets: list[str] | None = None,
    max_batches: int = BENCH_BATCHES,
) -> list[dict]:
    rows = []
    for name in datasets or [SWEEP_DATASET]:
        for v in values:
            cfg = TERConfig().with_(**{param: v})
            if param == "w":
                # Like the paper (Fig. 10, Citations): skip window sizes the
                # dataset cannot fill while leaving room for measured batches.
                ds = get_dataset(name, cfg)
                need = 2 * cfg.w + 2 * cfg.batch_size * max_batches
                if len(ds.stream) < need:
                    continue
            for method in methods:
                if measure == "time":
                    res = run_method(name, cfg, method, max_batches=max_batches)
                    rows.append(
                        {
                            "table": table, "dataset": name, param: v,
                            "method": method,
                            "sec_per_arrival": round(res.per_arrival, 5),
                        }
                    )
                else:
                    fs = method_fscore(name, cfg, method, max_batches=max_batches)
                    rows.append(
                        {
                            "table": table, "dataset": name, param: v,
                            "method": method, "f": round(fs.f, 4),
                        }
                    )
    return rows


ACC_METHODS = ["ter", "dd_er", "er_er", "con_er"]


def table_p5(**kw):
    """P5 (Fig. 7): time vs probabilistic threshold alpha."""
    return _sweep("P5", "alpha", PARAM_GRID["alpha"], methods=METHODS,
                  measure="time", **kw)


def table_p6(**kw):
    """P6 (Fig. 8): time vs similarity-threshold ratio rho."""
    return _sweep("P6", "rho", PARAM_GRID["rho"], methods=METHODS,
                  measure="time", **kw)


def table_p7(**kw):
    """P7 (Fig. 9): time vs missing rate xi."""
    return _sweep("P7", "xi", PARAM_GRID["xi"], methods=METHODS,
                  measure="time", **kw)


def table_p8(**kw):
    """P8 (Fig. 10): time vs window size w."""
    return _sweep("P8", "w", PARAM_GRID["w"], methods=METHODS,
                  measure="time", **kw)


def table_p9(**kw):
    """P9 (Fig. 13): F-score vs missing rate xi."""
    return _sweep("P9", "xi", PARAM_GRID["xi"], methods=ACC_METHODS,
                  measure="f", **kw)


def table_p10(**kw):
    """P10 (Fig. 14): F-score vs repository ratio eta."""
    return _sweep("P10", "eta", PARAM_GRID["eta"], methods=ACC_METHODS,
                  measure="f", **kw)


def table_p11(**kw):
    """P11 (Fig. 15): F-score vs number of missing attributes m."""
    return _sweep("P11", "m", PARAM_GRID["m"], methods=ACC_METHODS,
                  measure="f", **kw)


def table_p12(**kw):
    """P12 (Fig. 16): time vs repository ratio eta."""
    return _sweep("P12", "eta", PARAM_GRID["eta"], methods=METHODS,
                  measure="time", **kw)


def table_p13(**kw):
    """P13 (Fig. 17): time vs number of missing attributes m."""
    return _sweep("P13", "m", PARAM_GRID["m"], methods=METHODS,
                  measure="time", **kw)


TABLES = {
    "T4": table_t4,
    "P1": table_p1, "P2": table_p2, "P3": table_p3, "P4": table_p4,
    "P5": table_p5, "P6": table_p6, "P7": table_p7, "P8": table_p8,
    "P9": table_p9, "P10": table_p10, "P11": table_p11, "P12": table_p12,
    "P13": table_p13,
}


def print_rows(rows: list[dict]) -> None:
    if not rows:
        print("(no rows)")
        return
    cols = list(rows[0].keys())
    print(" | ".join(str(c) for c in cols))
    for r in rows:
        print(" | ".join(str(r.get(c, "")) for c in cols))


def save_rows(rows: list[dict]) -> None:
    """Append measured rows to results/measured.json (EXPERIMENTS.md source)."""
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    existing = []
    if RESULTS_PATH.exists():
        existing = json.loads(RESULTS_PATH.read_text())
    tables = {r["table"] for r in rows}
    existing = [r for r in existing if r.get("table") not in tables]
    RESULTS_PATH.write_text(json.dumps(existing + rows, indent=1))


def run_table(table: str, **kw) -> list[dict]:
    rows = TABLES[table](**kw)
    save_rows(rows)
    return rows
