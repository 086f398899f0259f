"""Spans and counters recorded around calls into the program's layers.

Nothing inside ``src/`` is instrumented. ``Probe`` replaces, for the
duration of a ``with`` block, the names that ``repro.ter.algorithm`` and
``repro.core.imputation`` look up at call time, and restores them on exit:

- always: the sliding-window generator (to time each closed-loop batch) and
  ``impute_batch`` (to capture the instance sets the oracle needs);
- when tracing: every layer function named in ``LAYER_SPANS``, the Eq. (2)
  kernel (accumulated per batch, not one span per call), and the
  driver<->JVM row counters on ``SparkSession.createDataFrame`` /
  ``DataFrame.toPandas``.

A span's self time is its duration minus the time its children cover, so
per batch the self times of all spans add up to the batch wall time; the
batch span's own self time is reported as ``window.maintain_s``.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.core.imputation as imputation_mod
import repro.ter.algorithm as algorithm_mod
from pyspark.sql import SparkSession

#: (module, attribute) -> span name for the traced layer boundaries.
LAYER_SPANS = {
    (imputation_mod, "retrieve_samples"): "imputation.retrieve_samples",
    (imputation_mod, "candidate_frequencies"): "imputation.candidate_frequencies",
    (imputation_mod, "assemble_instances"): "instances.assemble",
    (algorithm_mod, "aggregates_frame"): "instances.aggregates_frame",
    (algorithm_mod, "generate_candidates"): "er_grid.generate_candidates",
    (algorithm_mod, "newnew_candidates"): "er_grid.newnew_candidates",
    (algorithm_mod, "exact_er_spark"): "baselines.exact_er_spark",
    (algorithm_mod, "instances_frame"): "baselines.instances_frame",
}
REFINE_SPAN = "probability.refine"


@dataclass
class Span:
    name: str
    parent: str | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    jobs: int = 0
    rows_to_jvm: int = 0
    rows_from_jvm: int = 0
    calls: int = 1

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


@dataclass
class Batch:
    """One closed-loop micro-batch as seen from outside the program."""

    step: int
    arrived: list[int]
    expired: list[int]
    window_before: list[int]
    n_arrivals: int
    start: float
    end: float = 0.0
    tuples: list = field(default_factory=list)      # ImputedTuple captures
    impute_stats: object = None
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Probe:
    """Records batches (always) and spans/counters (when ``traced``)."""

    def __init__(self, spark: SparkSession):
        self._spark = spark
        self._tracker = spark.sparkContext.statusTracker()
        self.traced = False
        self.batches: list[Batch] = []
        self.warmup_tuples: list = []
        self.rows_to_jvm = 0
        self.rows_from_jvm = 0
        self._stack: list[Span] = []
        self._cur: Batch | None = None
        self._in_warmup = False
        self._marks: dict[str, tuple[int, int, int]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- counters --------------------------------------------------------
    def job_mark(self) -> int:
        """Highest Spark job id so far (the tracker retains only the newest
        ``spark.ui.retainedJobs`` ids, so the list length is no count)."""
        ids = self._tracker.getJobIdsForGroup(None)
        return max(ids) if ids else -1

    def _counts(self) -> tuple[int, int, int]:
        return self.job_mark(), self.rows_to_jvm, self.rows_from_jvm

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        if not (self.traced and self._cur is not None):
            yield
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent.name if parent else None, time.perf_counter())
        jobs0, to0, from0 = self._counts()
        self._stack.append(sp)
        try:
            yield
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()
            jobs1, to1, from1 = self._counts()
            sp.jobs, sp.rows_to_jvm, sp.rows_from_jvm = (
                jobs1 - jobs0, to1 - to0, from1 - from0)
            if parent is not None:
                parent.child_s += sp.dur
            self._cur.spans.append(sp)

    def _mark(self, key: str) -> None:
        if self.traced and self._cur is not None:
            self._marks[key] = self._counts()

    # -- the closed loop -------------------------------------------------
    def _sliding(self, orig):
        probe = self

        def sliding_batches(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                # A batch starts when the loop asks for it and ends when the
                # loop asks for the next one.
                start = time.perf_counter()
                root = None
                if probe.traced:
                    root = Span("batch", None, start)
                    probe._stack = [root]
                    probe._cur = Batch(-1, [], [], [], 0, start)
                    jobs0, to0, from0 = probe._counts()
                    with probe.span("window.advance"):
                        wb = next(it, None)
                else:
                    wb = next(it, None)
                if wb is None:
                    probe._cur = None
                    return
                if wb.step == 0:       # window fill; run_stream resumes from
                    probe._cur = None  # the warm snapshot and skips it
                    yield wb
                    continue
                b = probe._cur if root is not None else Batch(
                    -1, [], [], [], 0, start)
                b.step = wb.step
                b.arrived = wb.arrived["rid"].astype(int).tolist()
                b.expired = [int(r) for r in wb.expired_rids]
                b.window_before = wb.window_before["rid"].astype(int).tolist()
                b.n_arrivals = wb.n_arrivals
                probe._cur = b
                yield wb
                b.end = time.perf_counter()
                if root is not None:
                    root.end = b.end
                    jobs1, to1, from1 = probe._counts()
                    root.jobs, root.rows_to_jvm, root.rows_from_jvm = (
                        jobs1 - jobs0, to1 - to0, from1 - from0)
                    if b.counters.get("refine_calls"):
                        # Accumulated kernel time, already subtracted from
                        # the batch's self time call by call.
                        b.spans.append(Span(
                            REFINE_SPAN, "batch", 0.0,
                            b.counters["refine_s"],
                            calls=b.counters["refine_calls"]))
                    b.spans.append(root)
                    probe._stack = []
                probe.batches.append(b)
                probe._cur = None

        return sliding_batches

    def _impute(self, orig):
        probe = self

        def impute_batch(*args, **kwargs):
            with probe.span("imputation.impute_batch"):
                tuples, stats = orig(*args, **kwargs)
            if probe._in_warmup:
                probe.warmup_tuples.extend(tuples)
            elif probe._cur is not None:
                probe._cur.tuples.extend(tuples)
                probe._cur.impute_stats = stats
                if probe.traced:
                    m = probe._marks
                    c = probe._cur.counters
                    if "select" in m and "aggregate" in m:
                        c["select_jobs"] = m["aggregate"][0] - m["select"][0]
                        c["select_rows_to_jvm"] = m["aggregate"][1] - m["select"][1]
                        end = m.get("assemble", probe._counts())
                        c["aggregate_rows_from_jvm"] = end[2] - m["aggregate"][2]
                    m.clear()
            return tuples, stats

        return impute_batch

    def _layer(self, orig, name: str, mark: str | None):
        probe = self

        def traced(*args, **kwargs):
            if mark:
                probe._mark(mark)
            with probe.span(name):
                out = orig(*args, **kwargs)
            if probe._cur is not None and name.startswith("er_grid."):
                probe._cur.counters.setdefault("prune", []).append(out[1])
            return out

        return traced

    def _refine(self, orig):
        probe = self

        def pr_ter_ids_detail(inst_i, inst_j, gamma, alpha=None):
            t0 = time.perf_counter()
            pr, stopped = orig(inst_i, inst_j, gamma, alpha)
            dt = time.perf_counter() - t0
            c = probe._cur.counters
            c["refine_s"] = c.get("refine_s", 0.0) + dt
            c["refine_calls"] = c.get("refine_calls", 0) + 1
            if alpha is not None and pr > alpha:
                c["refine_accepted"] = c.get("refine_accepted", 0) + 1
            elif stopped:
                c["refine_instance_pruned"] = c.get("refine_instance_pruned", 0) + 1
            if probe._stack:
                probe._stack[-1].child_s += dt
            return pr, stopped

        return pr_ter_ids_detail

    def _rows(self, orig, direction: str):
        probe = self

        if direction == "to":
            def create(self_, data, *args, **kwargs):
                probe.rows_to_jvm += len(data) if hasattr(data, "__len__") else 0
                return orig(self_, data, *args, **kwargs)
            return create

        def to_pandas(self_, *args, **kwargs):
            out = orig(self_, *args, **kwargs)
            probe.rows_from_jvm += len(out)
            return out
        return to_pandas

    # -- install / restore -----------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Probe":
        a = algorithm_mod
        self._patch(a, "sliding_batches", self._sliding(a.sliding_batches))
        self._patch(a, "impute_batch", self._impute(a.impute_batch))
        marks = {"retrieve_samples": "select", "candidate_frequencies": "aggregate",
                 "assemble_instances": "assemble"}
        for (owner, attr), name in LAYER_SPANS.items():
            orig = getattr(owner, attr)
            self._patch(owner, attr, self._conditional(
                orig, self._layer(orig, name, marks.get(attr))))
        orig = a.pr_ter_ids_detail
        self._patch(a, "pr_ter_ids_detail",
                    self._conditional(orig, self._refine(orig)))
        cdf = SparkSession.createDataFrame
        self._patch(SparkSession, "createDataFrame", self._conditional(
            cdf, self._rows(cdf, "to"), method=True))
        # The session hands out a subclass of ``pyspark.sql.DataFrame`` that
        # overrides ``toPandas``; patch the class actually in use.
        frame_cls = type(self._spark.range(0))
        tp = frame_cls.toPandas
        self._patch(frame_cls, "toPandas", self._conditional(
            tp, self._rows(tp, "from"), method=True))
        return self

    def _conditional(self, orig, traced, method: bool = False):
        """Call ``traced`` only inside a traced batch, else ``orig``."""
        probe = self
        if method:
            def call(self_, *args, **kwargs):
                f = traced if probe.traced else orig
                return f(self_, *args, **kwargs)
            return call

        def call(*args, **kwargs):
            f = traced if (probe.traced and probe._cur is not None) else orig
            return f(*args, **kwargs)
        return call

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def warmup(self):
        """Capture the window-fill instance sets (the oracle's pool)."""
        self._in_warmup = True
        try:
            yield
        finally:
            self._in_warmup = False
