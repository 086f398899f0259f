"""Benchmark workloads: one generated dataset plus one ``TERConfig`` each.

Cardinalities are scaled so that a whole run (Spark start, one cold offline
phase, window fill, warm-up batches and one measured round) takes about a
minute on a 4-core machine. ``w`` and ``batch_size`` are scaled with the
data, so the window keeps the shape it has at full scale: the Table-5
default w = 1000 becomes ``1000 * scale``, the wide window is three times
that (as w = 3000 is to 1000 in Table 5), and the 200 arrivals per stream
and step become ``200 * scale``. A step therefore replaces a fifth of the
default window and a fifteenth of the wide one, as at full scale, instead
of the whole window.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    params: dict = field(default_factory=dict)   # TERConfig overrides
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "citations-impute-heavy", "citations", 0.2,
            {"w": 200, "batch_size": 40, "xi": 0.5, "m": 3},
            why="citations at xi=0.5, m=3 (sweep maxima): CDD-select and "
                "candidate aggregation dominate; up to 8 instances per tuple, "
                "so Thm 4.4 fires and ter/cdd_er imputation can diverge",
        ),
        Workload(
            "bikes-wide-window", "bikes", 0.12,
            {"w": 360, "batch_size": 24},
            why="bikes at 3x the (scaled) default window: grid candidates, "
                "Eq. (2) refinement, exact baseline ER and window state "
                "dominate; Eq. (2)-based truth",
        ),
        Workload(
            "citations-default", "citations", 0.2,
            {"w": 200, "batch_size": 40},
            why="citations at the Table-5 defaults (the P3/P4 point)",
        ),
    )
}
