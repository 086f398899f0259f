"""Parameter settings for TER-iDS (paper Table 5).

``TERConfig`` holds every knob of the TER-iDS problem statement and of the
experimental grid. Defaults are the paper's bold defaults; sweeps vary one
field at a time (``replace(cfg, alpha=0.8)``).
"""
from dataclasses import dataclass, replace

#: Paper Table 5 — the full sweep grid (bold default first in DESIGN.md text).
PARAM_GRID = {
    "alpha": [0.1, 0.2, 0.5, 0.8, 0.9],
    "rho": [0.3, 0.4, 0.5, 0.6, 0.7],
    "xi": [0.1, 0.2, 0.3, 0.4, 0.5, 0.8],
    "w": [500, 800, 1000, 2000, 3000],
    "eta": [0.1, 0.2, 0.3, 0.4, 0.5],
    "m": [1, 2, 3],
}

#: Paper Table 5 bold defaults.
DEFAULTS = {"alpha": 0.5, "rho": 0.5, "xi": 0.1, "w": 1000, "eta": 0.3, "m": 1}


@dataclass(frozen=True)
class TERConfig:
    """TER-iDS problem + experiment parameters.

    Attributes mirror the paper's notation: ``alpha`` is the probabilistic
    threshold, ``rho`` the ratio of the similarity threshold ``gamma = rho*d``
    w.r.t. dimensionality, ``xi`` the missing rate, ``w`` the sliding-window
    size, ``eta`` the repository-size ratio |R|/stream, ``m`` the number of
    missing attributes per incomplete tuple.
    """

    d: int = 5                      # number of textual attributes
    alpha: float = 0.5              # probabilistic threshold (Eq. 2)
    rho: float = 0.5                # gamma = rho * d
    xi: float = 0.1                 # missing rate of tuples in the stream
    w: int = 1000                   # sliding window size (count-based)
    eta: float = 0.3                # |R| / stream-size ratio
    m: int = 1                      # number of missing attributes per tuple
    # --- engineering knobs (not in the paper's grid) ---
    # Arrivals per stream per micro-batch (DESIGN.md §2.2). 200 (=400
    # arrivals/step with two streams) replaces a fifth of the default window
    # per step.
    batch_size: int = 200
    max_instances: int = 8          # cap on probabilistic instances per tuple
    # |K|: query topic keyword set size. With topic_frac=0.19 of entities
    # carrying one of 20 topics, K=10 puts per-tuple keyword selectivity at
    # ~9.5% and pair-level topic pruning at ~82% — the paper's Fig.-4 regime
    # (77.5%-86.5%).
    n_topic_keywords: int = 10
    pivot_buckets: int = 10         # P in Eq. (5) entropy
    pivot_emin: float = 1.5         # eMin in Appendix B
    pivot_cnt_max: int = 3          # cntMax in Appendix B
    seed: int = 7

    @property
    def gamma(self) -> float:
        """Similarity threshold gamma = rho * d (paper Table 5)."""
        return self.rho * self.d

    def with_(self, **kw) -> "TERConfig":
        """Return a copy with some fields replaced (sweep helper)."""
        return replace(self, **kw)
