"""CDD / DD / editing-rule detection from the repository R (paper §2.2).

Following the literature the paper cites ([19, 41, 35, 12]), rules of the
form ``A_x -> A_j`` are fit from pairwise distance profiles of repository
samples:

1. **Pair sampling (driver)**: repository tuples are paired inside random
   blocks and locality blocks (a sampled subset of the quadratic pair space,
   listed straight from the block assignment), and for every sampled pair
   the per-attribute Jaccard distances are computed with
   :mod:`repro.core.similarity` (the profile is small: ~12 pairs per tuple).
2. **DD fitting (numpy)**: for each (determinant x, dependent j), the largest
   determinant radius ``eps`` on a grid such that the conditional dependent
   distance stays within an acceptable interval (95th percentile <= tau)
   yields a DD ``A_x -> A_j, {[0, eps], [0, ub]}``.
3. **CDD refinement**: the determinant range is split into bands with
   ``eps.min > 0`` (the paper's relaxation) and per-band two-sided dependent
   intervals — tighter rules than the parent DD.
4. **Editing-rule fallback** (paper: "if any determinant attributes cannot
   accurately impute A_j ... adopt editing rule"): exact-match constraint,
   encoded as the degenerate interval [0, 0] (token-set equality).
5. **Lattice level 2**: the two best single-determinant rules per dependent
   are conjoined via :func:`repro.core.cdd.combine_rules`.

``detect_rules(..., flavor=...)`` returns the rule set for TER-iDS/CDD
("cdd"), the looser-interval DD baseline ("dd"), or editing rules only
("er").
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.cdd import CDDRule, Constraint, combine_rules
from repro.core.similarity import jaccard_dist, tokens
from repro.streams.stream_gen import ATTR_COLS, D

#: acceptable dependent-interval width (paper: "acceptable interval")
TAU_CDD = 0.50
TAU_DD = 0.70
#: separation point between the "dependent follows determinant" low mode and
#: coincidental cross-entity contamination in conditional distance profiles
_TAU_SEP = 0.6
#: minimum confidence: fraction of conditional mass in the low mode
_MIN_CONF = 0.75
_EPS_GRID = np.arange(0.15, 0.85, 0.05)


#: Murmur3_x86_32 constants (Spark's ``Murmur3_x86_32``; seed 42 in ``hash()``)
_C1, _C2 = np.uint32(0xCC9E2D51), np.uint32(0x1B873593)
_F1, _F2 = np.uint32(0x85EBCA6B), np.uint32(0xC2B2AE35)
_N, _SEED = np.uint32(0xE6546B64), np.uint32(42)


def _mix_k1(k: np.ndarray) -> np.ndarray:
    k = k * _C1
    return ((k << 15) | (k >> 17)) * _C2


def _mix_h1(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    h = h ^ k
    return ((h << 13) | (h >> 19)) * np.uint32(5) + _N


def spark_hash_long(x: np.ndarray) -> np.ndarray:
    """Spark SQL's ``hash()`` of a long column (``Murmur3_x86_32.hashLong``,
    seed 42) over an int64 array, as int32. uint32 arithmetic wraps as Java's
    int does, and ``>>`` on uint32 is Java's ``>>>``."""
    u = np.asarray(x, dtype=np.int64).view(np.uint64)
    h = _mix_h1(np.full(u.shape, _SEED), _mix_k1((u & 0xFFFFFFFF).astype(np.uint32)))
    h = _mix_h1(h, _mix_k1((u >> 32).astype(np.uint32)))
    h = h ^ np.uint32(8)                       # fmix with length 8
    h = (h ^ (h >> 16)) * _F1
    h = (h ^ (h >> 13)) * _F2
    return (h ^ (h >> 16)).view(np.int32)


def _block_pairs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every unordered pair of rows sharing a ``key``, once, as row-index
    arrays, listed per block without testing pairs across blocks."""
    order = np.argsort(key, kind="stable")
    k = key[order]
    n = len(k)
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    ends = np.repeat(np.r_[starts[1:], n], np.diff(np.r_[starts, n]))
    later = ends - np.arange(n) - 1        # rows after each position in its block
    left = np.repeat(np.arange(n), later)
    first = np.cumsum(later) - later       # where each position's pairs start
    right = left + 1 + np.arange(len(left)) - np.repeat(first, later)
    return order[left], order[right]


def sample_pair_profile(
    spark, repo: pd.DataFrame, *, n_blocks: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Sampled pairwise per-attribute Jaccard distances from R, on the driver.

    Two pair strata are unioned, as in similarity-join-based rule discovery:
    *random blocks* (block size ~16; background distance distribution) and
    *locality blocks* (consecutive sids; repositories list near-duplicate
    records nearby, so these blocks surface the similar pairs that carry the
    dependency signal). Pair count is bounded at roughly ``|R| * 12``.

    A pair ``(l, r)`` with ``l.sid < r.sid`` is kept once when it shares
    either block. The blocks are those of the Spark SQL expressions
    ``pmod(hash(sid + seed), n_blocks)`` and ``cast(sid / 8 as int)``, so the
    rows equal those of the equivalent Spark join. Rows are in (l, r)
    repository order. Values are tokenized by ``tokens`` (``str.split()``);
    Spark's ``split(value, " ")`` differs only on whitespace other than the
    space, which generated values do not hold.

    ``spark`` is unread; it stays until the benchmark change of ROADMAP item 5.
    """
    if n_blocks is None:
        n_blocks = max(1, len(repo) // 16)
    sid = repo["sid"].to_numpy(dtype=np.int64)
    blk = spark_hash_long(sid + seed).astype(np.int64) % n_blocks   # pmod
    lblk = (sid / 8).astype(np.int64)               # cast truncates toward 0
    a1, b1 = _block_pairs(blk)
    a2, b2 = _block_pairs(lblk)
    once = blk[a2] != blk[b2]        # pairs sharing both blocks are in a1/b1
    a, b = np.r_[a1, a2[once]], np.r_[b1, b2[once]]
    swap = sid[a] > sid[b]
    lo, hi = np.where(swap, b, a), np.where(swap, a, b)
    keep = sid[lo] < sid[hi]
    lo, hi = lo[keep], hi[keep]
    order = np.lexsort((hi, lo))
    lo, hi = lo[order].tolist(), hi[order].tolist()
    prof = {}
    for k, c in enumerate(ATTR_COLS):
        toks = [tokens(v) for v in repo[c].tolist()]
        prof[f"d{k}"] = np.array(
            [jaccard_dist(toks[i], toks[j]) for i, j in zip(lo, hi)], dtype=np.float64)
    return pd.DataFrame(prof)


def _fit_single(
    profile: pd.DataFrame, x: int, j: int, *, tau: float, bands: bool
) -> list[CDDRule]:
    """Fit interval rules ``A_x -> A_j`` from the pair profile."""
    dx = profile[f"d{x}"].to_numpy()
    dj = profile[f"d{j}"].to_numpy()

    def fit_ub(sel: np.ndarray) -> float | None:
        """Dependent-interval upper bound of the dominant low mode, or None
        if the conditional profile lacks support, confidence, or tightness
        (support/confidence-style discovery, cf. DD discovery [35])."""
        if len(sel) < 10:
            return None
        low = sel[sel <= _TAU_SEP]
        if len(low) / len(sel) < _MIN_CONF:
            return None
        ub = float(np.quantile(low, 0.90))
        return ub if ub <= tau else None

    best_eps, ub = None, None
    for eps in _EPS_GRID[::-1]:          # largest radius first
        got = fit_ub(dj[dx <= eps])
        if got is not None:
            best_eps, ub = float(eps), got
            break
    if best_eps is None:
        return []
    rules: list[CDDRule] = []
    # The parent DD: [0, eps] -> [0, ub].
    rules.append(
        CDDRule(j, (Constraint(x, interval=(0.0, best_eps)),), (0.0, max(ub, 1e-6)))
    )
    if bands and best_eps > 0.2:
        # CDD refinement: two bands with eps.min > 0 and two-sided dependent
        # intervals (tighter than the DD on each band).
        mid = best_eps / 2
        for lo, hi in ((0.0, mid), (mid, best_eps)):
            band = dj[(dx >= lo) & (dx <= hi)]
            band = band[band <= _TAU_SEP]       # fit the dominant low mode
            if len(band) < 10:
                continue
            dep_lo = float(np.quantile(band, 0.02))
            dep_hi = float(np.quantile(band, 0.90))
            if dep_hi - dep_lo >= ub:
                continue                  # not tighter than the parent
            rules.append(
                CDDRule(
                    j,
                    (Constraint(x, interval=(lo, hi) if lo > 0 else (0.0, hi)),),
                    (dep_lo, max(dep_hi, dep_lo + 1e-6)),
                )
            )
    return rules


def _editing_rules(profile: pd.DataFrame, j: int, *, tau: float = TAU_CDD) -> list[CDDRule]:
    """Editing-rule fallback [12]: exact determinant equality (the degenerate
    interval [0,0]) with a tight dependent interval — editing rules produce
    "certain fixes", i.e. fill with (values equal or near-equal to) the
    matching sample's dependent value."""
    rules = []
    for x in range(D):
        if x == j:
            continue
        dx = profile[f"d{x}"].to_numpy()
        dj = profile[f"d{j}"].to_numpy()
        sel = dj[dx == 0.0]
        ub = float(np.quantile(sel, 0.5)) if len(sel) >= 5 else 0.0
        rules.append(
            CDDRule(j, (Constraint(x, interval=(0.0, 0.0)),), (0.0, min(ub, tau)))
        )
    return rules


def detect_rules(
    repo: pd.DataFrame,
    *,
    flavor: str = "cdd",
    tau: float | None = None,
    seed: int = 0,
    profile: pd.DataFrame | None = None,
) -> dict[int, list[CDDRule]]:
    """Detect imputation rules for every dependent attribute.

    Returns ``{dependent_attr: [rules]}``. ``flavor``:
    - ``"cdd"``: banded CDDs + editing fallback + level-2 lattice rules;
    - ``"dd"``:  plain DDs with looser tau (the DD+ER baseline);
    - ``"er"``:  editing rules only (the er+ER baseline).
    """
    if profile is None:
        profile = sample_pair_profile(None, repo, seed=seed)
    out: dict[int, list[CDDRule]] = {}
    for j in range(D):
        rules: list[CDDRule] = []
        if flavor == "er":
            rules = _editing_rules(profile, j)
        else:
            t = tau if tau is not None else (TAU_DD if flavor == "dd" else TAU_CDD)
            for x in range(D):
                if x == j:
                    continue
                rules.extend(
                    _fit_single(profile, x, j, tau=t, bands=(flavor == "cdd"))
                )
            if flavor == "cdd":
                if not rules:
                    rules = _editing_rules(profile, j)
                else:
                    # Level-2 lattice: conjoin the two tightest level-1 rules
                    # on distinct determinants.
                    lvl1 = sorted(
                        (r for r in rules if r.level == 1),
                        key=lambda r: r.dep_interval[1] - r.dep_interval[0],
                    )
                    seen: dict[int, CDDRule] = {}
                    for r in lvl1:
                        seen.setdefault(r.determinants[0], r)
                        if len(seen) == 2:
                            break
                    if len(seen) == 2:
                        a, b = seen.values()
                        try:
                            rules.append(combine_rules(a, b))
                        except ValueError:
                            pass
        out[j] = rules
    return out
