"""Pruning strategies — paper Section 4 (Theorems 4.1-4.4, Lemmas 4.1-4.3).

All kernels are pure functions over per-tuple *aggregates* (token-set-size
intervals, pivot-distance intervals and expectations, keyword flags), so they
can be evaluated either row-wise (tests reproduce the paper's Examples 5-7
exactly) or vectorized over arrays of pairs, as the ER-grid candidate
generation does (`numpy` broadcasting: every argument may be a scalar or an
ndarray). This module is the only implementation of these bounds.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "topic_keyword_prune",
    "ub_sim_token_size",
    "ub_sim_pivot",
    "ub_prob_paley_zygmund",
    "instance_pair_bound",
]


def topic_keyword_prune(has_kw_i, has_kw_j):
    """Theorem 4.1: prune pair iff *neither* side can contain a query keyword
    in any instance. Returns True where the pair is PRUNED."""
    return ~(np.asarray(has_kw_i, dtype=bool) | np.asarray(has_kw_j, dtype=bool))


def ub_sim_token_size(tmin_i, tmax_i, tmin_j, tmax_j):
    """Lemma 4.1, per attribute: upper bound of Jaccard similarity from
    token-set-size intervals ``[tmin, tmax]`` of the two (imputed) tuples.

    sim <= tmax_j/tmin_i when tmin_i > tmax_j; symmetric case; else 1.
    """
    tmin_i = np.asarray(tmin_i, dtype=float)
    tmax_i = np.asarray(tmax_i, dtype=float)
    tmin_j = np.asarray(tmin_j, dtype=float)
    tmax_j = np.asarray(tmax_j, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ub = np.where(
            tmin_i > tmax_j,
            tmax_j / tmin_i,
            np.where(tmax_i < tmin_j, tmax_i / tmin_j, 1.0),
        )
    # Size-0 token sets (e.g. imputation found nothing): similarity is 0.
    return np.where((tmax_i == 0) | (tmax_j == 0), 0.0, ub)


def ub_sim_pivot(lb_x, ub_x, lb_y, ub_y):
    """Lemma 4.2, per attribute: ``min_dist`` between two tuples given their
    pivot-distance intervals ``X in [lb_x, ub_x]``, ``Y in [lb_y, ub_y]``.

    The tuple-level bound is ``d - sum_k min_dist_k``; callers sum over
    attributes themselves.
    """
    lb_x = np.asarray(lb_x, dtype=float)
    ub_x = np.asarray(ub_x, dtype=float)
    lb_y = np.asarray(lb_y, dtype=float)
    ub_y = np.asarray(ub_y, dtype=float)
    return np.where(
        lb_x > ub_y, lb_x - ub_y, np.where(lb_y > ub_x, lb_y - ub_x, 0.0)
    )


def ub_prob_paley_zygmund(d, gamma, e_x, e_y, lb_x, ub_x, lb_y, ub_y):
    """Lemma 4.3: Paley-Zygmund upper bound on ``Pr_TER-iDS(r_i, r_j)`` from
    the expectation/bounds of summed pivot distances X, Y of the two tuples.

    Vectorized; returns 1.0 where neither branch condition holds.
    """
    e_x = np.asarray(e_x, dtype=float)
    e_y = np.asarray(e_y, dtype=float)
    lb_x = np.asarray(lb_x, dtype=float)
    ub_x = np.asarray(ub_x, dtype=float)
    lb_y = np.asarray(lb_y, dtype=float)
    ub_y = np.asarray(ub_y, dtype=float)
    t = float(d) - float(gamma)

    with np.errstate(divide="ignore", invalid="ignore"):
        theta_xy = t / (e_x - e_y)          # branch 1: X - Y >= 0
        denom_xy = ub_x - lb_y
        b1 = 1.0 - (1.0 - theta_xy) ** 2 * (e_x - e_y) / denom_xy
        cond1 = (lb_x >= ub_y) & (theta_xy >= 0) & (theta_xy <= 1) & (denom_xy > 0)

        theta_yx = t / (e_y - e_x)          # branch 2: Y - X >= 0
        denom_yx = ub_y - lb_x
        b2 = 1.0 - (1.0 - theta_yx) ** 2 * (e_y - e_x) / denom_yx
        cond2 = (lb_y >= ub_x) & (theta_yx >= 0) & (theta_yx <= 1) & (denom_yx > 0)

    out = np.where(cond1, b1, np.where(cond2, b2, 1.0))
    return np.clip(out, 0.0, 1.0)


def instance_pair_bound(sum_pr_checked, sum_mass_checked):
    """Theorem 4.4: upper bound of the full TER-iDS probability after having
    exactly evaluated a subset S of instance pairs.

    ``sum_pr_checked``  = sum over S of p_i*p_j*chi(match)
    ``sum_mass_checked``= sum over S of p_i*p_j
    Remaining (unchecked) mass is overestimated as all-matching.
    """
    return np.asarray(sum_pr_checked, dtype=float) + (
        1.0 - np.asarray(sum_mass_checked, dtype=float)
    )
