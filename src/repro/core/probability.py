"""Exact TER-iDS probability (paper Eq. 2) with Theorem-4.4 early stopping.

The refinement phase evaluates, for a candidate tuple pair, the probability
mass of instance pairs that contain a topic keyword and exceed the similarity
threshold. Instances are (value-tuple, probability) pairs produced by the
imputation phase (complete tuples have a single instance with p = 1).

:func:`pr_ter_ids_batch` is the one implementation: it evaluates a whole
list of tuple pairs at once over their flattened instance pairs, with each
token set read as sorted int ids. ``ter``'s refinement, the baselines' exact
ER and the Eq. (2) truth all call it once per micro-batch.
"""
from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.pruning import instance_pair_bound
from repro.core.similarity import token_id, tokens

#: An instance's token codes are ``k << _ID_BITS | id`` for attribute k
#: (k < 16) and token id (below 2**28), stored as uint32.
_ID_BITS = 28

#: Margin of the partial-sum test that abandons an instance pair's Eq. (1)
#: sum early (see ``_similarity``).
_ABANDON_MARGIN = 1e-9


class Instance:
    """One probabilistic instance of an imputed tuple (Def. 4).

    ``attrs``: d attribute values (token strings); ``p``: existence
    probability. Cached derived state: ``token_sets``; ``has_kw``, whether
    any attribute holds a query keyword; and, for the Eq. (2) kernel,
    ``codes``: every token's id (``token_id``) tagged with its attribute k
    as ``k << _ID_BITS | id``, ascending, as the bytes of a uint32 array.
    """

    __slots__ = ("attrs", "p", "token_sets", "has_kw", "codes")

    def __init__(self, attrs: Sequence[str | None], p: float, keywords=frozenset()):
        self.attrs = tuple(attrs)
        self.p = float(p)
        self.token_sets = tuple(map(tokens, self.attrs))
        self.has_kw = any(not s.isdisjoint(keywords) for s in self.token_sets)
        self.codes = array("I", sorted([
            k << _ID_BITS | token_id(t) for k, s in enumerate(self.token_sets) for t in s
        ])).tobytes()


class _Flat:
    """The instances of a list of instance sets as columns, set after set.

    Set ``s`` owns rows ``first[s]:first[s + 1]``. The tokens of row ``r``'s
    attribute ``k`` are ``keys[aoff[r, k]:aoff[r, k] + sizes[r, k]]``, where
    a key is ``(r * d + k) << _ID_BITS | id``, so ``keys`` ascends.
    """

    def __init__(self, sets: Sequence[Sequence[Instance]]):
        insts = list(chain.from_iterable(sets))
        n = len(insts)
        self.first = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in sets], out=self.first[1:])
        self.p = np.fromiter((i.p for i in insts), dtype=float, count=n)
        self.kw = np.fromiter((i.has_kw for i in insts), dtype=bool, count=n)
        self.d = len(insts[0].attrs) if insts else 0
        codes = np.frombuffer(b"".join(i.codes for i in insts), dtype=np.uint32)
        tot = np.fromiter((len(i.codes) >> 2 for i in insts), dtype=np.int64, count=n)
        self.keys = codes + ((np.repeat(np.arange(n), tot) * self.d) << _ID_BITS)
        flat = np.bincount(self.keys >> _ID_BITS, minlength=n * self.d)
        self.sizes = flat.reshape(n, self.d)
        self.aoff = (np.cumsum(flat) - flat).reshape(n, self.d)


def _expand(counts: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each ``x``, the ``counts[x]`` consecutive indices from
    ``starts[x]``: (owner ``x`` per index, index)."""
    owner = np.repeat(np.arange(len(counts)), counts)
    base = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) + (starts - base)[owner]


def _instance_pairs(first: np.ndarray, li: np.ndarray, ri: np.ndarray):
    """The instance pairs of tuple pairs ``(li[x], ri[x])`` of a ``_Flat``
    with set offsets ``first``, in double-loop order, ``li`` outer:
    (instance pairs per tuple pair, tuple pair, row of each side)."""
    nb = np.diff(first)[ri]
    n_ip = np.diff(first)[li] * nb
    pair, pos = _expand(n_ip, np.zeros(len(li), dtype=np.int64))
    outer, inner = np.divmod(pos, nb[pair])
    return n_ip, pair, first[li][pair] + outer, first[ri][pair] + inner


def _intersections(f: _Flat, a: np.ndarray, b: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """``|A_k ∩ B_k|`` of instance rows ``a[x]`` and ``b[x]`` for attributes
    ``k0 <= k < k1``, shape ``(len(a), k1 - k0)``: the tokens of the side
    with fewer tokens in those attributes, looked up among the other side's
    (a ``searchsorted`` over ``f.keys``)."""
    d, width = f.d, k1 - k0
    n_a, n_b = (f.aoff[r, k1 - 1] + f.sizes[r, k1 - 1] - f.aoff[r, k0] for r in (a, b))
    swap = n_b < n_a
    x, y = np.where(swap, b, a), np.where(swap, a, b)
    # searchsorted is fastest on ascending needles: probe row y after row y
    by_y = np.argsort(y, kind="stable")
    x, y = x[by_y], y[by_y]
    owner, ent = _expand(np.minimum(n_a, n_b)[by_y], f.aoff[x, k0])
    probe = f.keys[ent] + ((y - x) * (d << _ID_BITS))[owner]
    found = f.keys[np.minimum(np.searchsorted(f.keys, probe), len(f.keys) - 1)] == probe
    attr = (probe[found] >> _ID_BITS) % d - k0
    inter = np.empty((len(a), width), dtype=np.int64)
    inter[by_y] = np.bincount(owner[found] * width + attr,
                              minlength=len(a) * width).reshape(len(a), width)
    return inter


def _similarity(f: _Flat, a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Whether Eq. (1) of instance rows ``a[x]`` and ``b[x]`` exceeds
    ``gamma``, for every ``x``.

    The Jaccard terms ``|A∩B| / (|A| + |B| - |A∩B|)`` are added to a running
    sum one attribute at a time in attribute order, as ``sum`` over
    ``jaccard`` adds them, so every finished sum is bit-equal to the scalar
    one.

    Before attribute k, a pair whose partial sum ``s`` has
    ``s + (d - k) <= gamma - _ABANDON_MARGIN`` is abandoned. Every further
    term is at most 1, so the exact sum of ``s`` and the remaining terms is
    at most ``s + (d - k)``; each of the at most d float additions rounds a
    value of at most d up by at most ``d * 2**-53``, so the computed sum
    exceeds that by less than ``d**2 * 2**-53`` (3e-15 at d = 5), far below
    the margin, and cannot exceed ``gamma``.
    No pair can be abandoned before attribute ``k_min`` (where
    ``d - k <= gamma - _ABANDON_MARGIN`` first holds), so the intersections
    of attributes ``0..k_min-1`` are found in one probe, and those of each
    later attribute in a probe of its own, over the pairs still live.
    """
    d = f.d
    s = np.zeros(len(a))
    if not len(a):
        return s > gamma
    k_min = min(d, max(1, math.ceil(d - gamma + _ABANDON_MARGIN)))
    live = np.arange(len(a))
    for k0, k1 in zip([0, *range(k_min, d)], range(k_min, d + 1)):
        live = live[s[live] + (d - k0) > gamma - _ABANDON_MARGIN]
        inter = _intersections(f, a[live], b[live], k0, k1)
        union = f.sizes[a[live], k0:k1] + f.sizes[b[live], k0:k1] - inter
        jac = np.divide(inter, union, out=np.zeros(union.shape), where=union > 0)
        for k in range(k1 - k0):
            s[live] += jac[:, k]
    return s > gamma


def pr_ter_ids_batch(
    sets: Sequence[Sequence[Instance]],
    left: np.ndarray,
    right: np.ndarray,
    gamma: float,
    alpha: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (2) for every tuple pair ``(sets[left[x]], sets[right[x]])``.

    Returns ``(pr, stopped)``, one entry per pair. ``pr`` is
    ``sum_{m,m'} p_m p_m' chi((kw_m or kw_m') and sim > gamma)`` over the
    instance pairs, summed in the order of a double loop (``left`` outer).

    When ``alpha`` is given, Theorem 4.4 is applied after every instance
    pair in that order: the pair is accepted as soon as the matching mass
    exceeds ``alpha``, and rejected as soon as even counting all unchecked
    mass as matching cannot exceed it (``instance_pair_bound``). ``pr`` is
    then the mass accumulated so far, which is only guaranteed to be on the
    correct side of ``alpha``, and ``stopped`` marks the rejections made
    before the last instance pair: the paper's fourth pruning stage,
    "instance-pair-level pruning", counts exactly these.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    n = len(left)
    acc = np.zeros(n)
    stopped = np.zeros(n, dtype=bool)
    if n == 0:
        return acc, stopped
    used = np.zeros(len(sets), dtype=bool)
    used[left] = used[right] = True
    f = _Flat([sets[i] for i in np.flatnonzero(used)])
    row_of = np.cumsum(used) - 1
    n_ip, pair, ia, ib = _instance_pairs(f.first, row_of[left], row_of[right])
    mass = f.p[ia] * f.p[ib]
    gate = np.flatnonzero((mass > 0) & (f.kw[ia] | f.kw[ib]))
    match = np.zeros(len(mass), dtype=bool)
    match[gate] = _similarity(f, ia[gate], ib[gate], gamma)
    if alpha is None:
        # Adding an unmatched instance pair's 0.0 leaves a sum as it is, so
        # only the matched ones are added, in position order: round r adds
        # the r-th match of every pair.
        e = np.flatnonzero(match)
        rank = np.arange(len(e)) - np.searchsorted(pair[e], pair[e])
        for r in range(int(rank.max(initial=-1)) + 1):
            acc[pair[e[rank == r]]] += mass[e[rank == r]]
        return acc, stopped

    hit = np.where(match, mass, 0.0)
    start = np.cumsum(n_ip) - n_ip
    checked = np.zeros(n)
    live = np.flatnonzero(n_ip > 0)
    step = 0
    while len(live):
        acc[live] += hit[start[live] + step]
        checked[live] += mass[start[live] + step]
        step += 1
        accept = acc[live] > alpha
        reject = ~accept & (instance_pair_bound(acc[live], checked[live]) <= alpha)
        last = n_ip[live] == step
        stopped[live[reject & ~last]] = True
        live = live[~(accept | reject | last)]
    return acc, stopped


def pr_ter_ids(
    inst_i: Sequence[Instance],
    inst_j: Sequence[Instance],
    gamma: float,
    alpha: float | None = None,
) -> float:
    """Eq. (2) of one tuple pair: :func:`pr_ter_ids_batch`'s ``pr``."""
    return pr_ter_ids_detail(inst_i, inst_j, gamma, alpha)[0]


def pr_ter_ids_detail(
    inst_i: Sequence[Instance],
    inst_j: Sequence[Instance],
    gamma: float,
    alpha: float | None = None,
) -> tuple[float, bool]:
    """Eq. (2) of one tuple pair: :func:`pr_ter_ids_batch`'s
    ``(pr, stopped)``."""
    pr, stopped = pr_ter_ids_batch([inst_i, inst_j], [0], [1], gamma, alpha)
    return float(pr[0]), bool(stopped[0])
