"""The benchmark's own exact Eq. (1)/(2) and imputation-quality scoring.

Nothing here calls ``repro.core.probability`` or ``repro.index.er_grid``: the
oracle tokenizes instance values itself, computes every per-attribute
Jaccard similarity with a matrix product over token-incidence matrices, and
sums Eq. (2) over matching instance pairs without any pruning or early stop.

Scope per micro-batch (what ``ter`` is asked to report): every cross-stream
pair of an arrived tuple with a tuple of (window_before - expired) or with an
earlier tuple of the same batch. Window x window pairs were decided when the
later of the two arrived.
"""
from __future__ import annotations

import numpy as np


def _missing(value) -> bool:
    return value is None or value != value     # None or NaN


def tokens(value) -> frozenset:
    if _missing(value):
        return frozenset()
    return frozenset(t for t in str(value).split() if t)


class _Flat:
    """Instances of a list of tuples, flattened in tuple/instance order."""

    def __init__(self, tuples, keywords: frozenset, d: int):
        self.rid, self.stream, self.p, self.kw, self.tok = [], [], [], [], []
        self.first: list[int] = []            # first instance row per tuple
        for t in tuples:
            self.first.append(len(self.p))
            for inst in t.instances:
                toks = [tokens(inst.attrs[k]) for k in range(d)]
                self.rid.append(int(t.rid))
                self.stream.append(int(t.stream_id))
                self.p.append(float(inst.p))
                self.kw.append(any(keywords & s for s in toks))
                self.tok.append(toks)
        self.first.append(len(self.p))
        self.rid = np.asarray(self.rid, dtype=np.int64)
        self.stream = np.asarray(self.stream, dtype=np.int64)
        self.kw = np.asarray(self.kw, dtype=bool)


def _similarity(a: _Flat, ia: np.ndarray, b: _Flat, ib: np.ndarray, d: int) -> np.ndarray:
    """Eq. (1) for every (a[ia[x]], b[ib[y]]) instance pair: the sum over
    attributes, in attribute order, of |A n B| / |A u B| (0 when both are
    empty)."""
    sim = np.zeros((len(ia), len(ib)))
    for k in range(d):
        vocab: dict[str, int] = {}
        for rows, flat in ((ia, a), (ib, b)):
            for r in rows:
                for t in flat.tok[r][k]:
                    vocab.setdefault(t, len(vocab))

        def incidence(rows, flat):
            m = np.zeros((len(rows), max(1, len(vocab))), dtype=np.float32)
            for x, r in enumerate(rows):
                cols = [vocab[t] for t in flat.tok[r][k]]
                m[x, cols] = 1.0
            return m

        ma, mb = incidence(ia, a), incidence(ib, b)
        inter = np.rint(ma @ mb.T).astype(np.int64)
        union = ma.sum(1).astype(np.int64)[:, None] + mb.sum(1).astype(np.int64)[None, :] - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            jac = np.where(union == 0, 0.0, inter / np.maximum(union, 1))
        sim += jac
    return sim


def batch_pairs(new_tuples, pool_tuples, *, keywords, gamma: float, alpha: float,
                d: int) -> set[frozenset]:
    """Exact Eq. (2) result of one micro-batch: pairs with Pr > alpha."""
    if not new_tuples:
        return set()
    kws = frozenset(keywords)
    new = _Flat(new_tuples, kws, d)
    both = _Flat(list(pool_tuples) + list(new_tuples), kws, d)
    # Only pairs where some side carries a query keyword can match, so the
    # similarity matrix is computed in two blocks that cover exactly those.
    n_kw = np.flatnonzero(new.kw)
    n_no = np.flatnonzero(~new.kw)
    b_all = np.arange(len(both.p))
    b_kw = np.flatnonzero(both.kw)
    matched: set[tuple[int, int]] = set()
    for ia, ib in ((n_kw, b_all), (n_no, b_kw)):
        if len(ia) == 0 or len(ib) == 0:
            continue
        sim = _similarity(new, ia, both, ib, d)
        ok = sim > gamma
        ok &= new.stream[ia][:, None] != both.stream[ib][None, :]
        # the other side must be strictly earlier (window, or earlier arrival)
        ok &= both.rid[ib][None, :] < new.rid[ia][:, None]
        xs, ys = np.nonzero(ok)
        matched.update(zip(ia[xs].tolist(), ib[ys].tolist()))
    if not matched:
        return set()

    # Pr per tuple pair, summed in instance order (later tuple outer).
    t_new = {}
    for x in range(len(new.first) - 1):
        t_new[x] = range(new.first[x], new.first[x + 1])
    row_tuple_b = np.repeat(np.arange(len(both.first) - 1), np.diff(both.first))
    row_tuple_n = np.repeat(np.arange(len(new.first) - 1), np.diff(new.first))
    pairs = {(int(row_tuple_n[i]), int(row_tuple_b[j])) for i, j in matched}
    out: set[frozenset] = set()
    for tn, tb in pairs:
        pr = 0.0
        for i in t_new[tn]:
            for j in range(both.first[tb], both.first[tb + 1]):
                if (i, j) in matched:
                    pr += new.p[i] * both.p[j]
        if pr > alpha:
            out.add(frozenset((int(new.rid[t_new[tn][0]]), int(both.rid[both.first[tb]]))))
    return out


def imputation_quality(tuples, stream_by_rid, complete_by_rid, attr_cols) -> tuple[int, int, float]:
    """(imputed attribute values, top-1 hits, summed mass on the true value).

    For every attribute missing in the stream, the instance set's marginal
    over that attribute is compared with the complete value as a token set.
    """
    n = hits = 0
    mass = 0.0
    for t in tuples:
        row = stream_by_rid[int(t.rid)]
        for k, c in enumerate(attr_cols):
            if not _missing(row[c]):
                continue
            truth = tokens(complete_by_rid[int(t.rid)][c])
            marginal: dict[frozenset, float] = {}
            for inst in t.instances:
                v = tokens(inst.attrs[k])
                marginal[v] = marginal.get(v, 0.0) + inst.p
            n += 1
            if marginal:
                top = max(marginal.items(),
                          key=lambda kv: (kv[1], -len(kv[0]), sorted(kv[0])))[0]
                hits += int(bool(top) and top == truth)
                mass += marginal.get(truth, 0.0) if truth else 0.0
    return n, hits, mass
