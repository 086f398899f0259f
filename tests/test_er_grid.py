"""ER-grid tests: cell codes, cell aggregates, pruning safety, and stage
attribution against a row-wise reference.

The crucial property is *safety*: no pair that the exact Eq. (2) refinement
would accept may be pruned by the grid pipeline (index pruning admits false
positives, never false negatives).
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PARAM_GRID, TERConfig
from repro.core.instances import aggregates_frame, build_imputed_tuple
from repro.core.probability import pr_ter_ids
from repro.index.er_grid import (
    PruneStats,
    cell_codes,
    generate_candidates,
    newnew_candidates,
    occupied_cells,
)
from repro.core import pruning as PR
from repro.streams.stream_gen import D

KW = ["topic00", "topic01"]
PIV = [frozenset({"p", "q"})] * D


def _tup(rid, sid, cands):
    return build_imputed_tuple(rid, sid, cands, topics=KW, pivot_tokens=PIV)


def _window(tuples, cells_per_dim=4):
    """Window aggregate columns with each member's cell code, as the window
    state holds them."""
    aggs = aggregates_frame(tuples)
    return {**aggs, "cell": cell_codes(aggs, cells_per_dim)}


def assign_cells(aggs: pd.DataFrame, cells_per_dim: int) -> pd.Series:
    """Reference cell id: the quantized per-attribute lb distances as a
    string ``"b0|b1|...|b{d-1}"``."""
    parts = []
    for k in range(D):
        b = np.clip(
            (aggs[f"lb{k}"].to_numpy() * cells_per_dim).astype(int),
            0,
            cells_per_dim - 1,
        )
        parts.append(b.astype(str))
    out = parts[0]
    for p in parts[1:]:
        out = np.char.add(np.char.add(out, "|"), p)
    return pd.Series(out, index=aggs.index)


def build_cells(members: pd.DataFrame) -> pd.DataFrame:
    """Reference cell aggregate table (a pandas groupby) from a member frame
    that has ``cell`` assigned."""
    agg_spec = {"kw_any": ("kw_mask", lambda s: int((s != 0).any()))}
    for k in range(D):
        agg_spec[f"clb{k}"] = (f"lb{k}", "min")
        agg_spec[f"cub{k}"] = (f"ub{k}", "max")
        agg_spec[f"ctmin{k}"] = (f"tmin{k}", "min")
        agg_spec[f"ctmax{k}"] = (f"tmax{k}", "max")
    cells = members.groupby("cell").agg(**agg_spec).reset_index()
    counts = (
        members.groupby(["cell", "stream_id"]).size().unstack(fill_value=0)
    )
    for s in (0, 1):
        cells[f"n{s}"] = counts.get(s, pd.Series(0, index=counts.index)).reindex(
            cells["cell"]
        ).fillna(0).to_numpy(dtype=int)
    return cells


def _cell_id(code, cells_per_dim):
    """The reference string id of an integer cell code."""
    return "|".join(str(code // cells_per_dim**k % cells_per_dim) for k in range(D))


@pytest.fixture(scope="module")
def population():
    """A small mixed population: matches, non-matches, keyword-free pairs,
    probabilistic tuples."""
    rng = np.random.default_rng(5)
    vocab = [f"t{i}" for i in range(30)]
    tuples = []
    rid = 0
    for i in range(24):
        base = [
            " ".join(rng.choice(vocab, size=4, replace=False)) for _ in range(D)
        ]
        has_kw = i % 3 == 0
        if has_kw:
            base[0] += " topic00"
        for sid in (0, 1):
            if sid == 1 and i % 2 == 0:
                # stream-1 twin: slight perturbation -> a planted match
                attrs = [v + " zz" if k == 2 else v for k, v in enumerate(base)]
            else:
                attrs = [
                    " ".join(rng.choice(vocab, size=4, replace=False))
                    for _ in range(D)
                ]
                if has_kw and sid == 1:
                    attrs[0] += " topic00"
            if i % 5 == 0:
                # probabilistic: two instances
                alt = list(attrs)
                alt[1] = " ".join(rng.choice(vocab, size=3, replace=False))
                cands = [(tuple(attrs), 0.6), (tuple(alt), 0.4)]
            else:
                cands = [(tuple(attrs), 1.0)]
            tuples.append(_tup(rid, sid, cands))
            rid += 1
    return tuples


def brute_force_accepts(tuples_new, tuples_win, gamma, alpha):
    out = set()
    for a in tuples_new:
        for b in tuples_win:
            if a.stream_id == b.stream_id:
                continue
            if pr_ter_ids(a.instances, b.instances, gamma) > alpha:
                out.add(frozenset((a.rid, b.rid)))
    return out


@pytest.fixture(scope="module")
def varied():
    """Tuples whose token-set sizes and main-pivot distances vary, so the
    similarity stage (Lemmas 4.1/4.2) prunes at cell and at tuple level.

    Three families per attribute: few tokens mostly drawn from the pivot
    (small sets, pivot distance 0.25-0.6), a handful of non-pivot tokens
    (distance 1) and many non-pivot tokens (distance 0.8-1). The last two
    share grid cells, so a cell can pass while some of its members fail.
    Half the tuples carry a keyword, stream-1 twins of some tuples are
    planted matches, and every fourth tuple carries two instances."""
    rng = np.random.default_rng(3)
    piv = ["p0", "p1", "p2", "p3"]
    vocab = [f"v{i}" for i in range(40)]
    shapes = {"small": ((2, 3), (0, 1)), "mid": ((0, 0), (3, 4)),
              "large": ((0, 1), (8, 10))}

    def value(family):
        (pa, pb), (oa, ob) = shapes[family]
        toks = list(rng.choice(piv, size=rng.integers(pa, pb + 1), replace=False))
        toks += list(rng.choice(vocab, size=rng.integers(oa, ob + 1), replace=False))
        return " ".join(toks)

    def attrs(family, kw):
        vals = [value(family) for _ in range(D)]
        if kw:
            vals[0] += " topic00"
        return tuple(vals)

    tuples, rid = [], 0
    for i in range(30):
        family = list(shapes)[i % 3]
        base = attrs(family, kw=True)
        for sid in (0, 1):
            if sid == 1 and i % 4 == 0:
                a = base
            else:
                a = attrs(list(shapes)[rng.integers(3)], kw=rng.random() < 0.5)
            if rid % 4 == 3:
                cands = [(a, 0.7), (attrs(family, kw=False), 0.3)]
            else:
                cands = [(a, 1.0)]
            tuples.append(build_imputed_tuple(
                rid, sid, cands, topics=KW, pivot_tokens=[frozenset(piv)] * D))
            rid += 1
    return tuples


def reference_candidates(new, win, *, d, gamma, alpha, cells_per_dim, fused):
    """Row-wise reference for ``generate_candidates``: walk (new, cell)
    pairs, then the surviving cells' (new, member) pairs, with scalar calls
    to the ``core.pruning`` kernels. Returns (pairs, stats, sim prunes per
    level)."""
    waggs = pd.DataFrame(aggregates_frame(win))
    waggs["cell"] = assign_cells(waggs, cells_per_dim)
    by_rid = {t.rid: t for t in win}
    stats, pairs, sim_at = PruneStats(), set(), {"cell": 0, "tuple": 0}

    def sim_ok(tmin_a, tmax_a, lb_a, ub_a, tmin_b, tmax_b, lb_b, ub_b):
        ts = sum(float(PR.ub_sim_token_size(tmin_a[k], tmax_a[k], tmin_b[k], tmax_b[k]))
                 for k in range(D))
        piv = d - sum(float(PR.ub_sim_pivot(lb_a[k], ub_a[k], lb_b[k], ub_b[k]))
                      for k in range(D))
        return ts > gamma and (piv > gamma or not fused)

    for a in new:
        for c in build_cells(waggs).itertuples(index=False):
            elig = c.n1 if a.stream_id == 0 else c.n0
            stats.total += elig
            if PR.topic_keyword_prune(a.kw_mask != 0, c.kw_any != 0):
                stats.pruned_topic += elig
                continue
            cell = [[getattr(c, f"{p}{k}") for k in range(D)]
                    for p in ("ctmin", "ctmax", "clb", "cub")]
            if not sim_ok(a.tmin, a.tmax, a.lb, a.ub, *cell):
                stats.pruned_sim += elig
                sim_at["cell"] += elig
                continue
            for rid in waggs.loc[waggs["cell"] == c.cell, "rid"]:
                b = by_rid[rid]
                if b.stream_id == a.stream_id:
                    continue
                if PR.topic_keyword_prune(a.kw_mask != 0, b.kw_mask != 0):
                    stats.pruned_topic += 1
                elif not sim_ok(a.tmin, a.tmax, a.lb, a.ub, b.tmin, b.tmax, b.lb, b.ub):
                    stats.pruned_sim += 1
                    sim_at["tuple"] += 1
                elif fused and PR.ub_prob_paley_zygmund(
                    d, gamma, sum(a.e), sum(b.e), sum(a.lb), sum(a.ub),
                    sum(b.lb), sum(b.ub),
                ) <= alpha:
                    stats.pruned_prob += 1
                else:
                    pairs.add((a.rid, b.rid))
    return pairs, stats, sim_at


class TestAssignCells:
    def test_deterministic_and_in_range(self, population):
        aggs = aggregates_frame(population)
        codes = cell_codes(aggs, 5)
        assert codes.dtype == np.int64 and len(codes) == len(population)
        assert ((codes >= 0) & (codes < 5**D)).all()
        np.testing.assert_array_equal(codes, cell_codes(aggs, 5))
        # The same cells as the reference's string ids, digit by digit.
        ref = assign_cells(pd.DataFrame(aggs), 5)
        assert [_cell_id(c, 5) for c in codes] == ref.tolist()

    def test_cell_from_lb(self, population):
        aggs = aggregates_frame(population)
        codes = cell_codes(aggs, 5)
        for k in range(D):
            b = int(np.clip(int(aggs[f"lb{k}"][0] * 5), 0, 4))
            assert codes[0] // 5**k % 5 == b


class TestBuildCells:
    def test_aggregates_bound_members(self, varied):
        """Every cell aggregate equals its members' min/max (a looser bound
        would move pairs between pruning stages), and the cells, counts and
        member slices equal the reference groupby's."""
        for cells_per_dim in (2, 4):
            win = _window(varied, cells_per_dim)
            cells, order, size = occupied_cells(win)
            members = pd.DataFrame(win)
            assert len(cells["code"]) == members["cell"].nunique() > 1
            ref = build_cells(members.assign(
                cell=assign_cells(members, cells_per_dim))).set_index("cell")
            assert len(ref) == len(cells["code"])
            start = np.cumsum(size) - size
            for x, code in enumerate(cells["code"]):
                grp = members[members["cell"] == code]
                sl = order[start[2 * x]:start[2 * x] + size[2 * x] + size[2 * x + 1]]
                assert sorted(sl) == grp.index.tolist()
                r = ref.loc[_cell_id(code, cells_per_dim)]
                for k in range(D):
                    assert cells[f"lb{k}"][x] == grp[f"lb{k}"].min() == r[f"clb{k}"]
                    assert cells[f"ub{k}"][x] == grp[f"ub{k}"].max() == r[f"cub{k}"]
                    assert cells[f"tmin{k}"][x] == grp[f"tmin{k}"].min() == r[f"ctmin{k}"]
                    assert cells[f"tmax{k}"][x] == grp[f"tmax{k}"].max() == r[f"ctmax{k}"]
                assert (bool(cells["kw_mask"][x]) == bool((grp["kw_mask"] != 0).any())
                        == bool(r["kw_any"]))
                assert size[2 * x] == (grp["stream_id"] == 0).sum() == r["n0"]
                assert size[2 * x + 1] == (grp["stream_id"] == 1).sum() == r["n1"]
                # Within a cell, stream-0 members come first.
                assert (members["stream_id"].to_numpy()[sl[:size[2 * x]]] == 0).all()


class TestCandidateGeneration:
    CFG = TERConfig(rho=0.5, alpha=0.3)

    def _split(self, population):
        new = population[:16]
        win = population[16:]
        return new, win

    def test_pruning_is_safe(self, population):
        """Every exact accept survives the grid pruning stages."""
        new, win = self._split(population)
        pairs, _ = generate_candidates(
            aggregates_frame(new), _window(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
        )
        surv = {frozenset((r.rid_n, r.rid_m)) for r in pairs.itertuples(index=False)}
        accepts = brute_force_accepts(new, win, self.CFG.gamma, self.CFG.alpha)
        assert accepts <= surv

    def test_stage_counts_partition_total(self, population):
        new, win = self._split(population)
        pairs, st = generate_candidates(
            aggregates_frame(new), _window(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
        )
        assert st.total == sum(
            1
            for a in new
            for b in win
            if a.stream_id != b.stream_id
        )
        assert st.total == st.pruned_topic + st.pruned_sim + st.pruned_prob + len(pairs)

    def test_pruning_removes_keyword_free_pairs(self, population):
        """In this toy population token sizes are uniform and tokens are
        pivot-disjoint, so only Theorem 4.1 can fire — and it must remove
        every pair where neither side carries a keyword (~4/9 of pairs here).
        Dataset-level pruning power (~98%, Fig. 4) is asserted in the
        end-to-end tests / measured by the P1 bench."""
        new, win = self._split(population)
        pairs, st = generate_candidates(
            aggregates_frame(new), _window(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
        )
        no_kw_pairs = sum(
            1
            for a in new
            for b in win
            if a.stream_id != b.stream_id and a.kw_mask == 0 and b.kw_mask == 0
        )
        assert st.pruned_topic >= no_kw_pairs
        assert len(pairs) <= st.total - no_kw_pairs

    def test_disabled_stages_gate(self, population):
        new, win = self._split(population)
        _, st_full = generate_candidates(
            aggregates_frame(new), _window(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
        )
        _, st_base = generate_candidates(
            aggregates_frame(new), _window(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
            fused=False,
        )
        assert st_base.pruned_prob == 0
        assert st_base.survivors >= st_full.survivors

    def test_empty_inputs(self, population):
        p1, s1 = generate_candidates(
            aggregates_frame([]), _window(population[:4]), d=D, gamma=2.5, alpha=0.3
        )
        p2, s2 = generate_candidates(
            aggregates_frame(population[:4]), _window([]), d=D, gamma=2.5, alpha=0.3
        )
        assert p1.empty and p2.empty and s1.total == 0 and s2.total == 0


class TestStageAttribution:
    """The vectorized pass gives the row-wise reference's pair set and
    per-stage counts, on a population where every sim-stage level fires."""

    CFG = TERConfig(rho=0.5, alpha=0.3)

    @pytest.mark.parametrize("fused", [True, False], ids=["ter", "ij_ger"])
    def test_matches_rowwise_reference(self, varied, fused):
        new, win = varied[:24], varied[24:]
        kw = dict(d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha, cells_per_dim=4,
                  fused=fused)
        want, want_st, sim_at = reference_candidates(new, win, **kw)
        assert sim_at["cell"] > 0 and sim_at["tuple"] > 0
        kw.pop("cells_per_dim")
        pairs, st = generate_candidates(aggregates_frame(new), _window(win, 4), **kw)
        assert set(zip(pairs["rid_n"], pairs["rid_m"])) == want
        assert st == want_st

    def test_safe(self, varied):
        """Sim-stage pruning at cell and tuple level keeps every exact accept."""
        new, win = varied[:24], varied[24:]
        pairs, _ = generate_candidates(
            aggregates_frame(new), _window(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
        )
        surv = {frozenset(p) for p in zip(pairs["rid_n"], pairs["rid_m"])}
        assert brute_force_accepts(new, win, self.CFG.gamma, self.CFG.alpha) <= surv


PROP_PIVOTS = [frozenset({"p0", "p1", "p2"})] * D
PROP_TOKENS = ["p0", "p1", "p2", "topic00"] + [f"v{i}" for i in range(8)]


@st.composite
def multi_instance_tuples(draw):
    """2-14 tuples on random streams, each with 1-3 weighted instances whose
    attribute values are random token sets over pivot, keyword and plain
    tokens. A tuple may copy another's first instance with one attribute
    redrawn, so some pairs pass Eq. (2)."""
    value = st.lists(st.sampled_from(PROP_TOKENS), min_size=1, max_size=6,
                     unique=True).map(" ".join)
    fresh = st.tuples(*[value] * D)
    tuples = []
    for rid in range(draw(st.integers(2, 14))):
        weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
        cands = []
        for w in weights:
            attrs = draw(fresh)
            if tuples and draw(st.booleans()):
                base = list(draw(st.sampled_from(tuples)).instances[0].attrs)
                base[draw(st.integers(0, D - 1))] = attrs[0]
                attrs = tuple(base)
            cands.append((attrs, w / sum(weights)))
        tuples.append(build_imputed_tuple(rid, draw(st.integers(0, 1)), cands,
                                          topics=KW, pivot_tokens=PROP_PIVOTS))
    return tuples


class TestPruningSafetyProperty:
    """Over random multi-instance tuples and the Table-5 regimes of rho and
    alpha, neither candidate generator drops a pair that exact Eq. (2)
    accepts, with or without the fused stages, and the stage counts
    partition the cross-stream pairs."""

    @settings(max_examples=60, deadline=None)
    @given(tuples=multi_instance_tuples(), split=st.integers(1, 13),
           rho=st.sampled_from(PARAM_GRID["rho"]),
           alpha=st.sampled_from(PARAM_GRID["alpha"]),
           fused=st.booleans(), cells_per_dim=st.integers(2, 5))
    def test_no_false_dismissal(self, tuples, split, rho, alpha, fused, cells_per_dim):
        gamma = TERConfig(rho=rho).gamma
        new, win = tuples[:split], tuples[split:]
        bounds = dict(d=D, gamma=gamma, alpha=alpha, fused=fused)
        for pairs, st_, a, b in (
            (*generate_candidates(aggregates_frame(new), _window(win, cells_per_dim),
                                  **bounds), new, win),
            (*newnew_candidates(aggregates_frame(new), **bounds), new, new),
        ):
            surv = {frozenset(p) for p in zip(pairs["rid_n"], pairs["rid_m"])}
            assert brute_force_accepts(a, b, gamma, alpha) <= surv
            assert st_.total == (st_.pruned_topic + st_.pruned_sim
                                 + st_.pruned_prob + len(pairs))
            assert st_.total == len({frozenset((x.rid, y.rid)) for x in a for y in b
                                     if x.stream_id != y.stream_id})
            if not fused:
                assert st_.pruned_prob == 0


class TestNewNewCandidates:
    CFG = TERConfig(rho=0.5, alpha=0.3)

    def test_safe_and_counted(self, population):
        new = population[:16]
        pairs, st = newnew_candidates(
            aggregates_frame(new), d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha
        )
        surv = {frozenset((r.rid_n, r.rid_m)) for r in pairs.itertuples(index=False)}
        accepts = brute_force_accepts(new, new, self.CFG.gamma, self.CFG.alpha)
        assert accepts <= surv
        n_cross = sum(
            1
            for i, a in enumerate(new)
            for b in new[i + 1 :]
            if a.stream_id != b.stream_id
        )
        assert st.total == n_cross
        assert st.total == st.pruned_topic + st.pruned_sim + st.pruned_prob + len(pairs)

    def test_single_tuple(self, population):
        pairs, st = newnew_candidates(
            aggregates_frame(population[:1]), d=D, gamma=2.5, alpha=0.3
        )
        assert pairs.empty and st.total == 0


class TestPruneStats:
    def test_add(self):
        a = PruneStats(total=10, pruned_topic=5)
        b = PruneStats(total=3, pruned_sim=2, refined=1)
        a.add(b)
        assert a.total == 13 and a.pruned_topic == 5 and a.pruned_sim == 2
        assert a.refined == 1

    def test_survivors(self):
        s = PruneStats(total=10, pruned_topic=4, pruned_sim=3, pruned_prob=1)
        assert s.survivors == 2
