"""ER-grid tests: pruning safety, and stage attribution against a row-wise
reference.

The crucial property is *safety*: no pair that the exact Eq. (2) refinement
would accept may be pruned by the grid pipeline (index pruning admits false
positives, never false negatives).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PARAM_GRID, TERConfig
from repro.core.instances import aggregates_frame, build_imputed_tuple
from repro.core.probability import pr_ter_ids
from repro.index.er_grid import PruneStats, generate_candidates, newnew_candidates
from repro.core import pruning as PR
from repro.streams.stream_gen import D

KW = ["topic00", "topic01"]
PIV = [frozenset({"p", "q"})] * D


def _tup(rid, sid, cands):
    return build_imputed_tuple(rid, sid, cands, topics=KW, pivot_tokens=PIV)


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
    similarity stage (Lemmas 4.1/4.2) prunes.

    Three families per attribute: few tokens mostly drawn from the pivot
    (small sets, pivot distance 0.25-0.6), a handful of non-pivot tokens
    (distance 1) and many non-pivot tokens (distance 0.8-1). Half the tuples
    carry a keyword, stream-1 twins of some tuples are planted matches, and
    every fourth tuple carries two instances."""
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


def reference_candidates(new, win, *, d, gamma, alpha, fused):
    """Row-wise reference for ``generate_candidates``: every cross-stream
    (new, window) pair in turn through Thm 4.1 -> Lemmas 4.1/4.2 -> Lemma
    4.3, with scalar calls to the ``core.pruning`` kernels; Lemmas 4.2 and
    4.3 only when ``fused``. Returns (pairs, stats)."""
    stats, pairs = PruneStats(), set()
    for a in new:
        for b in win:
            if a.stream_id == b.stream_id:
                continue
            stats.total += 1
            size_ub = sum(float(PR.ub_sim_token_size(a.tmin[k], a.tmax[k],
                                                     b.tmin[k], b.tmax[k]))
                          for k in range(D))
            pivot_ub = d - sum(float(PR.ub_sim_pivot(a.lb[k], a.ub[k], b.lb[k], b.ub[k]))
                               for k in range(D))
            if PR.topic_keyword_prune(a.kw_mask != 0, b.kw_mask != 0):
                stats.pruned_topic += 1
            elif size_ub <= gamma or (fused and pivot_ub <= gamma):
                stats.pruned_sim += 1
            elif fused and PR.ub_prob_paley_zygmund(
                d, gamma, sum(a.e), sum(b.e), sum(a.lb), sum(a.ub),
                sum(b.lb), sum(b.ub),
            ) <= alpha:
                stats.pruned_prob += 1
            else:
                pairs.add((a.rid, b.rid))
    return pairs, stats


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
            aggregates_frame(new), aggregates_frame(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
        )
        surv = {frozenset((r.rid_n, r.rid_m)) for r in pairs.itertuples(index=False)}
        accepts = brute_force_accepts(new, win, self.CFG.gamma, self.CFG.alpha)
        assert accepts <= surv

    def test_stage_counts_partition_total(self, population):
        new, win = self._split(population)
        pairs, st = generate_candidates(
            aggregates_frame(new), aggregates_frame(win),
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
            aggregates_frame(new), aggregates_frame(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
        )
        no_kw_pairs = sum(
            1
            for a in new
            for b in win
            if a.stream_id != b.stream_id and a.kw_mask == 0 and b.kw_mask == 0
        )
        assert st.pruned_topic == no_kw_pairs
        assert len(pairs) <= st.total - no_kw_pairs

    def test_disabled_stages_gate(self, population):
        new, win = self._split(population)
        _, st_full = generate_candidates(
            aggregates_frame(new), aggregates_frame(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
        )
        _, st_base = generate_candidates(
            aggregates_frame(new), aggregates_frame(win),
            d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha,
            fused=False,
        )
        assert st_base.pruned_prob == 0
        assert st_base.survivors >= st_full.survivors

    def test_empty_inputs(self, population):
        p1, s1 = generate_candidates(
            aggregates_frame([]), aggregates_frame(population[:4]), d=D, gamma=2.5, alpha=0.3
        )
        p2, s2 = generate_candidates(
            aggregates_frame(population[:4]), aggregates_frame([]), d=D, gamma=2.5, alpha=0.3
        )
        assert p1.empty and p2.empty and s1.total == 0 and s2.total == 0


class TestStageAttribution:
    """The vectorized pass gives the row-wise reference's pair set and
    per-stage counts, on a population where the sim stage fires."""

    CFG = TERConfig(rho=0.5, alpha=0.3)

    @pytest.mark.parametrize("fused", [True, False], ids=["ter", "ij_ger"])
    def test_matches_rowwise_reference(self, varied, fused):
        new, win = varied[:24], varied[24:]
        kw = dict(d=D, gamma=self.CFG.gamma, alpha=self.CFG.alpha, fused=fused)
        want, want_st = reference_candidates(new, win, **kw)
        assert want_st.pruned_sim > 0
        pairs, st = generate_candidates(aggregates_frame(new), aggregates_frame(win), **kw)
        assert set(zip(pairs["rid_n"], pairs["rid_m"])) == want
        assert st == want_st

    def test_safe(self, varied):
        """Sim-stage pruning keeps every exact accept."""
        new, win = varied[:24], varied[24:]
        pairs, _ = generate_candidates(
            aggregates_frame(new), aggregates_frame(win),
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
    tokens. Values may be empty or missing (``None``), down to instances
    with every attribute missing, so token sets can be empty and ``tmax``
    0. A tuple may copy another's first instance with one attribute
    redrawn, so some pairs pass Eq. (2)."""
    value = st.one_of(st.none(), st.lists(st.sampled_from(PROP_TOKENS), max_size=6,
                                          unique=True).map(" ".join))
    fresh = st.one_of(st.tuples(*[value] * D), st.just((None,) * D))
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
    accepts, with or without the fused stages; the stage counts partition
    the cross-stream pairs, and Theorem 4.1 prunes exactly the pairs with no
    keyword on either side."""

    @settings(max_examples=60, deadline=None)
    @given(tuples=multi_instance_tuples(), split=st.integers(1, 13),
           rho=st.sampled_from(PARAM_GRID["rho"]),
           alpha=st.sampled_from(PARAM_GRID["alpha"]))
    def test_no_false_dismissal(self, tuples, split, rho, alpha):
        gamma = TERConfig(rho=rho).gamma
        new, win = tuples[:split], tuples[split:]
        for fused in (True, False):
            bounds = dict(d=D, gamma=gamma, alpha=alpha, fused=fused)
            for pairs, st_, a, b in (
                (*generate_candidates(aggregates_frame(new), aggregates_frame(win),
                                      **bounds), new, win),
                (*newnew_candidates(aggregates_frame(new), **bounds), new, new),
            ):
                surv = {frozenset(p) for p in zip(pairs["rid_n"], pairs["rid_m"])}
                assert brute_force_accepts(a, b, gamma, alpha) <= surv
                assert st_.total == (st_.pruned_topic + st_.pruned_sim
                                     + st_.pruned_prob + len(pairs))
                cross = {frozenset((x.rid, y.rid)): x.kw_mask == y.kw_mask == 0
                         for x in a for y in b if x.stream_id != y.stream_id}
                assert st_.total == len(cross)
                assert st_.pruned_topic == sum(cross.values())
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
