"""Pruning kernels vs the paper's worked Examples 5-7 + safety properties."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pruning as PR
from repro.core.probability import Instance, pr_ter_ids, pr_ter_ids_batch, pr_ter_ids_detail
from repro.core.similarity import jaccard
from repro.streams.stream_gen import D


class TestTopicKeywordPrune:
    def test_neither_has_kw(self):
        assert PR.topic_keyword_prune(False, False)

    def test_either_has_kw(self):
        assert not PR.topic_keyword_prune(True, False)
        assert not PR.topic_keyword_prune(False, True)
        assert not PR.topic_keyword_prune(True, True)

    def test_vectorized(self):
        got = PR.topic_keyword_prune(
            np.array([True, False, False]), np.array([False, True, False])
        )
        assert got.tolist() == [False, False, True]


class TestUbSimTokenSize:
    def test_example5(self):
        """Paper Example 5: ub_sim(r1, r2) = 0.8 + 0.7 + 0.7 = 2.2."""
        ub_a = PR.ub_sim_token_size(10, 10, 8, 8)
        ub_b = PR.ub_sim_token_size(7, 7, 10, 10)
        ub_c = PR.ub_sim_token_size(5, 7, 10, 12)
        assert ub_a == pytest.approx(8 / 10)
        assert ub_b == pytest.approx(7 / 10)
        assert ub_c == pytest.approx(7 / 10)
        assert ub_a + ub_b + ub_c == pytest.approx(2.2)

    def test_overlapping_sizes_give_one(self):
        assert PR.ub_sim_token_size(3, 5, 4, 6) == 1.0

    def test_zero_sizes(self):
        assert PR.ub_sim_token_size(0, 0, 3, 3) == 0.0

    @given(
        st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=8),
        st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_upper_bound(self, a, b):
        """Lemma 4.1 soundness: actual Jaccard never exceeds the bound."""
        from repro.core.similarity import jaccard

        ub = PR.ub_sim_token_size(len(a), len(a), len(b), len(b))
        assert jaccard(a, b) <= ub + 1e-12


class TestUbSimPivot:
    def test_example6(self):
        """Paper Example 6: ub_sim(r1, r2) = 3 - 1.4 = 1.6."""
        md_a = PR.ub_sim_pivot(0.3, 0.3, 0.7, 0.7)
        md_b = PR.ub_sim_pivot(0.3, 0.3, 0.8, 0.8)
        md_c = PR.ub_sim_pivot(0.1, 0.2, 0.7, 0.9)
        assert md_a == pytest.approx(0.4)
        assert md_b == pytest.approx(0.5)
        assert md_c == pytest.approx(0.5)
        assert 3 - (md_a + md_b + md_c) == pytest.approx(1.6)

    def test_overlap_gives_zero(self):
        assert PR.ub_sim_pivot(0.2, 0.5, 0.4, 0.6) == 0.0

    @given(
        st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=6),
        st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=6),
        st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_lower_bound_of_distance(self, a, b, piv):
        """Lemma 4.2 soundness via the triangle inequality."""
        from repro.core.similarity import jaccard_dist

        x = jaccard_dist(a, piv)
        y = jaccard_dist(b, piv)
        md = PR.ub_sim_pivot(x, x, y, y)
        assert md <= jaccard_dist(a, b) + 1e-12


class TestPaleyZygmund:
    def test_example7(self):
        """Paper Example 7: UB_Pr = 1 - (1 - 0.2/0.5)^2 * 0.5/1.0 = 0.82."""
        got = PR.ub_prob_paley_zygmund(
            d=3, gamma=2.8,
            e_x=0.7, e_y=1.2, lb_x=0.3, ub_x=1.1, lb_y=1.1, ub_y=1.3,
        )
        assert got == pytest.approx(0.82)

    def test_no_branch_gives_one(self):
        got = PR.ub_prob_paley_zygmund(
            d=3, gamma=2.8, e_x=0.7, e_y=0.8, lb_x=0.3, ub_x=1.1, lb_y=0.5, ub_y=1.3
        )
        assert got == 1.0

    def test_vectorized(self):
        got = PR.ub_prob_paley_zygmund(
            d=3, gamma=2.8,
            e_x=np.array([0.7, 0.7]), e_y=np.array([1.2, 0.8]),
            lb_x=np.array([0.3, 0.3]), ub_x=np.array([1.1, 1.1]),
            lb_y=np.array([1.1, 0.5]), ub_y=np.array([1.3, 1.3]),
        )
        assert got[0] == pytest.approx(0.82)
        assert got[1] == 1.0

    def test_clipped_to_unit_interval(self):
        got = PR.ub_prob_paley_zygmund(
            d=3, gamma=0.1, e_x=2.0, e_y=0.1, lb_x=1.9, ub_x=2.2, lb_y=0.0, ub_y=0.2
        )
        assert 0.0 <= float(got) <= 1.0


class TestInstancePairBound:
    def test_bound_formula(self):
        assert PR.instance_pair_bound(0.1, 0.6) == pytest.approx(0.1 + 0.4)

    def test_all_checked(self):
        assert PR.instance_pair_bound(0.3, 1.0) == pytest.approx(0.3)


class TestPrTerIds:
    def _insts(self, specs, kws=("topic",)):
        return [Instance(attrs, p, keywords=frozenset(kws)) for attrs, p in specs]

    def test_single_match(self):
        a = self._insts([(("topic x", "y"), 1.0)])
        b = self._insts([(("topic x", "y"), 1.0)])
        assert pr_ter_ids(a, b, gamma=1.5) == pytest.approx(1.0)

    def test_below_gamma_no_match(self):
        a = self._insts([(("topic x", "y"), 1.0)])
        b = self._insts([(("z", "w"), 1.0)])
        assert pr_ter_ids(a, b, gamma=0.5) == 0.0

    def test_no_keyword_no_match(self):
        a = self._insts([(("x", "y"), 1.0)])
        b = self._insts([(("x", "y"), 1.0)])
        assert pr_ter_ids(a, b, gamma=1.5) == 0.0

    def test_probability_weighted(self):
        a = self._insts([(("topic x", "y"), 0.5), (("zz", "qq"), 0.5)])
        b = self._insts([(("topic x", "y"), 1.0)])
        assert pr_ter_ids(a, b, gamma=1.5) == pytest.approx(0.5)

    def test_early_stop_reject(self):
        """Thm 4.4: once remaining mass cannot reach alpha, stop early."""
        a = self._insts([(("zz", "qq"), 0.9), (("topic x", "y"), 0.1)])
        b = self._insts([(("topic x", "y"), 1.0)])
        pr, stopped = pr_ter_ids_detail(a, b, gamma=1.5, alpha=0.5)
        assert pr <= 0.5
        assert stopped

    def test_early_stop_accept(self):
        a = self._insts([(("topic x", "y"), 0.9), (("zz", "qq"), 0.1)])
        b = self._insts([(("topic x", "y"), 1.0)])
        pr, stopped = pr_ter_ids_detail(a, b, gamma=1.5, alpha=0.5)
        assert pr > 0.5
        assert not stopped

    def test_early_stop_agrees_with_full_on_threshold_side(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            na, nb = rng.integers(1, 4, 2)
            mk = lambda n: self._insts(
                [
                    (
                        (
                            ("topic a" if rng.random() < 0.5 else "b c"),
                            ("d e" if rng.random() < 0.5 else "f"),
                        ),
                        1.0 / n,
                    )
                    for _ in range(n)
                ]
            )
            a, b = mk(na), mk(nb)
            full = pr_ter_ids(a, b, gamma=1.0)
            fast, _ = pr_ter_ids_detail(a, b, gamma=1.0, alpha=0.5)
            assert (full > 0.5) == (fast > 0.5)


def reference_pr(inst_i, inst_j, gamma, alpha):
    """Eq. (2) with Theorem 4.4 as a plain double loop over instance pairs:
    ``(pr, stopped)`` with ``stopped`` marking a rejection before the last
    instance pair."""
    acc = checked = 0.0
    n = len(inst_i) * len(inst_j)
    done = 0
    for a in inst_i:
        for b in inst_j:
            mass = a.p * b.p
            sim = sum(jaccard(x, y) for x, y in zip(a.token_sets, b.token_sets))
            if mass > 0 and (a.has_kw or b.has_kw) and sim > gamma:
                acc += mass
            checked += mass
            done += 1
            if alpha is not None:
                if acc > alpha:
                    return acc, False
                if acc + (1.0 - checked) <= alpha:
                    return acc, done < n
    return acc, False


PROP_KW = frozenset({"topic"})


@st.composite
def instance_sets(draw):
    """Up to 6 sets of 1-8 instances. An instance copies each attribute of a
    shared base value tuple or draws its own, so Eq. (1) ranges up to d;
    values include empty token sets, instances are all-None one time in
    six, and some have p = 0."""
    value = st.sampled_from([None, "", "topic", "a", "a b c", "topic a b c d e", "a b c d e f", "b c d"])
    base = draw(st.tuples(*[value] * D))
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        weights = draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
        total = sum(weights) or 1
        insts = []
        for w in weights:
            if draw(st.integers(0, 5)) == 0:
                attrs = (None,) * D
            else:
                attrs = tuple(v if draw(st.booleans()) else draw(value) for v in base)
            insts.append(Instance(attrs, w / total, keywords=PROP_KW))
        sets.append(insts)
    return sets


class TestBatchedKernelProperty:
    """The batched Eq. (2) kernel against the scalar double loop above:
    bit-equal ``pr`` and equal ``stopped`` for every pair of one call."""

    @settings(max_examples=150, deadline=None)
    @given(sets=instance_sets(),
           pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8),
           gamma=st.sampled_from([1.5, 2.5, 3.5]),
           alpha=st.sampled_from([None, 0.1, 0.3, 0.5, 0.7, 0.9]))
    def test_matches_double_loop(self, sets, pairs, gamma, alpha):
        pairs = [(i % len(sets), j % len(sets)) for i, j in pairs]
        left = [i for i, _ in pairs]
        right = [j for _, j in pairs]
        pr, stopped = pr_ter_ids_batch(sets, left, right, gamma, alpha)
        assert len(pr) == len(stopped) == len(pairs)
        for x, (i, j) in enumerate(pairs):
            want_pr, want_stopped = reference_pr(sets[i], sets[j], gamma, alpha)
            assert pr[x] == want_pr
            assert stopped[x] == want_stopped

    @pytest.mark.parametrize("a,b,gamma,want", [
        # Jaccard 0, 0, 1/6, 1/2, 5/6: 1.5 in attribute order, just above
        # 1.5 in reverse order
        (("x", "u", "y", "p q", "t1 t2 t3 t4 t5"),
         ("v", "w", "y z1 z2 z3 z4 z5", "p", "t1 t2 t3 t4 t5 t6"), 1.5, 0.0),
        # Jaccard 1/7, 5/6, 6/7, 1/3, 1/3: just above 2.5 in attribute
        # order, 2.5 in reverse order and with the first three reversed
        (("x", "t1 t2 t3 t4 t5", "s1 s2 s3 s4 s5 s6", "p", "m"),
         ("x z1 z2 z3 z4 z5 z6", "t1 t2 t3 t4 t5 t6", "s1 s2 s3 s4 s5 s6 s7",
          "p q r", "m n o"), 2.5, 1.0),
    ])
    def test_sums_attributes_in_order(self, a, b, gamma, want):
        """Eq. (1) adds the Jaccard terms in attribute order, so a sum that
        is exactly gamma in real arithmetic falls on the scalar loop's side
        of gamma."""
        a, b = ([Instance(v, 1.0, keywords={"x"})] for v in (a, b))
        assert reference_pr(a, b, gamma, None) == (want, False)
        pr, _ = pr_ter_ids_batch([a, b], [0], [1], gamma)
        assert pr[0] == want

    def test_sums_masses_in_pair_order(self):
        """The matched masses are added in double-loop order: (0.1 + 0.2) +
        0.7 and (0.7 + 0.2) + 0.1 differ in the last bit."""
        attrs = ("topic a",) * D
        a = [Instance(attrs, 1.0, keywords=PROP_KW)]
        b = [Instance(attrs, p, keywords=PROP_KW) for p in (0.1, 0.2, 0.7)]
        want = (0.1 + 0.2) + 0.7
        assert want != (0.7 + 0.2) + 0.1
        assert reference_pr(a, b, 2.5, None) == (want, False)
        pr, _ = pr_ter_ids_batch([a, b], [0], [1], 2.5)
        assert pr[0] == want

    def test_rejects_when_bound_equals_alpha(self):
        """Theorem 4.4 rejects once the bound is <= alpha, equality included:
        after the unmatched first instance pair the bound is 0 + (1 - 0.5)."""
        a = [Instance(("topic a",) * D, 1.0, keywords=PROP_KW)]
        b = [Instance(("zz",) * D, 0.5, keywords=PROP_KW),
             Instance(("topic a",) * D, 0.5, keywords=PROP_KW)]
        assert reference_pr(a, b, 2.5, 0.5) == (0.0, True)
        pr, stopped = pr_ter_ids_batch([a, b], [0], [1], 2.5, 0.5)
        assert (pr[0], stopped[0]) == (0.0, True)

    def test_empty_pair_list(self):
        sets = [[Instance(("topic a",) * D, 1.0, keywords=PROP_KW)]]
        for alpha in (None, 0.5):
            pr, stopped = pr_ter_ids_batch(sets, [], [], 2.5, alpha)
            assert len(pr) == len(stopped) == 0
