import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rejectopt.data import ScoredDataset, synth_two_gaussian
from rejectopt.metrics import ThresholdPair
from rejectopt.moba import (
    Individual,
    MobaConfig,
    crowding_distance_assignment,
    elite_preservation,
    fast_nondominated_sort,
    mutation_delta,
    polynomial_mutation,
    pop_initialization,
    sbx_beta,
    sbx_children,
    sbx_crossover,
    tournament_selection,
)


class StubRng:
    """Deterministic stand-in for a Generator: fixed draw sequences."""

    def __init__(self, randoms=(), ints=(), cycle=False):
        self._randoms = list(randoms)
        self._ints = list(ints)
        self._cycle = cycle
        self._ri = 0
        self._ii = 0

    def random(self):
        if self._ri >= len(self._randoms):
            if not self._cycle:
                raise AssertionError("random stream exhausted")
            self._ri = 0
        v = self._randoms[self._ri]
        self._ri += 1
        return v

    def integers(self, low, high, size=None):
        if size is None:
            v = self._ints[self._ii]
            self._ii += 1
            return v
        vs = self._ints[self._ii : self._ii + size]
        if len(vs) < size:
            raise AssertionError("integer stream exhausted")
        self._ii += size
        return vs

    @property
    def randoms_consumed(self):
        return self._ri


def ind(f1, f2, feasible=True):
    return Individual(ThresholdPair(0.0, 1.0), (f1, f2), feasible)


def naive_dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def naive_front_sort(objectives):
    remaining = set(range(len(objectives)))
    fronts = []
    while remaining:
        front = sorted(
            p
            for p in remaining
            if not any(naive_dominates(objectives[q], objectives[p]) for q in remaining if q != p)
        )
        fronts.append(front)
        remaining -= set(front)
    return fronts


def sort_pair(a, b):
    return fast_nondominated_sort([ind(*a), ind(*b)])


class TestDominates:
    """Pairwise dominance as the sort applies it."""

    def test_one_strict_one_equal(self):
        assert sort_pair((0.1, 0.2), (0.2, 0.2)) == [[0], [1]]
        assert sort_pair((0.2, 0.2), (0.1, 0.2)) == [[1], [0]]
        assert sort_pair((0.2, 0.2), (0.2, 0.1)) == [[1], [0]]

    def test_equality_never_dominates(self):
        assert sort_pair((0.1, 0.2), (0.1, 0.2)) == [[0, 1]]

    def test_trade_off_incomparable(self):
        assert sort_pair((0.1, 0.3), (0.2, 0.2)) == [[0, 1]]
        assert sort_pair((0.2, 0.2), (0.1, 0.3)) == [[0, 1]]


class TestFastNondominatedSort:
    def test_mutually_nondominated(self):
        pop = [ind(0, 1), ind(1, 0), ind(0.5, 0.5)]
        fronts = fast_nondominated_sort(pop)
        assert fronts == [[0, 1, 2]]
        assert [i.rank for i in pop] == [0, 0, 0]

    def test_total_dominance(self):
        pop = [ind(0, 0), ind(1, 1)]
        assert fast_nondominated_sort(pop) == [[0], [1]]
        assert [i.rank for i in pop] == [0, 1]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            objs = [tuple(rng.uniform(0, 1, 2)) for _ in range(n)]
            pop = [ind(*o) for o in objs]
            fronts = fast_nondominated_sort(pop)
            assert [sorted(f) for f in fronts] == naive_front_sort(objs)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
                    lambda p: (p[0] / 4, p[1] / 4)
                ),
                st.just((1.0, 1.0)),  # death-penalty cluster
            ),
            min_size=1,
            max_size=40,
        ),
        st.randoms(use_true_random=False),
    )
    def test_matches_naive_oracle_with_ties(self, objs, shuffler):
        # coarse grid, duplicate vectors and penalty clusters: many exact ties
        objs = objs + [objs[i] for i in range(0, len(objs), 3)]
        shuffler.shuffle(objs)
        pop = [ind(*o) for o in objs]
        fronts = fast_nondominated_sort(pop)
        assert fronts == naive_front_sort(objs)  # each front listed in index order
        assert [p.rank for p in pop] == [
            next(r for r, f in enumerate(fronts) if i in f) for i in range(len(objs))
        ]

    def test_front_set_invariants(self):
        rng = np.random.default_rng(3)
        objs = [tuple(rng.uniform(0, 1, 2)) for _ in range(40)]
        pop = [ind(*o) for o in objs]
        fronts = fast_nondominated_sort(pop)
        assert sorted(i for f in fronts for i in f) == list(range(40))
        for fi, front in enumerate(fronts):
            for p in front:
                assert not any(naive_dominates(objs[q], objs[p]) for q in front)
                if fi > 0:
                    assert any(naive_dominates(objs[q], objs[p]) for q in fronts[fi - 1])


class TestCrowdingDistance:
    def test_exact_three_point_front(self):
        front = [ind(0, 1), ind(0.5, 0.5), ind(1, 0)]
        d = crowding_distance_assignment(front)
        assert d[0] == math.inf and d[2] == math.inf
        assert d[1] == 2.0

    def test_singleton_and_pair(self):
        assert crowding_distance_assignment([ind(0.3, 0.3)]) == [math.inf]
        assert crowding_distance_assignment([ind(0, 1), ind(1, 0)]) == [math.inf, math.inf]

    def test_zero_span_dimension_contributes_zero(self):
        front = [ind(0.5, 0.2), ind(0.5, 0.5), ind(0.5, 0.9)]
        d = crowding_distance_assignment(front)
        assert d[0] == math.inf and d[2] == math.inf
        assert d[1] == pytest.approx((0.9 - 0.2) / 0.7)

    def test_affine_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            xs = np.sort(rng.uniform(0, 1, n))
            ys = np.sort(rng.uniform(0, 1, n))[::-1]
            front = [ind(float(x), float(y)) for x, y in zip(xs, ys)]
            base = crowding_distance_assignment(front)
            a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-3, 3))
            scaled = [ind(a * float(x) + b, float(y)) for x, y in zip(xs, ys)]
            other = crowding_distance_assignment(scaled)
            for u, v in zip(base, other):
                if math.isinf(u):
                    assert math.isinf(v)
                else:
                    assert abs(u - v) <= 1e-12


class TestTournamentSelection:
    @staticmethod
    def ranked(rank, crowding):
        x = ind(0.5, 0.5)
        x.rank = rank
        x.crowding = crowding
        return x

    def test_lower_rank_wins(self):
        pop = [self.ranked(2, 9.0), self.ranked(0, 0.1)]
        winners = tournament_selection(pop, StubRng(ints=[0, 1]), 1)
        assert winners == [pop[1]]

    def test_larger_crowding_wins_on_rank_tie(self):
        pop = [self.ranked(1, 3.0), self.ranked(1, 1.0)]
        assert tournament_selection(pop, StubRng(ints=[0, 1]), 1) == [pop[0]]
        assert tournament_selection(pop, StubRng(ints=[1, 0]), 1) == [pop[0]]

    def test_full_tie_first_drawn_wins(self):
        pop = [self.ranked(1, 2.0), self.ranked(1, 2.0)]
        assert tournament_selection(pop, StubRng(ints=[1, 0]), 1) == [pop[1]]

    def test_matches_scalar_reference_loop(self):
        def reference(pop, rng, count):
            winners = []
            for _ in range(count):
                a = pop[int(rng.integers(0, len(pop)))]
                b = pop[int(rng.integers(0, len(pop)))]
                if b.rank < a.rank or (b.rank == a.rank and b.crowding > a.crowding):
                    winners.append(b)
                else:
                    winners.append(a)
            return winners

        gen = np.random.default_rng(11)
        for seed in range(200):
            n = int(gen.integers(4, 41))
            pop = [
                self.ranked(int(r), float(c))
                for r, c in zip(gen.integers(0, 3, n), gen.choice([0.5, 1.0, math.inf], n))
            ]
            count = 2 * int(gen.integers(2, 21))
            fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = tournament_selection(pop, fast_rng, count)
            want = reference(pop, ref_rng, count)
            assert [id(w) for w in got] == [id(w) for w in want]
            assert fast_rng.random() == ref_rng.random()  # streams stay aligned

    def test_requires_assignment(self):
        pop = [ind(0, 1), ind(1, 0)]
        with pytest.raises(ValueError, match="rank"):
            tournament_selection(pop, StubRng(ints=[0, 1]), 1)


class TestSbx:
    def test_beta_at_half_is_one(self):
        assert sbx_beta(0.5, 20.0) == 1.0

    def test_beta_quarter_eta20(self):
        assert sbx_beta(0.25, 20.0) == pytest.approx(0.5 ** (1 / 21))
        assert sbx_beta(0.25, 20.0) == pytest.approx(0.9675, abs=1e-4)

    def test_u_half_swaps_parents_exactly(self):
        x1 = ThresholdPair(0.123, 0.456)
        x2 = ThresholdPair(0.2, 0.9)
        rng = StubRng(randoms=[0.0, 0.5, 0.5])  # crossover coin, u1, u2
        c1, c2, fell_back = sbx_crossover(x1, x2, 20.0, rng, crossover_prob=0.9)
        assert c1 == x2 and c2 == x1 and not fell_back

    def test_mean_preservation(self):
        rng = np.random.default_rng(99)
        for _ in range(2000):
            p1 = tuple(np.sort(rng.uniform(0, 1, 2)))
            p2 = tuple(np.sort(rng.uniform(0, 1, 2)))
            c1, c2 = sbx_children(p1, p2, 20.0, rng)
            for m in range(2):
                assert abs((c1[m] + c2[m]) - (p1[m] + p2[m])) <= 1e-9

    def test_no_crossover_branch_returns_parents(self):
        x1 = ThresholdPair(0.1, 0.2)
        x2 = ThresholdPair(0.3, 0.4)
        rng = StubRng(randoms=[0.95])
        c1, c2, fell_back = sbx_crossover(x1, x2, 20.0, rng, crossover_prob=0.9)
        assert (c1, c2, fell_back) == (x1, x2, False)
        assert rng.randoms_consumed == 1

    def test_per_child_redraw(self):
        # eta_c=0: u=0.75 -> beta=2 makes child 1 violate t1 < t2; child 2 stays valid
        x1 = ThresholdPair(0.0, 1.0)
        x2 = ThresholdPair(0.9, 1.1)
        rng = StubRng(randoms=[0.0, 0.75, 0.5, 0.5, 0.5])
        c1, c2, fell_back = sbx_crossover(x1, x2, 0.0, rng, crossover_prob=0.9)
        assert not fell_back
        assert c1 == x2  # redraw with u = 0.5 twice reproduces parent 2
        assert c2.t1 == pytest.approx(-0.45) and c2.t2 == pytest.approx(1.0)

    def test_retry_exhaustion_returns_parent_copy(self):
        x1 = ThresholdPair(0.0, 1.0)
        x2 = ThresholdPair(0.9, 1.1)
        rng = StubRng(randoms=[0.75], cycle=True)  # coin passes, then beta = 2 forever
        c1, c2, fell_back = sbx_crossover(x1, x2, 0.0, rng, crossover_prob=0.9, max_retries=5)
        assert fell_back
        assert c1 == x1  # fallback copy of its parent
        assert c2.t1 == pytest.approx(-0.45) and c2.t2 == pytest.approx(0.95)


class TestPolynomialMutation:
    def test_delta_at_half_is_zero(self):
        assert mutation_delta(0.5, 20.0) == 0.0

    def test_delta_at_zero_is_minus_one(self):
        assert mutation_delta(0.0, 20.0) == -1.0

    def test_u_half_is_identity(self):
        x = ThresholdPair(0.3, 0.7)
        rng = StubRng(randoms=[0.0, 0.0, 0.5, 0.5])  # both apply, both u = 0.5
        y, fell_back = polynomial_mutation(x, 1.0, 20.0, 0.0, 1.0, rng)
        assert y == x and not fell_back

    def test_u_zero_clamps_to_lower(self):
        x = ThresholdPair(0.3, 0.8)
        rng = StubRng(randoms=[0.0, 0.9, 0.0])  # only variable 1 mutates, u = 0
        y, fell_back = polynomial_mutation(x, 0.5, 20.0, 0.0, 1.0, rng)
        assert y == ThresholdPair(0.0, 0.8) and not fell_back

    def test_mutated_values_within_bounds(self):
        rng = np.random.default_rng(42)
        lo, hi = -0.5, 1.5
        for _ in range(500):
            a, b = np.sort(rng.uniform(lo, hi, 2))
            if a == b:
                continue
            x = ThresholdPair(float(a), float(b))
            y, _ = polynomial_mutation(x, 1.0, 20.0, lo, hi, rng)
            assert lo <= y.t1 <= hi and lo <= y.t2 <= hi and y.t1 < y.t2

    def test_retry_exhaustion_returns_input(self):
        # upper bound below t1: the mutated t2 can never exceed t1
        x = ThresholdPair(0.5, 0.6)
        rng = StubRng(randoms=[0.9, 0.0, 0.3], cycle=True)
        y, fell_back = polynomial_mutation(x, 0.5, 0.0, 0.0, 0.5, rng, max_retries=7)
        assert y == x and fell_back

    def test_no_mutation_no_extra_draws(self):
        x = ThresholdPair(0.2, 0.4)
        rng = StubRng(randoms=[0.9, 0.9])
        y, fell_back = polynomial_mutation(x, 0.5, 20.0, 0.0, 1.0, rng)
        assert y == x and not fell_back
        assert rng.randoms_consumed == 2

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="lower"):
            polynomial_mutation(ThresholdPair(0.1, 0.2), 0.5, 20.0, 1.0, 0.0, StubRng())


class TestPopInitialization:
    def test_size_bounds_and_ordering(self):
        valid = synth_two_gaussian(30, 30, 0.5, -0.5, 0.3, seed=8)
        lo, hi = valid.score_range()
        cfg = MobaConfig(p_max=0.1, n_max=0.1, popsize=20)
        pop = pop_initialization(valid, cfg, np.random.default_rng(0))
        assert len(pop) == 20
        for t in pop:
            assert lo <= t.t1 < t.t2 <= hi

    def test_explicit_bounds_override(self):
        valid = synth_two_gaussian(10, 10, 0.5, -0.5, 0.3, seed=8)
        cfg = MobaConfig(p_max=0.1, n_max=0.1, popsize=8, var_lower=-9.0, var_upper=9.0)
        pop = pop_initialization(valid, cfg, np.random.default_rng(1))
        assert any(t.t1 < valid.score_range()[0] or t.t2 > valid.score_range()[1] for t in pop)

    def test_degenerate_scores_need_bounds(self):
        valid = ScoredDataset([0.5, 0.5, 0.5, 0.5], [1, 1, -1, -1])
        cfg = MobaConfig(p_max=0.1, n_max=0.1)
        with pytest.raises(ValueError, match="degenerate"):
            pop_initialization(valid, cfg, np.random.default_rng(0))

    def test_deterministic(self):
        valid = synth_two_gaussian(20, 20, 0.5, -0.5, 0.3, seed=8)
        cfg = MobaConfig(p_max=0.1, n_max=0.1, popsize=12)
        a = pop_initialization(valid, cfg, np.random.default_rng(5))
        b = pop_initialization(valid, cfg, np.random.default_rng(5))
        assert a == b


class TestElitePreservation:
    @staticmethod
    def three_front_population():
        # three staircase fronts of 8, each shifted outward by 0.5
        pop = []
        for layer in range(3):
            for i in range(8):
                pop.append(ind(i + 0.5 * layer, (7 - i) + 0.5 * layer))
        return pop

    def test_overflow_front_truncated_by_crowding(self):
        pop = self.three_front_population()
        survivors = elite_preservation(pop, 20)
        assert len(survivors) == 20
        assert all(p in survivors for p in pop[:16])  # fronts 0 and 1 whole
        third = [p for p in survivors if p in pop[16:]]
        assert len(third) == 4
        # the objective extremes of the truncated front carry infinite crowding
        assert pop[16] in third and pop[23] in third

    def test_exact_fit(self):
        pop = [ind(i, 7 - i) for i in range(8)] + [ind(i + 0.5, 7.5 - i) for i in range(8)]
        survivors = elite_preservation(pop, 8)
        assert survivors == pop[:8]

    def test_output_size_exact(self):
        rng = np.random.default_rng(2)
        pop = [ind(float(a), float(b)) for a, b in rng.uniform(0, 1, (30, 2))]
        for popsize in (4, 10, 16):
            assert len(elite_preservation(list(pop), popsize)) == popsize
