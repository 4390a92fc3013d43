import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rejectopt.moba as moba
from rejectopt.data import ScoredDataset, synth_two_gaussian
from rejectopt.moba import (
    MobaConfig,
    _mutation_delta,
    _sbx_beta,
    crowding_distance_assignment,
    elite_preservation,
    evolve,
    fast_nondominated_sort,
    polynomial_mutation,
    pop_initialization,
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
        self._drawn = 0

    def random(self):
        if self._ri >= len(self._randoms):
            if not self._cycle:
                raise AssertionError("random stream exhausted")
            self._ri = 0
        v = self._randoms[self._ri]
        self._ri += 1
        self._drawn += 1
        return v

    def integers(self, low, high, size):
        vs = self._ints[self._ii : self._ii + size]
        if len(vs) < size:
            raise AssertionError("integer stream exhausted")
        self._ii += size
        return np.array(vs)

    @property
    def randoms_consumed(self):
        return self._drawn


class NanRng:
    """Redraw source under which every redraw fails: NaN u's give NaN
    children, so a child that needed a redraw falls back and is listed."""

    def random(self):
        return math.nan


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
    return fast_nondominated_sort([a, b])


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
        pop = [(0, 1), (1, 0), (0.5, 0.5)]
        assert fast_nondominated_sort(pop) == [[0, 1, 2]]
        assert elite_preservation(pop, 3)[1] == [0, 0, 0]

    def test_total_dominance(self):
        pop = [(0, 0), (1, 1)]
        assert fast_nondominated_sort(pop) == [[0], [1]]
        assert elite_preservation(pop, 2)[:2] == ([0, 1], [0, 1])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            objs = [tuple(rng.uniform(0, 1, 2)) for _ in range(n)]
            fronts = fast_nondominated_sort(objs)
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
        fronts = fast_nondominated_sort(objs)
        assert fronts == naive_front_sort(objs)  # each front listed in index order
        keep, rank, _ = elite_preservation(objs, len(objs))
        assert rank == [next(r for r, f in enumerate(fronts) if i in f) for i in keep]

    def test_front_set_invariants(self):
        rng = np.random.default_rng(3)
        objs = [tuple(rng.uniform(0, 1, 2)) for _ in range(40)]
        fronts = fast_nondominated_sort(objs)
        assert sorted(i for f in fronts for i in f) == list(range(40))
        for fi, front in enumerate(fronts):
            for p in front:
                assert not any(naive_dominates(objs[q], objs[p]) for q in front)
                if fi > 0:
                    assert any(naive_dominates(objs[q], objs[p]) for q in fronts[fi - 1])


class TestCrowdingDistance:
    def test_exact_three_point_front(self):
        d = crowding_distance_assignment([(0, 1), (0.5, 0.5), (1, 0)])
        assert d[0] == math.inf and d[2] == math.inf
        assert d[1] == 2.0

    def test_singleton_and_pair(self):
        assert crowding_distance_assignment([(0.3, 0.3)]) == [math.inf]
        assert crowding_distance_assignment([(0, 1), (1, 0)]) == [math.inf, math.inf]

    def test_zero_span_dimension_contributes_zero(self):
        d = crowding_distance_assignment([(0.5, 0.2), (0.5, 0.5), (0.5, 0.9)])
        assert d[0] == math.inf and d[2] == math.inf
        assert d[1] == pytest.approx((0.9 - 0.2) / 0.7)

    def test_affine_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            xs = np.sort(rng.uniform(0, 1, n))
            ys = np.sort(rng.uniform(0, 1, n))[::-1]
            front = [(float(x), float(y)) for x, y in zip(xs, ys)]
            base = crowding_distance_assignment(front)
            a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-3, 3))
            scaled = [(a * float(x) + b, float(y)) for x, y in zip(xs, ys)]
            other = crowding_distance_assignment(scaled)
            for u, v in zip(base, other):
                if math.isinf(u):
                    assert math.isinf(v)
                else:
                    assert abs(u - v) <= 1e-12


class TestTournamentSelection:
    def test_lower_rank_wins(self):
        winners = tournament_selection([2, 0], [9.0, 0.1], StubRng(ints=[0, 1]), 1)
        assert winners == [1]

    def test_larger_crowding_wins_on_rank_tie(self):
        rank, crowding = [1, 1], [3.0, 1.0]
        assert tournament_selection(rank, crowding, StubRng(ints=[0, 1]), 1) == [0]
        assert tournament_selection(rank, crowding, StubRng(ints=[1, 0]), 1) == [0]

    def test_full_tie_first_drawn_wins(self):
        assert tournament_selection([1, 1], [2.0, 2.0], StubRng(ints=[1, 0]), 1) == [1]

    def test_matches_scalar_reference_loop(self):
        def reference(rank, crowding, rng, count):
            winners = []
            for _ in range(count):
                a = int(rng.integers(0, len(rank)))
                b = int(rng.integers(0, len(rank)))
                if rank[b] < rank[a] or (rank[b] == rank[a] and crowding[b] > crowding[a]):
                    winners.append(b)
                else:
                    winners.append(a)
            return winners

        gen = np.random.default_rng(11)
        for seed in range(200):
            n = int(gen.integers(4, 41))
            rank = [int(r) for r in gen.integers(0, 3, n)]
            crowding = [float(c) for c in gen.choice([0.5, 1.0, math.inf], n)]
            count = 2 * int(gen.integers(2, 21))
            fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = tournament_selection(rank, crowding, fast_rng, count)
            want = reference(rank, crowding, ref_rng, count)
            assert got == want
            assert fast_rng.random() == ref_rng.random()  # streams stay aligned

    def test_requires_assignment(self):
        with pytest.raises(ValueError, match="rank"):
            tournament_selection([0, 0], [math.inf], StubRng(ints=[0, 1]), 1)


class TestSbx:
    def test_beta_at_half_is_one(self):
        assert _sbx_beta(0.5, 20.0) == 1.0

    def test_beta_quarter_eta20(self):
        assert _sbx_beta(0.25, 20.0) == pytest.approx(0.5 ** (1 / 21))
        assert _sbx_beta(0.25, 20.0) == pytest.approx(0.9675, abs=1e-4)

    def test_u_half_swaps_parents_exactly(self):
        # parents (0.123, 0.456) and (0.2, 0.9); crossover coin 0, u1 = u2 = 0.5
        c1, c2, fell = sbx_crossover(
            [0.123, 0.2], [0.456, 0.9], [0.0], [0.5, 0.5], 20.0, 0.9, StubRng()
        )
        assert (c1, c2, fell) == ([0.2, 0.123], [0.9, 0.456], [])

    def test_mean_preservation(self):
        rng = np.random.default_rng(99)
        parents = [np.sort(rng.uniform(0, 1, 2)) for _ in range(4000)]
        t1 = [float(p[0]) for p in parents]
        t2 = [float(p[1]) for p in parents]
        us = rng.random(4000).tolist()
        c1, c2, fell = sbx_crossover(t1, t2, [0.0] * 2000, us, 20.0, 0.9, NanRng())
        redrawn = {i // 2 for i in fell}  # NaN redraws: only first-try children remain
        checked = 0
        for k in range(2000):
            if k in redrawn:
                continue
            i, j = 2 * k, 2 * k + 1
            assert abs((c1[i] + c1[j]) - (t1[i] + t1[j])) <= 1e-9
            assert abs((c2[i] + c2[j]) - (t2[i] + t2[j])) <= 1e-9
            checked += 1
        assert checked > 1500

    def test_no_crossover_branch_returns_parents(self):
        rng = StubRng()
        c1, c2, fell = sbx_crossover([0.1, 0.3], [0.2, 0.4], [0.95], [0.3, 0.7], 20.0, 0.9, rng)
        assert (c1, c2, fell) == ([0.1, 0.3], [0.2, 0.4], [])
        assert rng.randoms_consumed == 0

    def test_per_child_redraw(self):
        # eta_c=0: u=0.75 -> beta=2 makes child 1 violate t1 < t2; child 2 stays valid
        rng = StubRng(randoms=[0.5, 0.5])
        c1, c2, fell = sbx_crossover([0.0, 0.9], [1.0, 1.1], [0.0], [0.75, 0.5], 0.0, 0.9, rng)
        assert fell == []
        assert (c1[0], c2[0]) == (0.9, 1.1)  # redraw with u = 0.5 twice reproduces parent 2
        assert c1[1] == pytest.approx(-0.45) and c2[1] == pytest.approx(1.0)
        assert rng.randoms_consumed == 2

    def test_retry_exhaustion_returns_parent_copy(self):
        rng = StubRng(randoms=[0.75], cycle=True)  # beta = 2 on every redraw
        c1, c2, fell = sbx_crossover([0.0, 0.9], [1.0, 1.1], [0.0], [0.75, 0.75], 0.0, 0.9, rng)
        assert fell == [0]
        assert (c1[0], c2[0]) == (0.0, 1.0)  # fallback copy of its parent
        assert c1[1] == pytest.approx(-0.45) and c2[1] == pytest.approx(0.95)
        assert rng.randoms_consumed == 2 * moba._MAX_RETRIES


class TestPolynomialMutation:
    def test_delta_at_half_is_zero(self):
        assert _mutation_delta(0.5, 20.0) == 0.0

    def test_delta_at_zero_is_minus_one(self):
        assert _mutation_delta(0.0, 20.0) == -1.0

    def test_u_half_is_identity(self):
        # both variables apply, both u = 0.5
        y1, y2, fell = polynomial_mutation(
            [0.3], [0.7], [0.0, 0.0], [0.5, 0.5], 1.0, 20.0, 0.0, 1.0, StubRng()
        )
        assert (y1, y2, fell) == ([0.3], [0.7], [])

    def test_u_zero_clamps_to_lower(self):
        # only variable 1 mutates, u = 0
        y1, y2, fell = polynomial_mutation(
            [0.3], [0.8], [0.0, 0.9], [0.0, 0.5], 0.5, 20.0, 0.0, 1.0, StubRng()
        )
        assert (y1, y2, fell) == ([0.0], [0.8], [])

    def test_mutated_values_within_bounds(self):
        rng = np.random.default_rng(42)
        lo, hi = -0.5, 1.5
        pairs = [np.sort(rng.uniform(lo, hi, 2)) for _ in range(500)]
        pairs = [(float(a), float(b)) for a, b in pairs if a < b]
        t1, t2 = [a for a, _ in pairs], [b for _, b in pairs]
        us = rng.random(2 * len(pairs)).tolist()
        y1, y2, _ = polynomial_mutation(t1, t2, [0.0] * len(us), us, 1.0, 20.0, lo, hi, rng)
        for a, b in zip(y1, y2):
            assert lo <= a <= hi and lo <= b <= hi and a < b

    def test_retry_exhaustion_returns_input(self):
        # upper bound below t1: the mutated t2 can never exceed t1
        rng = StubRng(randoms=[0.9, 0.0, 0.3], cycle=True)
        y1, y2, fell = polynomial_mutation(
            [0.5], [0.6], [0.9, 0.0], [0.5, 0.3], 0.5, 0.0, 0.0, 0.5, rng
        )
        assert (y1, y2, fell) == ([0.5], [0.6], [0])
        assert rng.randoms_consumed == moba._MAX_RETRIES  # one per redraw: only t2 mutates

    def test_no_mutation_no_extra_draws(self):
        rng = StubRng()
        y1, y2, fell = polynomial_mutation(
            [0.2], [0.4], [0.9, 0.9], [0.1, 0.1], 0.5, 20.0, 0.0, 1.0, rng
        )
        assert (y1, y2, fell) == ([0.2], [0.4], [])
        assert rng.randoms_consumed == 0

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="lower"):
            polynomial_mutation(
                [0.1], [0.2], [0.0, 0.0], [0.5, 0.5], 0.5, 20.0, 1.0, 0.0, StubRng()
            )


unit = st.floats(0.0, 1.0, exclude_max=True)


class TestOperatorProperties:
    """Generation-level operators over random parent lists and uniform blocks."""

    @staticmethod
    def redraw_source(const, seed):
        # a real generator, or a constant u: NaN fails every redraw, so a child
        # that needs one falls back; other constants may fail them all too
        return np.random.default_rng(seed) if const is None else StubRng([const], cycle=True)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=2, max_size=20),
        st.data(),
        st.one_of(st.none(), st.just(math.nan), unit),
        st.floats(0.0, 1.0),
        st.floats(0.0, 30.0),
        st.integers(0, 2**32 - 1),
    )
    def test_sbx(self, raw, data, const, pc, eta_c, seed):
        pairs = [(a, b) if a < b else (b, a + 1.0) for a, b in raw[: len(raw) // 2 * 2]]
        t1, t2 = [a for a, _ in pairs], [b for _, b in pairs]
        n = len(pairs)
        coins = data.draw(st.lists(unit, min_size=n // 2, max_size=n // 2))
        us = data.draw(st.lists(unit, min_size=n, max_size=n))
        rng = self.redraw_source(const, seed)
        before = rng.bit_generator.state if const is None else None
        c1, c2, fell = sbx_crossover(t1, t2, coins, us, eta_c, pc, rng)
        assert len(c1) == len(c2) == n
        assert all(a < b for a, b in zip(c1, c2))
        for i in fell:
            assert (c1[i], c2[i]) == (t1[i], t2[i])
        no_redraw = before is not None and rng.bit_generator.state == before
        for k, coin in enumerate(coins):
            i, j = 2 * k, 2 * k + 1
            if coin >= pc:
                assert (c1[i], c2[i], c1[j], c2[j]) == (t1[i], t2[i], t1[j], t2[j])
            elif no_redraw:
                assert abs((c1[i] + c1[j]) - (t1[i] + t1[j])) <= 1e-9
                assert abs((c2[i] + c2[j]) - (t2[i] + t2[j])) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=20),
        st.data(),
        st.one_of(st.none(), st.just(math.nan), unit),
        st.floats(0.0, 1.0),
        st.floats(0.0, 30.0),
        st.integers(0, 2**32 - 1),
    )
    def test_mutation(self, raw, data, const, pm, eta_m, seed):
        pairs = [(a, b) if a < b else (b, a + 1.0) for a, b in raw]
        t1, t2 = [a for a, _ in pairs], [b for _, b in pairs]
        lo = min(t1) - data.draw(st.floats(0.0, 2.0))
        hi = max(t2) + data.draw(st.floats(0.0, 2.0))
        n = len(pairs)
        coins = data.draw(st.lists(unit, min_size=2 * n, max_size=2 * n))
        us = data.draw(st.lists(unit, min_size=2 * n, max_size=2 * n))
        y1, y2, fell = polynomial_mutation(
            t1, t2, coins, us, pm, eta_m, lo, hi, self.redraw_source(const, seed)
        )
        assert all(a < b for a, b in zip(y1, y2))
        for i in range(n):
            if i in fell:
                assert (y1[i], y2[i]) == (t1[i], t2[i])
                continue
            for m, (x, y) in enumerate(((t1[i], y1[i]), (t2[i], y2[i]))):
                if coins[2 * i + m] < pm:
                    assert lo <= y <= hi
                else:
                    assert y == x


class TestDrawLayout:
    @pytest.mark.parametrize("seed", range(5))
    def test_one_generation_draws_tournaments_then_one_block(self, seed, monkeypatch):
        # with no redraws allowed, a generation draws exactly the documented layout
        made = []
        default_rng = np.random.default_rng

        def recording_rng(s):
            made.append(default_rng(s))
            return made[-1]

        valid = synth_two_gaussian(30, 30, 0.5, -0.5, 0.6, seed=8)
        n = 12
        cfg = MobaConfig(p_max=0.3, n_max=0.3, popsize=n, gensize=1, seed=seed)
        monkeypatch.setattr(moba, "_MAX_RETRIES", 0)
        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        evolve(valid, cfg)
        assert len(made) == 1
        ref = default_rng(seed)
        pop_initialization(valid, cfg, ref)
        ref.integers(0, n, size=2 * n)
        ref.random(n // 2 + n + 2 * n + 2 * n)
        assert made[0].bit_generator.state == ref.bit_generator.state


class TestPopInitialization:
    def test_size_bounds_and_ordering(self):
        valid = synth_two_gaussian(30, 30, 0.5, -0.5, 0.3, seed=8)
        lo, hi = valid.score_range()
        cfg = MobaConfig(p_max=0.1, n_max=0.1, popsize=20)
        t1, t2 = pop_initialization(valid, cfg, np.random.default_rng(0))
        assert len(t1) == len(t2) == 20
        for a, b in zip(t1, t2):
            assert lo <= a < b <= hi

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
                pop.append((i + 0.5 * layer, (7 - i) + 0.5 * layer))
        return pop

    def test_overflow_front_truncated_by_crowding(self):
        pop = self.three_front_population()
        keep, rank, crowding = elite_preservation(pop, 20)
        assert len(keep) == len(rank) == len(crowding) == 20
        assert set(range(16)) <= set(keep)  # fronts 0 and 1 whole
        third = [i for i in keep if i >= 16]
        assert len(third) == 4
        # the objective extremes of the truncated front carry infinite crowding
        assert 16 in third and 23 in third
        assert rank == [0] * 8 + [1] * 8 + [2] * 4

    def test_exact_fit(self):
        pop = [(i, 7 - i) for i in range(8)] + [(i + 0.5, 7.5 - i) for i in range(8)]
        keep, rank, _ = elite_preservation(pop, 8)
        assert keep == list(range(8)) and rank == [0] * 8

    def test_output_size_exact(self):
        rng = np.random.default_rng(2)
        pop = [(float(a), float(b)) for a, b in rng.uniform(0, 1, (30, 2))]
        for popsize in (4, 10, 16):
            assert len(elite_preservation(pop, popsize)[0]) == popsize
