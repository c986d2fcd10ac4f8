import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from alertmpc.optimizer import (
    BadBounds,
    DeParams,
    NonFiniteObjective,
    checked_scores,
    de_minimize,
    donor_indices,
    incumbent,
    not_worse,
)

LO4 = np.full(4, -5.0)
HI4 = np.full(4, 5.0)


def batched(obj, vio):
    """evaluate(pop) from scalar objective and violation callbacks."""
    def evaluate(pop):
        return (np.array([obj(x) for x in pop], dtype=float),
                np.array([vio(x) for x in pop], dtype=float))
    return evaluate


def no_violation(x):
    return 0.0


def sphere(x):
    return float(np.dot(x, x))


class TestDeParams:
    def test_defaults_valid(self):
        DeParams()

    @pytest.mark.parametrize("kwargs", [
        {"population_size": 3},
        {"mutation_factor": 0.0},
        {"mutation_factor": 2.5},
        {"crossover_rate": -0.1},
        {"crossover_rate": 1.5},
        {"max_generations": 0},
        {"tolerance": -1e-9},
        {"seed": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DeParams(**kwargs)

    @pytest.mark.parametrize("name", ["mutation_factor", "crossover_rate", "tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite_values(self, name, value):
        with pytest.raises(ValueError, match=name):
            DeParams(**{name: value})


class TestConvergence:
    def test_sphere(self):
        res = de_minimize(batched(sphere, no_violation), LO4, HI4,
                          DeParams(population_size=40, max_generations=300,
                                   tolerance=0.0, seed=7))
        assert res.feasible
        assert res.best_objective < 1e-6
        assert np.all(np.abs(res.best_vector) < 2e-3)

    def test_linear_reaches_corner(self):
        lo, hi = np.full(3, 1.0), np.full(3, 3.0)
        res = de_minimize(batched(lambda x: float(np.sum(x)), no_violation), lo, hi,
                          DeParams(population_size=30, max_generations=200,
                                   tolerance=0.0, seed=11))
        assert np.allclose(res.best_vector, 1.0, atol=1e-9)
        assert res.best_objective == pytest.approx(3.0, abs=1e-8)

    def test_constraint_boundary(self):
        # Objective pulls left, feasibility requires x0 >= 1.
        res = de_minimize(
            batched(lambda x: float(x[0]), lambda x: max(0.0, 1.0 - float(x[0]))),
            np.array([0.0]), np.array([3.0]),
            DeParams(population_size=20, max_generations=200, tolerance=0.0, seed=3),
        )
        assert res.feasible
        assert res.best_violation == 0.0
        assert res.best_objective == pytest.approx(1.0, abs=1e-3)


class TestFeasibilityOrdering:
    def test_feasible_never_displaced_by_infeasible(self):
        # The objective rewards the infeasible region; a feasible point must
        # still win once one has been seen.
        seen_feasible = []

        def violation(x):
            v = max(0.0, float(x[0]) - 1.1)
            if v == 0.0:
                seen_feasible.append(x.copy())
            return v

        res = de_minimize(
            batched(lambda x: -float(x[0]), violation),
            np.array([1.0]), np.array([5.0]),
            DeParams(population_size=30, max_generations=50, tolerance=0.0, seed=5),
        )
        assert seen_feasible, "seed must produce at least one feasible evaluation"
        assert res.feasible
        assert res.best_vector[0] <= 1.1 + 1e-12

    def test_all_infeasible_returns_least_violating(self):
        res = de_minimize(
            batched(lambda x: float(x[0]), lambda x: 1.0 + float(x[0]) ** 2),
            np.array([-2.0]), np.array([2.0]),
            DeParams(population_size=15, max_generations=60, tolerance=0.0, seed=9),
        )
        assert not res.feasible
        assert res.best_violation == pytest.approx(1.0, abs=1e-4)


class TestDeterminism:
    def test_same_seed_bitwise(self):
        p = DeParams(population_size=25, max_generations=40, tolerance=0.0, seed=123)
        a = de_minimize(batched(sphere, no_violation), LO4, HI4, p)
        b = de_minimize(batched(sphere, no_violation), LO4, HI4, p)
        assert np.array_equal(a.best_vector, b.best_vector)
        assert a.best_objective == b.best_objective
        assert a.generations_used == b.generations_used

    def test_generation_prefix_monotone(self):
        # With a fixed seed, running g generations extends the same trajectory,
        # so the incumbent can only improve.
        prev = None
        for g in range(1, 12):
            res = de_minimize(batched(sphere, no_violation), LO4, HI4,
                              DeParams(population_size=20, max_generations=g,
                                       tolerance=0.0, seed=42))
            if prev is not None:
                assert res.best_objective <= prev + 1e-15
            prev = res.best_objective

    @pytest.mark.parametrize("budget", [31, 32, 33, 64])
    def test_budget_run_is_prefix_of_longer_run(self, budget):
        # The draws of generation g depend only on the seed and g, also
        # across the block boundaries, whatever max_generations is.
        def populations(g):
            seen = []
            evaluate = batched(sphere, no_violation)

            def recording(pop):
                seen.append(pop.copy())
                return evaluate(pop)

            res = de_minimize(recording, LO4, HI4,
                              DeParams(population_size=12, max_generations=g,
                                       tolerance=0.0, seed=17))
            assert res.generations_used == g
            return seen

        short, long = populations(budget), populations(budget + 1)
        assert len(short) == budget + 1 and len(long) == budget + 2
        for a, b in zip(short, long):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("objective, past_first_block",
                             [(lambda x: 1.0, False), (sphere, True)], ids=["flat", "sphere"])
    def test_memory_bounded_by_one_block(self, objective, past_first_block):
        tracemalloc.start()
        try:
            res = de_minimize(batched(objective, no_violation), LO4, HI4,
                              DeParams(population_size=20, max_generations=10**7,
                                       tolerance=1e-6, seed=8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.stop_reason == "tolerance"
        assert (res.generations_used > 32) == past_first_block
        assert peak < 5 * 2**20


class TestMechanics:
    def test_all_evaluations_within_bounds(self):
        lo = np.array([-1.0, 0.0, 2.0])
        hi = np.array([1.0, 0.5, 2.5])
        seen = []

        def f(x):
            seen.append(x.copy())
            return sphere(x)

        res = de_minimize(batched(f, no_violation), lo, hi,
                          DeParams(population_size=20, max_generations=30, seed=1))
        arr = np.array(seen)
        assert np.all(arr >= lo - 1e-15) and np.all(arr <= hi + 1e-15)
        assert np.all(res.best_vector >= lo) and np.all(res.best_vector <= hi)

    def test_default_population_is_ten_per_dimension(self):
        rows = []
        evaluate = batched(sphere, no_violation)

        def counting(pop):
            rows.append(len(pop))
            return evaluate(pop)

        res = de_minimize(counting, LO4, HI4,
                          DeParams(max_generations=1, tolerance=0.0, seed=2))
        # init evaluations + one generation of trials: 2 * pop rows,
        # one call each
        assert rows == [10 * 4, 10 * 4]
        assert res.evaluations == 2 * 10 * 4

    def test_degenerate_equal_bounds(self):
        lo = np.array([2.0, 600.0])
        res = de_minimize(batched(sphere, no_violation), lo, lo.copy(),
                          DeParams(population_size=8, max_generations=5, seed=0))
        assert np.array_equal(res.best_vector, lo)

    def test_early_stop_on_flat_objective(self):
        res = de_minimize(batched(lambda x: 1.0, no_violation), LO4, HI4,
                          DeParams(population_size=12, max_generations=500,
                                   tolerance=1e-8, seed=6))
        assert res.generations_used == 0
        assert res.stop_reason == "tolerance"
        assert res.evaluations == 12

    def test_budget_stop_counts_every_row(self):
        res = de_minimize(batched(sphere, no_violation), LO4, HI4,
                          DeParams(population_size=12, max_generations=7,
                                   tolerance=0.0, seed=6))
        assert res.generations_used == 7
        assert res.stop_reason == "budget"
        assert res.evaluations == 12 * (1 + 7)

    def test_tolerance_stop_after_some_generations(self):
        res = de_minimize(batched(sphere, no_violation), LO4, HI4,
                          DeParams(population_size=20, max_generations=2000,
                                   tolerance=1e-6, seed=8))
        assert 0 < res.generations_used < 2000
        assert res.stop_reason == "tolerance"
        assert res.evaluations == 20 * (1 + res.generations_used)

    def test_result_vector_isolated_from_later_runs(self):
        res = de_minimize(batched(sphere, no_violation), LO4, HI4,
                          DeParams(population_size=10, max_generations=5, seed=4))
        orig = res.best_vector.copy()
        res.best_vector[0] = 99.0
        res2 = de_minimize(batched(sphere, no_violation), LO4, HI4,
                           DeParams(population_size=10, max_generations=5, seed=4))
        assert np.array_equal(res2.best_vector, orig)


class TestErrors:
    def test_bad_bounds(self):
        with pytest.raises(BadBounds):
            de_minimize(batched(sphere, no_violation), np.zeros(3), np.ones(2), DeParams())
        with pytest.raises(BadBounds):
            de_minimize(batched(sphere, no_violation), np.ones(2), np.zeros(2), DeParams())
        with pytest.raises(BadBounds):
            de_minimize(batched(sphere, no_violation), np.array([0.0, np.nan]),
                        np.ones(2), DeParams())

    def test_span_beyond_largest_float(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(BadBounds, match=r"upper\[1\] - lower\[1\] must be finite"):
                de_minimize(batched(sphere, no_violation), np.array([0.0, -1.7e308]),
                            np.array([1.0, 1.7e308]), DeParams())

    def test_nonfinite_objective(self):
        def f(x):
            return float("nan") if x[0] > 0 else sphere(x)

        with pytest.raises(NonFiniteObjective, match="objective returned nan"):
            de_minimize(batched(f, no_violation), LO4, HI4,
                        DeParams(population_size=20, max_generations=10, seed=1))

    def test_nonfinite_violation(self):
        def v(x):
            return float("inf") if x[1] > 4.0 else 0.0

        with pytest.raises(NonFiniteObjective, match="violation returned inf"):
            de_minimize(batched(sphere, v), LO4, HI4,
                        DeParams(population_size=20, max_generations=10, seed=1))

    def test_negative_violation(self):
        with pytest.raises(ValueError, match="violation returned -1.0"):
            de_minimize(batched(sphere, lambda x: -1.0), LO4, HI4,
                        DeParams(population_size=8, max_generations=3, seed=1))

    def test_wrong_result_shape(self):
        def evaluate(pop):
            return np.zeros(len(pop) - 1), np.zeros(len(pop))

        with pytest.raises(ValueError, match="evaluate must return"):
            de_minimize(evaluate, LO4, HI4, DeParams(population_size=8, seed=1))


class TestCheckedScores:
    POP = np.array([[0.5, 1.0], [2.0, -3.0]])

    @pytest.mark.parametrize("buffer", [False, True])
    def test_finite_scores_whose_total_overflows_pass_silently(self, buffer):
        # Each value is finite; only their sum overflows, and no warning
        # is raised on the way.
        finite = np.empty((2, 2), dtype=bool) if buffer else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, v = checked_scores(self.POP, [1e308, 1e308], [1.7e308, 1.7e308], finite)
        assert f.tolist() == [1e308, 1e308] and v.tolist() == [1.7e308, 1.7e308]

    @pytest.mark.parametrize("f, v, error, message", [
        ([1.0, np.nan], [0.0, 0.0], NonFiniteObjective, "objective returned nan at [2.0, -3.0]"),
        ([-np.inf, 1.0], [0.0, 0.0], NonFiniteObjective, "objective returned -inf at [0.5, 1.0]"),
        ([1.0, 2.0], [0.0, np.inf], NonFiniteObjective, "violation returned inf at [2.0, -3.0]"),
        # The objective is named first, and a non-finite value before a
        # negative violation.
        ([np.nan, 1.0], [np.inf, 0.0], NonFiniteObjective, "objective returned nan at [0.5, 1.0]"),
        ([1.0, 2.0], [-1.0, np.nan], NonFiniteObjective, "violation returned nan at [2.0, -3.0]"),
        ([1.0, 2.0], [0.0, -0.5], ValueError, "violation returned -0.5 at [2.0, -3.0], must be >= 0"),
    ])
    @pytest.mark.parametrize("buffer", [False, True])
    def test_refusals_keep_their_types_and_messages(self, f, v, error, message, buffer):
        finite = np.empty((2, 2), dtype=bool) if buffer else None
        with pytest.raises(error) as info:
            checked_scores(self.POP, f, v, finite)
        assert type(info.value) is error and str(info.value) == message

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match=r"evaluate must return two \(2,\) arrays, got \(1,\) and \(2,\)"):
            checked_scores(self.POP, [1.0], [0.0, 0.0])


def _deb_not_worse(f_a, v_a, f_b, v_b):
    """Scalar feasibility-first comparison: the oracle for not_worse."""
    if v_a == 0.0 and v_b == 0.0:
        return f_a <= f_b
    if v_a == 0.0:
        return True
    if v_b == 0.0:
        return False
    return v_a <= v_b


def _best_index(fs, vs):
    """Scalar incumbent scan: the oracle for incumbent."""
    best = 0
    for i in range(1, len(fs)):
        if not _deb_not_worse(fs[best], vs[best], fs[i], vs[i]):
            best = i
    return best


class TestBatchedSelection:
    # Objectives with a tie, violations with 0 and a tie among positives.
    F = (1.0, 2.0, 2.0, -3.0)
    V = (0.0, 0.5, 0.5, 1.0)

    def test_not_worse_matches_scalar_rule(self):
        pairs = list(itertools.product(itertools.product(self.F, self.V), repeat=2))
        f_a, v_a, f_b, v_b = (np.array(col) for col in zip(*(a + b for a, b in pairs)))
        got = not_worse(f_a, v_a, f_b, v_b, np.empty((2, len(pairs)), dtype=bool))
        want = [_deb_not_worse(*a, *b) for a, b in pairs]
        assert got.tolist() == want
        # every feasibility pairing and both tie kinds are covered
        assert {(a[1] == 0.0, b[1] == 0.0) for a, b in pairs} == {
            (True, True), (True, False), (False, True), (False, False)}
        assert any(a[1] == 0.0 == b[1] and a[0] == b[0] for a, b in pairs)
        assert any(0.0 < a[1] == b[1] for a, b in pairs)

    def test_not_worse_into_a_buffer(self):
        pairs = list(itertools.product(itertools.product(self.F, self.V), repeat=2))
        f_a, v_a, f_b, v_b = (np.array(col) for col in zip(*(a + b for a, b in pairs)))
        # What the buffer held before does not reach the answer.
        out = np.ones((2, len(pairs)), dtype=bool)
        got = not_worse(f_a, v_a, f_b, v_b, out)
        assert np.shares_memory(got, out[0])
        assert got.tolist() == [_deb_not_worse(*a, *b) for a, b in pairs]

    def test_incumbent_matches_scalar_scan(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(4, 12))
            fs = rng.choice(self.F, n)
            vs = rng.choice(self.V, n)
            assert incumbent(fs, vs) == _best_index(fs, vs)

    def test_incumbent_first_of_ties(self):
        assert incumbent(np.array([3.0, 1.0, 1.0]), np.zeros(3)) == 1
        assert incumbent(np.array([0.0, -1.0, -1.0]), np.array([0.5, 0.2, 0.2])) == 1
        assert incumbent(np.array([0.0, 9.0, 5.0]), np.array([0.5, 0.0, 0.0])) == 2

    @pytest.mark.parametrize("pop_size", [4, 5, 17, 40])
    def test_donors_distinct_and_not_self(self, pop_size):
        rng = np.random.default_rng(pop_size)
        block = donor_indices(rng, pop_size, 500)
        assert block.shape == (500, 3, pop_size)
        seen = np.zeros((pop_size, pop_size), dtype=int)
        rows = np.arange(pop_size)[:, None]
        for generation in block:
            donors = generation.T
            assert np.all((donors >= 0) & (donors < pop_size))
            assert np.all(donors != rows)
            assert np.all(donors[:, 0] != donors[:, 1])
            assert np.all(donors[:, 0] != donors[:, 2])
            assert np.all(donors[:, 1] != donors[:, 2])
            np.add.at(seen, (np.repeat(rows, 3, axis=1), donors), 1)
        # every other member gets drawn as a donor of every row
        off_diagonal = ~np.eye(pop_size, dtype=bool)
        assert np.all(seen[off_diagonal] > 0)

    def test_donor_triples_uniform(self):
        # Each member's ordered triple of donors is one of (P-1)(P-2)(P-3)
        # equally likely ones: 24 at P=5, about 833 draws each here.
        pop_size, generations = 5, 20000
        block = donor_indices(np.random.default_rng(3), pop_size, generations)
        for member in range(pop_size):
            r1, r2, r3 = block[:, :, member].T
            counts = np.bincount((r1 * pop_size + r2) * pop_size + r3,
                                 minlength=pop_size**3)
            counts = counts[counts > 0]
            assert len(counts) == 24
            expected = generations / 24
            assert np.all(np.abs(counts - expected) < 0.15 * expected)

    def test_one_evaluate_call_per_generation(self):
        calls = []
        evaluate = batched(sphere, no_violation)

        def counting(pop):
            calls.append(pop.shape)
            return evaluate(pop)

        res = de_minimize(counting, LO4, HI4,
                          DeParams(population_size=16, max_generations=9,
                                   tolerance=0.0, seed=3))
        assert calls == [(16, 4)] * (1 + res.generations_used)


def test_agrees_with_scipy_differential_evolution():
    optimize = pytest.importorskip("scipy.optimize")
    lo, hi = np.full(3, -2.0), np.full(3, 4.0)
    target = np.array([1.5, -0.5, 3.0])

    def shifted_sphere(pop):
        return np.sum((pop - target) ** 2, axis=1)

    ours = de_minimize(lambda pop: (shifted_sphere(pop), np.zeros(len(pop))), lo, hi,
                       DeParams(population_size=30, max_generations=300,
                                tolerance=0.0, seed=4))
    theirs = optimize.differential_evolution(
        lambda x: shifted_sphere(np.atleast_2d(x.T)), list(zip(lo, hi)),
        strategy="rand1bin", popsize=10, mutation=0.7, recombination=0.9,
        maxiter=300, tol=0.0, polish=False, seed=4, vectorized=True,
        updating="deferred")
    assert np.allclose(ours.best_vector, target, atol=1e-6)
    assert np.allclose(theirs.x, target, atol=1e-6)
    assert ours.best_objective == pytest.approx(theirs.fun, abs=1e-10)
