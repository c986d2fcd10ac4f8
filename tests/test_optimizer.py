import hashlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from alertmpc.optimizer import (
    DeParams,
    NonFiniteObjective,
    checked_scores,
    de_minimize,
    donor_indices,
    draw_block,
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


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestDrawPins:
    """One block's draws, bit for bit: the donors and the complement of
    the crossover masks, by seed, population and dimension.  A trace pin
    sees a changed draw only through a whole closed loop."""

    # (seed, P, D, crossover_rate): donors' digest, masks' digest.  Case 1's
    # MPC2 search is 40 rows of 8 dimensions.
    PINS = {
        (0, 4, 1, 0.9): ("6f6dd66afd6fefb29ffd221ad9cd29c3b548b14c8bdf7e4495b66df07f6addbe",
                         "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca"),
        (42, 17, 5, 0.5): ("103a503e12fbbb6d47d67bc47172bb00c866d649663d04fb1226f0ae2a0ebd49",
                           "1d825247f6d99428c7c206f20ed9611ff6d5384c8441658e2b0db5f0294a965c"),
        (901, 40, 8, 0.9): ("ddc935b0f29686f0ccce952eeec2c76bc9a63c75518acf7c064148b396ab5cbb",
                            "9723cf31a12799870c0f463493b0053149879dda79f023b043f5b1b0629a1950"),
        (3, 80, 24, 0.9): ("955fe2c1141dcfaf888f6e2762ba29996ff6038d4fbec8c08926ed16dc3bf436",
                           "fc8672f229b3c8aa3ac7bf4367525d2df7f73b8b4ce5f7f9547f826316994b9f"),
    }

    @pytest.mark.parametrize("seed, pop_size, dim, crossover_rate", sorted(PINS))
    def test_block(self, seed, pop_size, dim, crossover_rate):
        rng = np.random.Generator(np.random.PCG64(seed))
        donors, keep = draw_block(rng, pop_size, dim, crossover_rate)
        assert (donors.dtype, donors.shape, donors.flags.c_contiguous) == (np.int64, (32, 3, pop_size), True)
        assert (keep.dtype, keep.shape) == (bool, (32, pop_size, dim))
        assert (sha256(donors), sha256(keep)) == self.PINS[seed, pop_size, dim, crossover_rate]

    @pytest.mark.parametrize("seed, pop_size, dim, crossover_rate", sorted(PINS))
    def test_donors_open_the_block(self, seed, pop_size, dim, crossover_rate):
        donors = donor_indices(np.random.Generator(np.random.PCG64(seed)), pop_size, 32)
        assert sha256(donors) == self.PINS[seed, pop_size, dim, crossover_rate][0]


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


def scripted(objectives, violations):
    """evaluate(pop) whose k-th call returns objectives[k] and violations[k]
    (None: every row feasible), whatever the rows."""
    calls = iter(zip(objectives, violations))

    def evaluate(pop):
        f, v = next(calls)
        return np.array(f), None if v is None else np.array(v)

    return evaluate


def full_test_stop(objectives, violations, tolerance):
    """The generations a search of these scripted scores runs, and why it
    stops, by the full test: before each generation, every member feasible
    and max - min < tolerance.  The search's selection is replayed row by
    row; objectives[0] is the first population's, each later one a
    generation's trials."""
    zeros = [0.0] * len(objectives[0])
    fs, vs = list(objectives[0]), list(violations[0] or zeros)
    for gen, (f_t, v_t) in enumerate(zip(objectives[1:], violations[1:])):
        if not any(vs) and max(fs) - min(fs) < tolerance:
            return gen, "tolerance"
        for i, (f, v) in enumerate(zip(f_t, v_t or zeros)):
            if _deb_not_worse(f, v, fs[i], vs[i]):
                fs[i], vs[i] = f, v
    return len(objectives) - 1, "budget"


@st.composite
def stop_cases(draw):
    """Scripted scores of a few generations: objectives drawn from a base
    value and offsets at, one unit in the last place either side of, half
    and twice the tolerance; rows 0 and P-1 often tied; violations of
    None, zeros or 0 and 1."""
    rows, generations = draw(st.integers(4, 6)), draw(st.integers(1, 6))
    tolerance = draw(st.sampled_from([0.0, 1e-8, 0.25, 1.0]))
    base = draw(st.sampled_from([0.0, 1.0, -3.0, 1e6]))
    near = [tolerance, np.nextafter(tolerance, 0.0), np.nextafter(tolerance, np.inf), tolerance / 2, 2 * tolerance]
    values = st.sampled_from([base] + [float(base + sign * x) for x in near for sign in (1, -1)])
    tie = draw(st.booleans())
    objectives = []
    for _ in range(generations + 1):
        f = draw(st.lists(values, min_size=rows, max_size=rows))
        if tie:
            f[-1] = f[0]
        objectives.append(f)
    kind = draw(st.sampled_from(["none", "zeros", "drawn"]))
    if kind == "none":
        violations = [None] * (generations + 1)
    else:
        violation = st.sampled_from([0.0, 1.0] if kind == "drawn" else [0.0])
        violations = [draw(st.lists(violation, min_size=rows, max_size=rows)) for _ in objectives]
    return objectives, violations, tolerance


class TestSpreadStop:
    @pytest.mark.parametrize("violations", [None, [0.0] * 4])
    def test_tied_end_members_do_not_stop_the_search(self, violations):
        # Rows 0 and P-1 tie exactly, row 1 lies twice the tolerance away,
        # and no trial is taken: the spread never falls below the tolerance.
        first, trials = [1.0, 1.0 + 2e-8, 1.0, 1.0], [2.0] * 4
        evaluate = scripted([first] + [trials] * 5, [violations] * 6)
        res = de_minimize(evaluate, LO4, HI4,
                          DeParams(population_size=4, max_generations=5, tolerance=1e-8, seed=1))
        assert (res.generations_used, res.stop_reason) == (5, "budget")

    @settings(max_examples=300, deadline=None)
    @given(stop_cases())
    # Equal ends with the spread one unit in the last place under the
    # tolerance and exactly at it, and a tolerance of zero, which stops
    # nothing.
    @example(([[1.0, float(np.nextafter(1.25, 0.0)), 1.0, 1.0]] * 2, [None] * 2, 0.25))
    @example(([[1.0, 1.25, 1.0, 1.0]] * 2, [None] * 2, 0.25))
    @example(([[1.0] * 4] * 3, [[0.0] * 4] * 3, 0.0))
    def test_stops_where_the_full_test_stops(self, case):
        objectives, violations, tolerance = case
        generations = len(objectives) - 1
        res = de_minimize(scripted(objectives, violations), LO4, HI4,
                          DeParams(population_size=len(objectives[0]), max_generations=generations,
                                   tolerance=tolerance, seed=2))
        assert (res.generations_used, res.stop_reason) == full_test_stop(objectives, violations, tolerance)


class TestFeasibleByProof:
    """evaluate returning None as the violation: every row is feasible."""

    @staticmethod
    def searches(objective, lo, hi, params):
        """The search with zero violations and with None."""
        def zeros(pop):
            return objective(pop), np.zeros(len(pop))

        def none(pop):
            return objective(pop), None

        return de_minimize(zeros, lo, hi, params), de_minimize(none, lo, hi, params)

    @pytest.mark.parametrize("seed, pop_size, dim, generations", [
        (0, 4, 1, 40), (3, 12, 3, 200), (42, 40, 8, 60), (9, 25, 4, 33), (11, 80, 24, 5)])
    # The sphere, and a staircase whose ties take the trial.
    @pytest.mark.parametrize("objective", [
        lambda pop: (pop * pop).sum(axis=1),
        lambda pop: np.floor(np.abs(pop).sum(axis=1)),
    ], ids=["sphere", "steps"])
    def test_none_equals_zero_violations(self, seed, pop_size, dim, generations, objective):
        lo, hi = np.full(dim, -5.0), np.full(dim, 5.0)
        params = DeParams(population_size=pop_size, max_generations=generations, seed=seed)
        zeros, none = self.searches(objective, lo, hi, params)
        assert zeros.best_vector.tobytes() == none.best_vector.tobytes()
        assert ((zeros.best_objective, zeros.best_violation, zeros.generations_used, zeros.evaluations,
                 zeros.stop_reason)
                == (none.best_objective, none.best_violation, none.generations_used, none.evaluations,
                    none.stop_reason))
        assert none.best_violation == 0.0 and none.feasible

    def test_both_stop_reasons_are_covered(self):
        params = DeParams(population_size=12, max_generations=60, seed=3)
        flat = self.searches(lambda pop: np.floor(np.abs(pop).sum(axis=1)), LO4, HI4, params)
        sphere = self.searches(lambda pop: (pop * pop).sum(axis=1), LO4, HI4, params)
        assert [r.stop_reason for r in (*flat, *sphere)] == ["tolerance"] * 2 + ["budget"] * 2

    def test_objective_alone_is_checked(self):
        def evaluate(pop):
            return np.where(pop[:, 0] > 0, np.nan, 0.0), None

        with pytest.raises(NonFiniteObjective, match="objective returned nan"):
            de_minimize(evaluate, LO4, HI4, DeParams(population_size=20, max_generations=10, seed=1))


class TestErrors:
    def test_nonfinite_objective(self):
        def f(x):
            return float("nan") if x[0] > 0 else sphere(x)

        with pytest.raises(NonFiniteObjective, match="objective returned nan"):
            de_minimize(batched(f, no_violation), LO4, HI4,
                        DeParams(population_size=20, max_generations=10, seed=1))


class TestCheckedScores:
    POP = np.array([[0.5, 1.0], [2.0, -3.0]])

    # held: what the finiteness buffer holds before the call, which must
    # not reach the answer.
    @pytest.mark.parametrize("held", [False, True])
    def test_finite_scores_whose_total_overflows_pass_silently(self, held):
        # Each value is finite; only their sum overflows, and no warning
        # is raised on the way.  The violations come back as given.
        violations = [1.7e308, 1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, v = checked_scores(self.POP, [1e308, 1e308], violations, np.full(2, held))
        assert f.tolist() == [1e308, 1e308] and v is violations

    @pytest.mark.parametrize("f, v, error, message", [
        ([1.0, np.nan], [0.0, 0.0], NonFiniteObjective, "objective returned nan at [2.0, -3.0]"),
        ([-np.inf, 1.0], [0.0, 0.0], NonFiniteObjective, "objective returned -inf at [0.5, 1.0]"),
        # The violations are evaluate's to keep finite and >= 0, and are
        # not read: beside a non-finite objective, a violation that is not
        # finite or is negative is never named.
        ([1.0, np.nan], [0.0, np.inf], NonFiniteObjective, "objective returned nan at [2.0, -3.0]"),
        ([np.nan, 1.0], [np.inf, 0.0], NonFiniteObjective, "objective returned nan at [0.5, 1.0]"),
        ([1.0, np.inf], [-1.0, np.nan], NonFiniteObjective, "objective returned inf at [2.0, -3.0]"),
        ([-np.inf, 2.0], [0.0, -0.5], NonFiniteObjective, "objective returned -inf at [0.5, 1.0]"),
        # Without violations the first non-finite objective is named, also
        # among values whose sum would overflow or be nan.
        ([1.0, np.nan], None, NonFiniteObjective, "objective returned nan at [2.0, -3.0]"),
        ([-np.inf, np.inf], None, NonFiniteObjective, "objective returned -inf at [0.5, 1.0]"),
        ([1e308, np.inf], None, NonFiniteObjective, "objective returned inf at [2.0, -3.0]"),
    ])
    @pytest.mark.parametrize("held", [False, True])
    def test_refusals_keep_their_types_and_messages(self, f, v, error, message, held):
        with pytest.raises(error) as info:
            checked_scores(self.POP, f, v, np.full(2, held))
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("held", [False, True])
    def test_finite_objectives_whose_total_overflows_pass_alone(self, held):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, v = checked_scores(self.POP, [1e308, 1e308], None, np.full(2, held))
        assert f.tolist() == [1e308, 1e308] and v is None


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
