"""Box-constrained differential evolution with feasibility-first selection.

Classic DE/rand/1/bin over a whole population at a time: donors and
crossover masks are drawn as arrays, a block of generations at a time,
and each generation scores every trial with one call of the caller's
evaluate(pop) -> (objective, violation).  Candidates are compared by
constraint violation before objective: any feasible point beats any
infeasible one, two infeasible points compare on violation, two feasible
ones on objective.  A caller that knows every point of the box is
feasible returns None as the violation, and the search compares on the
objective alone, keeping no violations.  Mutants are clipped back into
the box, so bound-hitting optima are reachable exactly.  Runs are
bit-reproducible for a fixed seed.

The search takes on trust what its caller guarantees once.  solve, its
caller in the package, builds the box from an MpcConfig, which refused
any bound that is not finite or lies outside its range, any inverted
pair and any horizon under 1 when it was built; and HorizonKernel, its
evaluate, returns (rows,) arrays whose violations are finite and >= 0,
or None as the violation in every call once restrict_to_box has run.
What no caller can rule out is a prediction that overflows: each
generation's objectives go through checked_scores, which refuses a NaN
or an infinity as NonFiniteObjective.

Before each generation the search stops once every member is feasible
and the objectives' spread, max - min, is below the tolerance.  The
first and the last member settle that test whenever they lie at least
the tolerance apart, so most generations skip its reductions and stop
where the full test would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


# Generations whose random draws are made together, whatever the budget.
_BLOCK = 32

# The ufuncs and ufunc methods the search calls every generation, bound
# once: at 40 rows a call costs little more than its dispatch.  Calls pass
# out positionally, except to np.maximum and np.minimum, whose third
# positional argument numpy 2.4 deprecates.
_add, _subtract, _multiply, _maximum, _minimum = np.add, np.subtract, np.multiply, np.maximum, np.minimum
_less_equal, _logical_or, _isfinite, _greater_equal = np.less_equal, np.logical_or, np.isfinite, np.greater_equal
_or_reduce, _max_reduce, _min_reduce = np.logical_or.reduce, np.maximum.reduce, np.minimum.reduce
_count_nonzero = np.count_nonzero


def search_nbytes(pop_size: int, dim: int) -> int:
    """Bytes de_minimize allocates for P = pop_size rows of D = dim, at most:
    56 per row and dimension for its population, donors, trials and box
    rows; a block of draws, the larger of nine (_BLOCK, P) index arrays,
    which bound the donors and their buffers as they are drawn, and its
    float64 uniforms beside their mask and the donors, (_BLOCK, 3, P); the
    box, the scores and 16 KB for small objects.  The last block is
    dropped before the next is drawn."""
    index_bytes = 8 * _BLOCK * pop_size
    drawing = max(9 * index_bytes, 3 * index_bytes + 9 * _BLOCK * pop_size * dim)
    return 56 * pop_size * dim + drawing + 24 * dim + 48 * pop_size + 16384


class NonFiniteObjective(RuntimeError):
    """An objective is NaN or infinite: its prediction overflowed."""


@dataclass(frozen=True)
class DeParams:
    """Search budget and variation settings.

    population_size of None means 10x the problem dimension (a config
    file spells it auto; see population_for).  tolerance
    controls early stopping: the search halts once every member is
    feasible and the population's objective spread falls below it.
    """

    population_size: int | None = field(default=None, metadata={"config_none": "auto"})
    mutation_factor: float = 0.7
    crossover_rate: float = 0.9
    max_generations: int = 200
    tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.population_size is not None and self.population_size < 4:
            raise ValueError(f"population_size must be >= 4, got {self.population_size}")
        if not 0.0 < self.mutation_factor <= 2.0:
            raise ValueError(f"mutation_factor must lie in (0, 2], got {self.mutation_factor}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover_rate must lie in [0, 1], got {self.crossover_rate}")
        if self.max_generations < 1:
            raise ValueError(f"max_generations must be >= 1, got {self.max_generations}")
        if not (np.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def population_for(self, dim: int) -> int:
        """Population size of a search over dim dimensions."""
        return 10 * dim if self.population_size is None else self.population_size


@dataclass(frozen=True)
class DeResult:
    """Best member found, plus how the search ended.

    evaluations counts evaluated rows (population members and trials);
    stop_reason is "tolerance" when the spread test stopped the search
    and "budget" when it ran max_generations.
    """

    best_vector: np.ndarray
    best_objective: float
    best_violation: float
    generations_used: int
    evaluations: int
    stop_reason: str

    @property
    def feasible(self) -> bool:
        """True exactly when the best member's violation is zero."""
        return self.best_violation == 0.0


def not_worse(f_a, v_a, f_b, v_b, out: np.ndarray) -> np.ndarray:
    """Elementwise: is (f_a, v_a) at least as good as (f_b, v_b)?

    Feasibility first: two feasible points compare on objective,
    otherwise the smaller violation wins (a feasible point has violation
    0, so it beats every infeasible one).  Violations are >= 0, as
    HorizonKernel.evaluate returns them: it floors each step's excess at
    zero and saturates their sum at the largest float.

    out, a (2, n) bool array for n points or a pair of its rows, takes
    the answer in its first row and uses the second as scratch.  Returns
    the answer.  A search passes the pair, built once.
    """
    take, infeasible = out
    _less_equal(f_a, f_b, take)
    # Nonzero is infeasible: where either point is, the violations decide.
    _logical_or(v_a, v_b, infeasible)
    _less_equal(v_a, v_b, take, where=infeasible)
    return take


def incumbent(fs: np.ndarray, vs: np.ndarray | None) -> int:
    """Index of the best member: the first minimum of the objective among
    feasible members, else the first minimum of the violation.  vs of
    None: every member is feasible."""
    if vs is None:
        return int(np.argmin(fs))
    feasible = vs == 0.0
    if feasible.any():
        return int(np.argmin(np.where(feasible, fs, np.inf)))
    return int(np.argmin(vs))


def donor_indices(rng: np.random.Generator, pop_size: int, generations: int) -> np.ndarray:
    """(generations, 3, pop_size) donors: per generation and member three
    distinct indices, none the member.

    Each donor is a uniform draw over the indices its member has not yet
    taken, shifted past the taken ones in increasing order.
    """
    shape = (generations, pop_size)
    donors = np.empty((generations, 3, pop_size), dtype=np.int64)
    # The indices taken, kept in increasing order, and the buffers that
    # the shift's comparison and the insertion's smaller index go to.
    members, spare = np.empty((2, *shape), dtype=np.int64)
    members[...] = np.arange(pop_size)
    taken, past = [members], np.empty(shape, dtype=bool)
    for k in range(3):
        draw = rng.integers(pop_size - 1 - k, size=shape)
        for index in taken:
            _greater_equal(draw, index, past)
            _add(draw, past, draw)
        donors[:, k] = draw
        if k == 2:
            break  # no later draw reads the ordered list
        # Insert the new donor into the ordered list by compare-and-swap:
        # the smaller index takes the slot, the larger moves on as draw.
        for i, index in enumerate(taken):
            _minimum(index, draw, out=spare)
            _maximum(index, draw, out=draw)
            taken[i], spare = spare, index
        taken.append(draw)
    return donors


def draw_block(rng: np.random.Generator, pop_size: int, dim: int, crossover_rate: float):
    """One block of _BLOCK generations' draws, in this order: the donors
    (_BLOCK, 3, pop_size) of donor_indices, then the complement of the
    crossover masks, (_BLOCK, pop_size, dim), true where a trial keeps its
    member's value, and last each trial's forced crossover column."""
    donors = donor_indices(rng, pop_size, _BLOCK)
    keep = rng.random((_BLOCK, pop_size, dim)) >= crossover_rate
    # Each trial's forced column, as a flat index into keep.
    forced = rng.integers(dim, size=_BLOCK * pop_size)
    _add(forced, np.arange(0, keep.size, dim), forced)
    keep.reshape(-1)[forced] = False
    return donors, keep


def checked_scores(pop: np.ndarray, f, v, finite: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The objectives f of the rows pop as a float array, and their
    violations v as given.

    Raises NonFiniteObjective, naming the first, on an objective that is
    NaN or infinite.  f holds one value per row, and v is None or one
    finite value >= 0 per row, as de_minimize's evaluate returns them;
    their shapes and v are not checked.  finite, a (len(pop),) bool array
    that the caller makes once, takes the finiteness test, as not_worse's
    out takes the comparison.  The test is one count of the finite values:
    a sum of the objectives would settle it as well, but numpy warns when
    finite values overflow their sum.
    """
    f = np.asarray(f, float)
    if _count_nonzero(_isfinite(f, finite)) < len(pop):
        i = int(np.argmin(finite))
        raise NonFiniteObjective(f"objective returned {f[i]} at {pop[i].tolist()}")
    return f, v


def de_minimize(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]],
    lower: np.ndarray,
    upper: np.ndarray,
    params: DeParams,
) -> DeResult:
    """Minimize the objective subject to violation == 0 inside the box.

    lower and upper are float arrays of one bound per dimension, one or
    more: finite, lower <= upper, with finite spans, as solve builds them
    from a valid MpcConfig.  They are not checked again here.

    evaluate(pop) scores a (P, D) population at once and returns the
    objective and the violation, each a (P,) array.  The violation is
    finite and >= 0, zero exactly on the feasible set; the objective may
    be NaN or infinite only where a prediction overflows, which raises
    NonFiniteObjective.  evaluate must be pure and score each row
    independently of the others.  The array it is given is a buffer that
    the next generation overwrites.

    A violation of None, in every call, means that every row is feasible:
    the search selects a trial whose objective is at most its member's,
    stops on the objective's spread alone, keeps no violations and
    reports best_violation 0.0.  Those are the choices it makes when
    every violation is zero, so both give the same result.

    The initial population is drawn first; then, right before
    generations 0, _BLOCK, 2 * _BLOCK, ... run, the donors, crossover
    masks and forced crossover columns of the next _BLOCK generations.
    The draws depend only on the seed and the generation index, so a run
    with a budget of g generations is a prefix of one with g + 1.
    """
    dim = lower.size
    pop_size = params.population_for(dim)
    # A 0-d array: a ufunc converts a Python float operand on every call.
    factor = np.array(params.mutation_factor)

    rng = np.random.Generator(np.random.PCG64(params.seed))
    pop = lower + rng.random((pop_size, dim)) * (upper - lower)
    # Buffers every generation reuses, each an array of its own: numpy
    # reduces over a view of a larger one more slowly.
    finite = np.empty(pop_size, dtype=bool)
    select_rows = tuple(np.empty((2, pop_size), dtype=bool))
    take = select_rows[0]
    take_rows = take[:, None]
    infeasible, f_max, f_min = np.empty((), dtype=bool), np.empty(()), np.empty(())
    # Copies: the search updates them in place, and checked_scores() may
    # return the caller's own arrays.
    fs, vs = checked_scores(pop, *evaluate(pop), finite)
    feasible = vs is None
    fs, vs = fs.copy(), None if feasible else vs.copy()
    # Every generation's donors and trials go into these buffers.
    donor_rows = np.empty((3, pop_size, dim))
    r1, r2, r3 = donor_rows
    trials = np.empty((pop_size, dim))
    # The box at the trials' shape: numpy clamps against bounds that
    # broadcast along the rows through buffers, at about three times the
    # cost.
    lower_rows, upper_rows = np.empty((pop_size, dim)), np.empty((pop_size, dim))
    lower_rows[...], upper_rows[...] = lower, upper
    take_donors, copyto, tolerance, score = pop.take, np.copyto, params.tolerance, fs.item
    generations = 0
    stop_reason = "budget"
    for gen in range(params.max_generations):
        # The spread is at least |fs[0] - fs[-1]|, and rounding is
        # monotonic, so two members at least tolerance apart settle the
        # test without the reductions.  evaluate's violations are >= 0, as
        # HorizonKernel.evaluate returns them, so "none nonzero" is "all
        # feasible".  The ufuncs' reduce spares the Python wrappers of
        # ndarray.any, max and min.
        if (
            abs(score(0) - score(-1)) < tolerance
            and (feasible or not _or_reduce(vs, 0, None, infeasible))
            and float(_max_reduce(fs, 0, None, f_max)) - float(_min_reduce(fs, 0, None, f_min)) < tolerance
        ):
            stop_reason = "tolerance"
            break
        step = gen % _BLOCK
        if step == 0:
            # The last block goes first, so one is alive at a time.
            donors = keep = None
            donors, keep = draw_block(rng, pop_size, dim, params.crossover_rate)
        generations += 1

        # The donors are valid indices, so "clip" changes none of them; it
        # spares take the copy it makes of out for "raise".
        take_donors(donors[step], 0, donor_rows, "clip")
        _subtract(r2, r3, trials)
        _multiply(factor, trials, trials)
        _add(r1, trials, trials)
        _maximum(trials, lower_rows, out=trials)
        _minimum(trials, upper_rows, out=trials)
        copyto(trials, pop, where=keep[step])

        f_t, v_t = checked_scores(trials, *evaluate(trials), finite)
        if feasible:
            _less_equal(f_t, fs, take)
        else:
            not_worse(f_t, v_t, fs, vs, select_rows)
            copyto(vs, v_t, where=take)
        copyto(pop, trials, where=take_rows)
        copyto(fs, f_t, where=take)

    best = incumbent(fs, vs)
    return DeResult(
        best_vector=pop[best].copy(),
        best_objective=float(fs[best]),
        best_violation=0.0 if feasible else float(vs[best]),
        generations_used=generations,
        evaluations=pop_size * (1 + generations),
        stop_reason=stop_reason,
    )


__all__ = [
    "NonFiniteObjective",
    "DeParams",
    "DeResult",
    "checked_scores",
    "de_minimize",
    "search_nbytes",
]
