"""Box-constrained differential evolution with feasibility-first selection.

Classic DE/rand/1/bin over a whole population at a time: donors and
crossover masks are drawn as arrays, a block of generations at a time,
and each generation scores every trial with one call of the caller's
evaluate(pop) -> (objective, violation).
Candidates are compared by constraint violation before objective: any
feasible point beats any infeasible one, two infeasible points compare
on violation, two feasible ones on objective.  Mutants are clipped back
into the box, so bound-hitting optima are reachable exactly.  Runs are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


# Generations whose random draws are made together, whatever the budget.
_BLOCK = 32


def search_nbytes(pop_size: int, dim: int) -> int:
    """Bytes de_minimize allocates for P = pop_size rows of D = dim, at most:
    56 per row and dimension for its population, donors, trials and box
    rows; a block of draws, the larger of its nine (_BLOCK, P) index arrays
    as they are drawn and its float64 uniforms beside their mask and the
    donors, (_BLOCK, 3, P); the box, the scores and 16 KB for small
    objects.  The last block is dropped before the next is drawn."""
    index_bytes = 8 * _BLOCK * pop_size
    drawing = max(9 * index_bytes, 3 * index_bytes + 9 * _BLOCK * pop_size * dim)
    return 56 * pop_size * dim + drawing + 24 * dim + 48 * pop_size + 16384


class BadBounds(ValueError):
    """Bound arrays are malformed or inverted."""


class NonFiniteObjective(RuntimeError):
    """A callback returned NaN or infinity during the search."""


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
    0, so it beats every infeasible one).  Violations must be >= 0.

    out, a (2, n) bool array for n points, takes the answer in its first
    row and uses the second as scratch.  Returns the answer.
    """
    take, infeasible = out[0, ...], out[1, ...]
    np.less_equal(f_a, f_b, out=take)
    # Nonzero is infeasible: where either point is, the violations decide.
    np.logical_or(v_a, v_b, out=infeasible)
    np.less_equal(v_a, v_b, out=take, where=infeasible)
    return take


def incumbent(fs: np.ndarray, vs: np.ndarray) -> int:
    """Index of the best member: the first minimum of the objective among
    feasible members, else the first minimum of the violation."""
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
    taken = [np.broadcast_to(np.arange(pop_size), shape)]  # kept in increasing order
    draws = []
    for k in range(3):
        draw = rng.integers(pop_size - 1 - k, size=shape)
        for index in taken:
            draw += draw >= index
        draws.append(draw)
        if k == 2:
            break  # no later draw reads the ordered list
        # Insert the new donor into the ordered list by compare-and-swap.
        for i, index in enumerate(taken):
            taken[i], draw = np.minimum(index, draw), np.maximum(index, draw)
        taken.append(draw)
    return np.stack(draws, axis=1)


def checked_scores(pop: np.ndarray, f, v, finite=None) -> tuple[np.ndarray, np.ndarray]:
    """The objectives f and violations v of the rows pop as float arrays.

    Raises ValueError unless each holds one value per row and v >= 0, and
    NonFiniteObjective on a NaN or an infinity.  finite, a (2, len(pop))
    bool array, holds the finiteness test; one is made when it is None.
    """
    f = np.asarray(f, dtype=float)
    v = np.asarray(v, dtype=float)
    if f.shape != (len(pop),) or v.shape != (len(pop),):
        raise ValueError(
            f"evaluate must return two ({len(pop)},) arrays, got {f.shape} and {v.shape}"
        )
    if finite is None:
        finite = np.empty((2, len(pop)), dtype=bool)
    np.isfinite(f, out=finite[0])
    np.isfinite(v, out=finite[1])
    if np.logical_and.reduce(finite, None) and np.minimum.reduce(v) >= 0.0:
        return f, v
    for name, values in (("objective", f), ("violation", v)):
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            raise NonFiniteObjective(f"{name} returned {values[i]} at {pop[i].tolist()}")
    i = int(np.argmax(v < 0.0))
    raise ValueError(f"violation returned {v[i]} at {pop[i].tolist()}, must be >= 0")


def de_minimize(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    lower,
    upper,
    params: DeParams,
) -> DeResult:
    """Minimize the objective subject to violation == 0 inside the box.

    evaluate(pop) scores a (P, D) population at once and returns the
    objective and the violation, each of shape (P,).  Violation must be
    nonnegative, zero exactly on the feasible set.  evaluate must be
    pure and score each row independently of the others.  The array it
    is given is a buffer that the next generation overwrites.

    The initial population is drawn first; then, right before
    generations 0, _BLOCK, 2 * _BLOCK, ... run, the donors, crossover
    masks and forced crossover columns of the next _BLOCK generations.
    The draws depend only on the seed and the generation index, so a run
    with a budget of g generations is a prefix of one with g + 1.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
        raise BadBounds(
            f"bounds must be equal-length 1-D arrays, got {lower.shape} and {upper.shape}"
        )
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise BadBounds("bounds must be finite")
    if np.any(lower > upper):
        bad = int(np.argmax(lower > upper))
        raise BadBounds(f"lower[{bad}]={lower[bad]} exceeds upper[{bad}]={upper[bad]}")
    with np.errstate(over="ignore"):
        span = upper - lower
    if not np.isfinite(span).all():
        bad = int(np.argmax(~np.isfinite(span)))
        raise BadBounds(
            f"upper[{bad}] - lower[{bad}] must be finite, got {upper[bad]} - {lower[bad]}"
        )

    dim = lower.size
    pop_size = params.population_for(dim)
    # A 0-d array: a ufunc converts a Python float operand on every call.
    factor = np.array(params.mutation_factor)

    rng = np.random.Generator(np.random.PCG64(params.seed))
    pop = lower + rng.random((pop_size, dim)) * span
    # The finiteness test's and the selection's buffers, and the stop
    # test's results, reused by every generation.
    finite = np.empty((2, pop_size), dtype=bool)
    select = np.empty((2, pop_size), dtype=bool)
    take = select[0]
    take_rows = take[:, None]
    infeasible, f_max, f_min = np.empty((), dtype=bool), np.empty(()), np.empty(())
    # Copies: the search updates them in place, and checked_scores() may
    # return the caller's own arrays.
    fs, vs = (x.copy() for x in checked_scores(pop, *evaluate(pop), finite))
    # Every generation's donors and trials go into these buffers.
    donor_rows = np.empty((3, pop_size, dim))
    r1, r2, r3 = donor_rows
    trials = np.empty((pop_size, dim))
    # The box at the trials' shape: numpy clamps against bounds that
    # broadcast along the rows through buffers, at about three times the
    # cost.
    lower_rows, upper_rows = np.tile(lower, (pop_size, 1)), np.tile(upper, (pop_size, 1))
    generations = 0
    stop_reason = "budget"
    for gen in range(params.max_generations):
        # checked_scores() guarantees vs >= 0, so "none nonzero" is "all
        # feasible".  The ufuncs' reduce spares the Python wrappers of
        # ndarray.any, max and min.
        if not np.logical_or.reduce(vs, 0, None, infeasible) and (
            float(np.maximum.reduce(fs, 0, None, f_max))
            - float(np.minimum.reduce(fs, 0, None, f_min)) < params.tolerance
        ):
            stop_reason = "tolerance"
            break
        step = gen % _BLOCK
        if step == 0:
            # Donors (_BLOCK, 3, P) and the complement of the crossover
            # masks, (_BLOCK, P, D): true where a trial keeps its member's
            # value.  The last block goes first, so one is alive at a time.
            donors = keep = None
            donors = donor_indices(rng, pop_size, _BLOCK)
            keep = rng.random((_BLOCK, pop_size, dim)) >= params.crossover_rate
            keep[np.arange(_BLOCK)[:, None], np.arange(pop_size),
                 rng.integers(dim, size=(_BLOCK, pop_size))] = False
        generations += 1

        # The donors are valid indices, so "clip" changes none of them; it
        # spares take the copy it makes of out for "raise".
        pop.take(donors[step], axis=0, out=donor_rows, mode="clip")
        np.subtract(r2, r3, out=trials)
        np.multiply(factor, trials, out=trials)
        np.add(r1, trials, out=trials)
        np.maximum(trials, lower_rows, out=trials)
        np.minimum(trials, upper_rows, out=trials)
        np.copyto(trials, pop, where=keep[step])

        f_t, v_t = checked_scores(trials, *evaluate(trials), finite)
        not_worse(f_t, v_t, fs, vs, select)
        np.copyto(pop, trials, where=take_rows)
        np.copyto(fs, f_t, where=take)
        np.copyto(vs, v_t, where=take)

    best = incumbent(fs, vs)
    return DeResult(
        best_vector=pop[best].copy(),
        best_objective=float(fs[best]),
        best_violation=float(vs[best]),
        generations_used=generations,
        evaluations=pop_size * (1 + generations),
        stop_reason=stop_reason,
    )


__all__ = [
    "BadBounds",
    "NonFiniteObjective",
    "DeParams",
    "DeResult",
    "checked_scores",
    "de_minimize",
    "search_nbytes",
]
