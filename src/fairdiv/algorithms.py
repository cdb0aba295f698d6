"""Online allocation rules behind one streaming interface.

An allocator consumes value columns (one per arriving good, in order) through
``observe`` and returns the 1-based index of the agent that irrevocably
receives the good.  Decisions depend only on the columns seen so far and the
allocator's own prior choices.  Ties always break toward the lowest agent
index, and an agent whose total arrived value is zero scores 0 under the
max-value rule and vacuously-satisfied (infinite) under the min-ratio rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import INF, Allocation, Instance, Predictions, RatOrInf
from .errors import DomainError, InvariantError, PredictionContractError
from .metrics import Prop1State


def _validate_column(column: Sequence[Fraction | int], n: int) -> list[Fraction]:
    if len(column) != n:
        raise DomainError(f"column has {len(column)} entries, expected {n}")
    out = []
    for v in column:
        f = Fraction(v)
        if f < 0:
            raise DomainError(f"negative valuation {f}")
        out.append(f)
    return out


class OnlineAllocator:
    """Base streaming allocator with the bookkeeping every rule needs.

    ``state`` tracks, per agent: total arrived value, bundle value, and the
    value of the best good the agent does not hold; ``total``, ``bundle``
    and ``best_outside`` are its lists.  Subclasses implement ``_choose``
    (totals already include the arriving good; bundles do not yet).
    """

    def __init__(self, n: int):
        if n < 2:
            raise DomainError("need at least 2 agents")
        self.n = n
        self.state = Prop1State(n)
        self.total, self.bundle, self.best_outside = (
            self.state.total, self.state.bundle, self.state.best_outside
        )
        self.owners: list[int] = []

    def observe(self, column: Sequence[Fraction | int]) -> int:
        col = self._validate(column)
        self.state.arrive(col)
        chosen = self._choose(col)
        self.state.assign(col, chosen)
        self.owners.append(chosen)
        self._after_allocate(col, chosen)
        return chosen

    def _validate(self, column: Sequence[Fraction | int]) -> list[Fraction]:
        return _validate_column(column, self.n)

    def _choose(self, col: list[Fraction]) -> int:
        raise NotImplementedError

    def _after_allocate(self, col: list[Fraction], chosen: int) -> None:
        pass

    def _argmin(self, scores: Sequence[RatOrInf]) -> int:
        best = 0
        for i in range(1, self.n):
            if scores[i] < scores[best]:
                best = i
        return best + 1


class Greedy1Allocator(OnlineAllocator):
    """Give the good to the agent valuing it most relative to their arrived total."""

    def _choose(self, col: list[Fraction]) -> int:
        best = 0
        best_score: RatOrInf = Fraction(0) if self.total[0] == 0 else col[0] / self.total[0]
        for i in range(1, self.n):
            score = Fraction(0) if self.total[i] == 0 else col[i] / self.total[i]
            if score > best_score:
                best, best_score = i, score
        return best + 1


class Greedy2Allocator(OnlineAllocator):
    """Give the good to the currently least satisfied agent (lowest bundle share)."""

    def _choose(self, col: list[Fraction]) -> int:
        scores = [
            INF if self.total[i] == 0 else self.bundle[i] / self.total[i]
            for i in range(self.n)
        ]
        return self._argmin(scores)


class Greedy3Allocator(OnlineAllocator):
    """Give the good to the agent who would be most unsatisfied without it.

    The score counts the agent's bundle plus the best good they could still
    be "owed" (the max of their best outside good and the arriving one)
    against their arrived total.
    """

    def _choose(self, col: list[Fraction]) -> int:
        scores: list[RatOrInf] = []
        for i in range(self.n):
            if self.total[i] == 0:
                scores.append(INF)
            else:
                owed = self.best_outside[i] if self.best_outside[i] > col[i] else col[i]
                scores.append((self.bundle[i] + owed) / self.total[i])
        return self._argmin(scores)


class RandAllocator(OnlineAllocator):
    """Allocate every good uniformly at random; deterministic given the seed."""

    def __init__(self, n: int, seed: int):
        super().__init__(n)
        self.seed = seed
        self._rng = random.Random(seed)

    def _choose(self, col: list[Fraction]) -> int:
        return self._rng.randrange(self.n) + 1


class MivAllocator(OnlineAllocator):
    """Potential-minimizing allocator for unit-normalized MIV predictions.

    Requires valuations pre-normalized so every agent's predicted maximum
    single-good value is exactly 1 (columns with entries above 1 are
    rejected).  Internally keeps, per agent, the arrival time of the first
    value-1 good and a potential term; the good goes to the agent minimizing
    the summed potential.  Exact invariants are asserted on every step: all
    potential terms stay non-negative, the total potential never increases
    from its starting value 1/(n+1), and every term's substitution variables
    x, y keep x + y >= 1/n^2.
    """

    def __init__(self, n: int):
        super().__init__(n)
        self.first_max_at: list[int | None] = [None] * n  # arrival of first value-1 good
        self._bundle_sans_max = [Fraction(0)] * n  # bundle value without that good
        self.phi = [Fraction(1, n * n + n)] * n
        self.potential = Fraction(1, n + 1)
        self.potential_log: list[Fraction] = [self.potential]
        self._coef = n * n + n + 1

    def _validate(self, column: Sequence[Fraction | int]) -> list[Fraction]:
        col = _validate_column(column, self.n)
        for v in col:
            if v > 1:
                raise PredictionContractError(
                    f"valuation {v} exceeds the predicted maximum 1"
                )
        return col

    def _term(self, x: Fraction, y: Fraction) -> Fraction:
        denom = self._coef * x + self.n * self.n * y - 1
        if denom <= 0:
            raise InvariantError(f"non-positive potential denominator {denom} at t={self.state.t}")
        return x / denom

    def _choose(self, col: list[Fraction]) -> int:
        n, t = self.n, self.state.t
        keep = [Fraction(0)] * n  # potential term if the agent is passed over
        take = [Fraction(0)] * n  # potential term if the agent receives the good
        x = [Fraction(0)] * n
        y_keep = [Fraction(0)] * n
        y_take = [Fraction(0)] * n
        for i in range(n):
            if col[i] == 1 and self.first_max_at[i] is None:
                self.first_max_at[i] = t
            if self.first_max_at[i] is None:
                # The predicted unit-value good is still to come: account for
                # it in advance by padding the total.
                xi = Fraction(1, 1) / (1 + self.total[i])
                held = self.bundle[i]
                held_after = self.bundle[i] + col[i]
            else:
                xi = Fraction(1, 1) / self.total[i]
                held = self._bundle_sans_max[i]
                held_after = held + (col[i] if t != self.first_max_at[i] else 0)
            x[i] = xi
            y_keep[i] = held * xi
            y_take[i] = held_after * xi
            keep[i] = self._term(xi, y_keep[i])
            take[i] = self._term(xi, y_take[i])
        total_keep = sum(keep)
        candidates = [take[i] - keep[i] + total_keep for i in range(n)]
        chosen = self._argmin(candidates)

        new_potential = candidates[chosen - 1]
        if new_potential > self.potential:
            raise InvariantError(
                f"potential increased at t={t}: {new_potential} > {self.potential}"
            )
        for i in range(n):
            phi = take[i] if i == chosen - 1 else keep[i]
            if phi < 0:
                raise InvariantError(f"negative potential term for agent {i + 1} at t={t}")
            yv = y_take[i] if i == chosen - 1 else y_keep[i]
            if x[i] + yv < Fraction(1, n * n):
                raise InvariantError(f"x + y below 1/n^2 for agent {i + 1} at t={t}")
            self.phi[i] = phi
        self.potential = new_potential
        self.potential_log.append(new_potential)
        return chosen

    def _after_allocate(self, col: list[Fraction], chosen: int) -> None:
        i = chosen - 1
        # receiving the first unit-value good itself leaves the sans-bundle alone
        if self.state.t != self.first_max_at[i]:
            self._bundle_sans_max[i] += col[i]


#: The one registry of rule names, shared by the CLI and the campaign harness.
ALLOCATORS: dict[str, type[OnlineAllocator]] = {
    "greedy1": Greedy1Allocator,
    "greedy2": Greedy2Allocator,
    "greedy3": Greedy3Allocator,
    "rand": RandAllocator,
    "miv": MivAllocator,
}


def make_allocator(name: str, n: int, seed: int | None = None) -> OnlineAllocator:
    """Build the named rule for n agents; ``rand`` needs a seed."""
    if name not in ALLOCATORS:
        raise DomainError(f"unknown allocator {name!r}; choose from {', '.join(ALLOCATORS)}")
    if name != "rand":
        return ALLOCATORS[name](n)
    if seed is None:
        raise DomainError("allocator 'rand' needs a seed")
    return RandAllocator(n, seed)


@dataclass(frozen=True)
class OverrideEvent:
    agent: int
    timestep: int
    original_value: Fraction  # normalized value before the override to 1


class RobustifiedAllocator:
    """Adapter that makes a perfect-predictions allocator tolerate one-sided error.

    Valuations are divided by the per-agent predictions; the first normalized
    value at least 1 - epsilon for each agent is then overridden to exactly 1
    before the inner allocator sees it.  At most one good per agent is ever
    overridden.  If the inner rule guarantees alpha-PROP1 under perfect
    predictions, the wrapped rule guarantees beta-PROP1 under the original
    valuations with beta = alpha (1 - eps) / (1 - alpha eps / n).
    """

    def __init__(self, inner: OnlineAllocator, predictions: Predictions):
        if inner.n != predictions.n:
            raise DomainError(
                f"allocator handles {inner.n} agents, predictions cover {predictions.n}"
            )
        self.inner = inner
        self.n = inner.n
        self.predictions = predictions
        self._threshold = 1 - predictions.epsilon
        self._overridden = [False] * inner.n
        self.override_log: list[OverrideEvent] = []
        # over the raw columns: an override changes the inner running values
        self.state = Prop1State(inner.n)

    def observe(self, column: Sequence[Fraction | int]) -> int:
        col = _validate_column(column, self.n)
        self.state.arrive(col)
        norm = [col[i] / self.predictions.p[i] for i in range(self.n)]
        for i in range(self.n):
            if not self._overridden[i] and norm[i] >= self._threshold:
                self._overridden[i] = True
                self.override_log.append(OverrideEvent(i + 1, self.state.t, norm[i]))
                norm[i] = Fraction(1)
        chosen = self.inner.observe(norm)
        self.state.assign(col, chosen)
        return chosen

    @property
    def owners(self) -> list[int]:
        return self.inner.owners

    @property
    def potential_log(self) -> list[Fraction] | None:
        return getattr(self.inner, "potential_log", None)


def robust_beta(alpha: Fraction, epsilon: Fraction, n: int) -> Fraction:
    """PROP1 factor preserved under one-sided prediction error epsilon."""
    if not 0 <= epsilon < 1:
        raise DomainError(f"one-sided error {epsilon} must lie in [0, 1)")
    return alpha * (1 - epsilon) / (1 - alpha * epsilon / n)


def robustify(
    inner_factory: Callable[[int], OnlineAllocator], predictions: Predictions
) -> RobustifiedAllocator:
    """Wrap a freshly built inner allocator for the given noisy predictions."""
    return RobustifiedAllocator(inner_factory(predictions.n), predictions)


# ---------------------------------------------------------------------------
# Running an allocator over an instance
# ---------------------------------------------------------------------------


@dataclass
class AllocationTrace:
    """Per-timestep record of one allocator run.

    ``alpha[i][t-1]`` is agent i+1's running PROP1 value after good t was
    placed, always measured against the original instance valuations (also
    for wrapped or normalized allocators).  ``potential`` carries the summed
    potential sequence (index t, starting at t = 0) for potential-based runs
    and is None otherwise.
    """

    instance: Instance
    owners: tuple[int, ...]
    alpha: tuple[tuple[RatOrInf, ...], ...]
    potential: tuple[Fraction, ...] | None = None

    @property
    def allocation(self) -> Allocation:
        return Allocation(self.owners)


class TraceRecorder:
    """Collects a run's owners and the running PROP1 values after each good,
    read from the allocator's state right after it placed the good."""

    def __init__(self, state: Prop1State):
        self.state = state
        self.owners: list[int] = []
        self.alpha_rows: list[list[RatOrInf]] = [[] for _ in range(state.n)]

    def record(self, owner: int) -> None:
        self.owners.append(owner)
        for i, row in enumerate(self.alpha_rows):
            row.append(self.state.value(i))

    def build_trace(self, inst: Instance, potential: Sequence[Fraction] | None) -> AllocationTrace:
        return AllocationTrace(
            instance=inst,
            owners=tuple(self.owners),
            alpha=tuple(tuple(row) for row in self.alpha_rows),
            potential=None if potential is None else tuple(potential),
        )


def run(allocator, inst: Instance) -> AllocationTrace:
    """Feed the instance's columns through an allocator and record the trace."""
    if allocator.n != inst.n:
        raise DomainError(f"allocator handles {allocator.n} agents, instance has {inst.n}")
    recorder = TraceRecorder(allocator.state)
    for column in inst.columns():
        recorder.record(allocator.observe(column))
    return recorder.build_trace(inst, getattr(allocator, "potential_log", None))
