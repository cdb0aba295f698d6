"""Online allocation rules behind one streaming interface.

An allocator consumes value columns (one per arriving good, in order) through
``observe`` and returns the 1-based index of the agent that irrevocably
receives the good.  Decisions depend only on the columns seen so far and the
allocator's own prior choices.  Greedy rules pick the lowest score, ties
toward the lowest agent index; an agent whose total arrived value is zero
scores 0 under the max-value rule (which scores the negated ratio) and
vacuously-satisfied (infinite) under the min-ratio rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import INF, Allocation, Instance, Predictions, RatOrInf
from .errors import DomainError, InvariantError, PredictionContractError
from .metrics import Prop1State


class OnlineAllocator:
    """Base streaming allocator with the bookkeeping every rule needs.

    ``state`` tracks, per agent: total arrived value, bundle value, and the
    value of the best good the agent does not hold; ``total``, ``bundle``
    and ``best_outside`` are its lists.  Subclasses implement ``_score``
    (lowest wins) or ``_choose`` (totals already include the arriving good;
    bundles do not yet).
    ``potential_log`` is the summed potential after each good for
    potential-based rules, None otherwise.
    """

    potential_log: list[Fraction] | None = None

    def __init__(self, n: int):
        if n < 2:
            raise DomainError("need at least 2 agents")
        self.n = n
        self.state = Prop1State(n)
        self.total, self.bundle, self.best_outside = (
            self.state.total, self.state.bundle, self.state.best_outside
        )

    def observe(self, column: Sequence[Fraction | int]) -> int:
        return self._place(self._validate(column))

    def _place(self, col: list[Fraction]) -> int:
        """Place a validated column: arrive, choose, assign."""
        self.state.arrive(col)
        chosen = self._choose(col)
        self.state.assign(col, chosen)
        return chosen

    def _validate(self, column: Sequence[Fraction | int]) -> list[Fraction]:
        if len(column) != self.n:
            raise DomainError(f"column has {len(column)} entries, expected {self.n}")
        out = []
        for v in column:
            f = Fraction(v)
            if f < 0:
                raise DomainError(f"negative valuation {f}")
            out.append(f)
        return out

    def _choose(self, col: list[Fraction]) -> int:
        """The first agent with the smallest ``_score``."""
        best, best_score = 0, self._score(0, col)
        for i in range(1, self.n):
            score = self._score(i, col)
            if score < best_score:
                best, best_score = i, score
        return best + 1


class Greedy1Allocator(OnlineAllocator):
    """Give the good to the agent valuing it most relative to their arrived total."""

    def _score(self, i: int, col: list[Fraction]) -> RatOrInf:
        return Fraction(0) if self.total[i] == 0 else -col[i] / self.total[i]


class Greedy2Allocator(OnlineAllocator):
    """Give the good to the currently least satisfied agent (lowest bundle share)."""

    def _score(self, i: int, col: list[Fraction]) -> RatOrInf:
        return INF if self.total[i] == 0 else self.bundle[i] / self.total[i]


class Greedy3Allocator(OnlineAllocator):
    """Give the good to the agent who would be most unsatisfied without it.

    The score counts the agent's bundle plus the best good they could still
    be "owed" (the max of their best outside good and the arriving one)
    against their arrived total.
    """

    def _score(self, i: int, col: list[Fraction]) -> RatOrInf:
        if self.total[i] == 0:
            return INF
        owed = self.best_outside[i] if self.best_outside[i] > col[i] else col[i]
        return (self.bundle[i] + owed) / self.total[i]


class RandAllocator(OnlineAllocator):
    """Allocate every good uniformly at random; deterministic given the seed."""

    def __init__(self, n: int, seed: int):
        super().__init__(n)
        self._rng = random.Random(seed)

    def _choose(self, col: list[Fraction]) -> int:
        return self._rng.randrange(self.n) + 1


class MivAllocator(OnlineAllocator):
    """Potential-minimizing allocator for unit-normalized MIV predictions.

    Requires valuations pre-normalized so every agent's predicted maximum
    single-good value is exactly 1 (entries above 1 are rejected).  Agent i's
    potential term x / ((n^2+n+1) x + n^2 y - 1), with x = 1/T and y = H/T,
    is 1/D for D = n^2+n+1 + n^2 H - T: T is the arrived total, padded by 1
    until the agent's first value-1 good, and H the held value without that
    good.  Only D is kept per agent, from n^2+n.  A good worth v lowers D by
    v and would add c = v to H; the first value-1 good only replaces the
    padding (D stays, c = 0).  Giving it to agent j lowers the summed
    potential by n^2 c_j / (D_j (D_j + n^2 c_j)); the largest drop wins,
    compared exactly by cross-multiplying, ties to the lowest index.  Then
    D_j += n^2 c_j.  Each step asserts three exact invariants
    (``InvariantError``): every D_i > 0, which the cross-multiplied
    comparison needs; the summed potential (``potential``, the sum of the
    terms 1/D_i in ``phi``) never rises from its start 1/(n+1); and
    D_i >= n+1, which is x + y >= 1/n^2, as n^2 (1 + H) - T = D - (n+1).
    With consistent state the potential bound already gives every
    D_i > n+1; the last check still catches a broken one.
    """

    def __init__(self, n: int):
        super().__init__(n)
        self.first_max_at: list[int | None] = [None] * n  # arrival of first value-1 good
        self.D = [Fraction(n * n + n)] * n
        self.phi = [Fraction(1, n * n + n)] * n
        self.potential = Fraction(1, n + 1)
        self.potential_log: list[Fraction] = [self.potential]

    def _validate(self, column: Sequence[Fraction | int]) -> list[Fraction]:
        col = super()._validate(column)
        for v in col:
            if v > 1:
                raise PredictionContractError(f"valuation {v} exceeds the predicted maximum 1")
        return col

    def _choose(self, col: list[Fraction]) -> int:
        n2, t, D = self.n * self.n, self.state.t, self.D
        # the agent with the largest c / (D (D + n^2 c)) so far, c its gain to H
        best, best_c, best_num, best_den = 0, 0, 0, 1
        for i, v in enumerate(col):
            if v == 1 and self.first_max_at[i] is None:
                self.first_max_at[i] = t
                v = 0
            elif v:
                D[i] -= v
            d = D[i]
            if d <= 0:
                raise InvariantError(f"non-positive potential denominator {d} at t={t}")
            if v:
                # c / (D (D + n^2 c)) = cp dq^2 / (dp (dp cq + n^2 cp dq)), in integers
                dp, dq, cp, cq = d.numerator, d.denominator, v.numerator, v.denominator
                num = cp * dq * dq
                den = dp * (dp * cq + n2 * cp * dq)
                if num * best_den > best_num * den:
                    best, best_c, best_num, best_den = i, v, num, den
        if best_c:
            D[best] += n2 * best_c
        phi = [Fraction(d.denominator, d.numerator) for d in D]
        potential = sum(phi)
        if potential > self.potential:
            raise InvariantError(f"potential increased at t={t}: {potential} > {self.potential}")
        for i, d in enumerate(D):
            if d.numerator < (self.n + 1) * d.denominator:  # D >= n+1, in integers
                raise InvariantError(f"x + y below 1/n^2 for agent {i + 1} at t={t}")
        self.phi = phi
        self.potential = potential
        self.potential_log.append(potential)
        return best + 1


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
    if not isinstance(name, str) or name not in ALLOCATORS:
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


class RobustifiedAllocator(OnlineAllocator):
    """Adapter that makes a perfect-predictions allocator tolerate one-sided error.

    Valuations are divided by the per-agent predictions; the first normalized
    value at least 1 - epsilon for each agent is then overridden to exactly 1
    before the inner allocator sees it.  At most one good per agent is ever
    overridden.  A raw value above its agent's prediction breaks the
    one-sided error contract and raises ``PredictionContractError`` before
    anything is normalized.  If the inner rule guarantees alpha-PROP1 under
    perfect predictions, the wrapped rule guarantees beta-PROP1 under the
    original valuations with beta = alpha (1 - eps) / (1 - alpha eps / n).
    ``state`` runs on the raw columns, ``inner.state`` on the normalized ones,
    which go to the inner rule's ``_place``: a checked raw column has n
    values in [0, p_i], so its normalized one passes any rule's checks.
    """

    def __init__(self, inner: OnlineAllocator, predictions: Predictions):
        if inner.n != predictions.n:
            raise DomainError(
                f"allocator handles {inner.n} agents, predictions cover {predictions.n}"
            )
        super().__init__(inner.n)
        self.inner = inner
        # the inner rule's list, only ever appended to
        self.potential_log = inner.potential_log
        self.predictions = predictions
        self._threshold = 1 - predictions.epsilon
        self._overridden = [False] * inner.n
        self.override_log: list[OverrideEvent] = []

    # bound in the class body, so perfbench/tracer.py can wrap it per class
    observe = OnlineAllocator.observe

    def _validate(self, column: Sequence[Fraction | int]) -> list[Fraction]:
        col = super()._validate(column)
        for i, (v, p) in enumerate(zip(col, self.predictions.p)):
            if v > p:
                raise PredictionContractError(
                    f"valuation {v} of agent {i + 1} exceeds its predicted maximum {p}"
                )
        return col

    def _choose(self, col: list[Fraction]) -> int:
        norm = [col[i] / self.predictions.p[i] for i in range(self.n)]
        for i in range(self.n):
            if not self._overridden[i] and norm[i] >= self._threshold:
                self._overridden[i] = True
                self.override_log.append(OverrideEvent(i + 1, self.state.t, norm[i]))
                norm[i] = Fraction(1)
        return self.inner._place(norm)


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
    return recorder.build_trace(inst, allocator.potential_log)
