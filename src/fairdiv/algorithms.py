"""Online allocation rules behind one streaming interface.

An allocator consumes value columns (one per arriving good, in order) through
``observe`` and returns the 1-based index of the agent that irrevocably
receives the good.  Decisions depend only on the columns seen so far and the
allocator's own prior choices.  Greedy rules pick the lowest score, ties
toward the lowest agent index; an agent whose total arrived value is zero
scores 0 under the max-value rule (which scores the negated ratio) and
vacuously-satisfied (infinite) under the min-ratio rules.

Running state is integers, each agent's values times its scale L_i
(``Prop1State``), MIV's D_i included as N_i = D_i L_i; Fractions are built
only where a value leaves that state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .core import INF, Allocation, Instance, Predictions, RatOrInf
from .errors import DomainError, InvariantError, PredictionContractError
from .metrics import Prop1State


class OnlineAllocator:
    """Base streaming allocator with the bookkeeping every rule needs.

    ``state`` tracks, per agent, the total arrived value, the bundle value
    and the value of the best good the agent does not hold, as integer
    weights over the agent's scale L_i (``Prop1State``); ``total``,
    ``bundle`` and ``best_outside`` read them as exact values.  Subclasses
    implement ``_score`` or ``_choose`` (totals already include the arriving
    good; bundles do not yet).  ``_score(i)`` is a pair (p, q), the ratio
    p/q of two of agent i's weights, so L_i cancels; q = 0 with p = 1 is
    plus infinity.  ``_choose`` picks the lowest score by integer
    cross-multiplication.
    ``potential_log`` is the summed potential after each good for
    potential-based rules, None otherwise.
    """

    potential_log: list[Fraction] | None = None

    def __init__(self, n: int):
        if n < 2:
            raise DomainError("need at least 2 agents")
        self.n = n
        self.state = Prop1State(n)

    total = property(lambda self: self.state.values(self.state.total_w))
    bundle = property(lambda self: self.state.values(self.state.held_w))
    best_outside = property(lambda self: self.state.values(self.state.best_w))

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
            f = v if type(v) is Fraction else Fraction(v)
            if f.numerator < 0:
                raise DomainError(f"negative valuation {f}")
            out.append(f)
        return out

    def _choose(self, col: list[Fraction]) -> int:
        """The first agent with the smallest ``_score``."""
        best, (best_p, best_q) = 0, self._score(0)
        for i in range(1, self.n):
            p, q = self._score(i)
            if p * best_q < best_p * q:
                best, best_p, best_q = i, p, q
        return best + 1


class Greedy1Allocator(OnlineAllocator):
    """Give the good to the agent valuing it most relative to their arrived total."""

    def _score(self, i: int) -> tuple[int, int]:
        total = self.state.total_w[i]
        return (-self.state.col_w[i], total) if total else (0, 1)


class Greedy2Allocator(OnlineAllocator):
    """Give the good to the currently least satisfied agent (lowest bundle share)."""

    def _score(self, i: int) -> tuple[int, int]:
        total = self.state.total_w[i]
        return (self.state.held_w[i], total) if total else (1, 0)


class Greedy3Allocator(OnlineAllocator):
    """Give the good to the agent who would be most unsatisfied without it.

    The score counts the agent's bundle plus the best good they could still
    be "owed" (the max of their best outside good and the arriving one)
    against their arrived total.
    """

    def _score(self, i: int) -> tuple[int, int]:
        s = self.state
        total = s.total_w[i]
        if not total:
            return 1, 0
        best, w = s.best_w[i], s.col_w[i]
        return s.held_w[i] + (best if best > w else w), total


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
    good.  D starts at n^2+n and is kept as the integer N = D L over the
    agent's scale L (a row of ``state.rows``, so it rescales with L), which
    makes the term phi = L/N.  A good of weight w (value c = w/L) lowers N
    by w and would add c to H; the first value-1 good only replaces the
    padding (N stays, c = 0).  Giving it to agent j lowers the summed
    potential by n^2 c_j / (D_j (D_j + n^2 c_j)), which is n^2 times
    w_j L_j / (N_j (N_j + n^2 w_j)); the largest drop wins, compared by
    cross-multiplying, ties to the lowest index.  Then N_j += n^2 w_j.
    Each step asserts three exact invariants (``InvariantError``): every
    N_i > 0, which the comparison needs; the summed potential
    (``potential``, the sum of the terms in ``phi``, built as one
    cross-multiplied sum and reduced once) never rises from its start
    1/(n+1); and D_i >= n+1, that is N_i >= (n+1) L_i, which is
    x + y >= 1/n^2, as n^2 (1 + H) - T = D - (n+1).  With consistent state
    the potential bound already gives every D_i > n+1; the last check still
    catches a broken one.
    """

    def __init__(self, n: int):
        super().__init__(n)
        self.first_max_at: list[int | None] = [None] * n  # arrival of first value-1 good
        self.N = [n * n + n] * n
        self.state.rows.append(self.N)
        self.potential = Fraction(1, n + 1)
        self.potential_log: list[Fraction] = [self.potential]

    phi = property(lambda self: [Fraction(L, N) for L, N in zip(self.state.scale, self.N)])

    def _validate(self, column: Sequence[Fraction | int]) -> list[Fraction]:
        col = super()._validate(column)
        for v in col:
            if v.numerator > v.denominator:
                raise PredictionContractError(f"valuation {v} exceeds the predicted maximum 1")
        return col

    def _choose(self, col: list[Fraction]) -> int:
        n, t, N, scale = self.n, self.state.t, self.N, self.state.scale
        # the agent with the largest w L / (N (N + n^2 w)) so far, w its gain to H
        best, best_w, best_num, best_den = 0, 0, 0, 1
        for i, w in enumerate(self.state.col_w):
            if w == scale[i] and self.first_max_at[i] is None:
                self.first_max_at[i] = t
                w = 0
            elif w:
                N[i] -= w
            if N[i] <= 0:
                raise InvariantError(
                    f"non-positive potential denominator {Fraction(N[i], scale[i])} at t={t}"
                )
            if w:
                num, den = w * scale[i], N[i] * (N[i] + n * n * w)
                if num * best_den > best_num * den:
                    best, best_w, best_num, best_den = i, w, num, den
        if best_w:
            N[best] += n * n * best_w
        # the summed potential sum_i L_i / N_i over one common denominator
        num, den = 0, 1
        for scale_i, N_i in zip(scale, N):
            num, den = num * N_i + scale_i * den, den * N_i
        if num * self.potential.denominator > self.potential.numerator * den:
            raise InvariantError(
                f"potential increased at t={t}: {Fraction(num, den)} > {self.potential}"
            )
        for i in range(n):
            if N[i] < (n + 1) * scale[i]:  # D >= n+1
                raise InvariantError(f"x + y below 1/n^2 for agent {i + 1} at t={t}")
        self.potential = Fraction(num, den)
        self.potential_log.append(self.potential)
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

    Agent i+1's running PROP1 value after good t was placed is
    ``alpha_num[i][t-1] / alpha_den[i][t-1]``, integer weights of that agent
    (bundle plus best outside good, and arrived total), ``INF`` where the
    total is 0; ``alpha`` holds the same values as exact numbers.  They are
    always measured against the original instance valuations (also for
    wrapped or normalized allocators).  ``potential`` carries the summed
    potential sequence (index t, starting at t = 0) for potential-based runs
    and is None otherwise.
    """

    instance: Instance
    owners: tuple[int, ...]
    alpha_num: tuple[tuple[int, ...], ...]
    alpha_den: tuple[tuple[int, ...], ...]
    potential: tuple[Fraction, ...] | None = None

    @property
    def allocation(self) -> Allocation:
        return Allocation(self.owners)

    @cached_property
    def alpha(self) -> tuple[tuple[RatOrInf, ...], ...]:
        return tuple(
            tuple(INF if q == 0 else Fraction(p, q) for p, q in zip(nums, dens))
            for nums, dens in zip(self.alpha_num, self.alpha_den)
        )


class TraceRecorder:
    """Collects a run's owners and, per good, each agent's running PROP1
    value as a pair of integer weights, read from the allocator's state
    right after it placed the good."""

    def __init__(self, state: Prop1State):
        self.state = state
        self.owners: list[int] = []
        self._nums: list[list[int]] = []
        self._dens: list[list[int]] = []

    def record(self, owner: int) -> None:
        state = self.state
        self.owners.append(owner)
        self._nums.append([held + best for held, best in zip(state.held_w, state.best_w)])
        self._dens.append(state.total_w.copy())

    def build_trace(self, inst: Instance, potential: Sequence[Fraction] | None) -> AllocationTrace:
        empty = ((),) * self.state.n
        return AllocationTrace(
            instance=inst,
            owners=tuple(self.owners),
            alpha_num=tuple(zip(*self._nums)) or empty,
            alpha_den=tuple(zip(*self._dens)) or empty,
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
