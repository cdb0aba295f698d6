"""Lower-bound constructions: instances and adaptive schedules under which
each greedy rule's PROP1 ratio collapses, plus the construction showing that
EF1, MMS and PROPX admit no approximation even with perfect MIV predictions.

The greedy-1 and greedy-2 constructions are static instances (a non-adaptive
sequence already suffices).  The greedy-3 and impossibility constructions are
adaptive: they watch the allocator's decisions and emit the next value column
accordingly.  Wherever the construction's correctness argument forces the
allocator's hand ("this good must go to agent X"), the adversary asserts the
observed choice and raises ``InvariantError`` on divergence, so a tie-rule or
formula regression cannot pass silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algorithms import AllocationTrace, TraceRecorder
from .core import Instance, instance_from_columns, instance_from_rows
from .errors import DomainError, InvariantError
from .metrics import Prop1State, prop1_ratio


def _ceil_strict(bound: Fraction) -> int:
    """Smallest integer strictly greater than ``bound``."""
    return math.floor(bound) + 1


# ---------------------------------------------------------------------------
# Static constructions
# ---------------------------------------------------------------------------


def greedy1_adversary(n: int, alpha_target: Fraction) -> Instance:
    """Instance on which the relative-value greedy rule starves agent 2.

    Good 1 is worth 1 to everyone; every later good is worth 1 to agent 1,
    1/2 to agent 2 and nothing to the rest.  With lowest-index tie-breaking
    agent 1 wins every good, and the horizon m (smallest integer above
    1 + 2(n/alpha - 1)) makes agent 2's best-good escape fall below
    alpha * v_2(G) / n.
    """
    _check_target(n, alpha_target)
    m = _ceil_strict(1 + 2 * (Fraction(n) / alpha_target - 1))
    rows = [[Fraction(1)] * m for _ in range(n)]
    for t in range(1, m):
        rows[1][t] = Fraction(1, 2)
        for i in range(2, n):
            rows[i][t] = Fraction(0)
    return instance_from_rows(rows)


def greedy2_adversary(n: int, alpha_target: Fraction) -> Instance:
    """Instance on which the least-satisfied greedy rule freezes agent 1.

    Good 1 is worth 1 to everyone; later goods are worth 1 to agent 1 and a
    sliver 1/m^2 to agent 2.  Agent 1's bundle share stays the largest, so
    agent 1 keeps only good 1.  The horizon is the smallest integer with
    2/m < alpha/n (the inequality the failure certificate needs), i.e. the
    smallest integer above 2n/alpha.
    """
    _check_target(n, alpha_target)
    m = _ceil_strict(2 * Fraction(n) / alpha_target)
    sliver = Fraction(1, m * m)
    rows = [[Fraction(1)] * m for _ in range(n)]
    for t in range(1, m):
        rows[1][t] = sliver
        for i in range(2, n):
            rows[i][t] = Fraction(0)
    return instance_from_rows(rows)


def _check_target(n: int, alpha_target: Fraction) -> None:
    if n < 2:
        raise DomainError("need at least 2 agents")
    if not 0 < alpha_target <= 1:
        raise DomainError(f"target ratio {alpha_target} outside (0, 1]")


def verify_greedy1_failure(trace: AllocationTrace, alpha_target: Fraction) -> None:
    """Assert the facts the greedy-1 construction forces, exactly."""
    inst, owners = trace.instance, trace.owners
    if owners[0] != 1:
        raise InvariantError("good 1 must go to agent 1 under lowest-index ties")
    if any(o == 2 for o in owners):
        raise InvariantError("agent 2 must never receive a good")
    term = Fraction(1, 1) / (1 + Fraction(inst.m - 1, 2))
    if trace.alpha[1][-1] != term:
        raise InvariantError("agent 2's final running value diverged from the construction")
    if not term < alpha_target / inst.n:
        raise InvariantError("horizon too short: the failure inequality does not bind")
    if not prop1_ratio(inst, trace.allocation) < alpha_target:
        raise InvariantError("PROP1 ratio did not fall below the target")


def verify_greedy2_failure(trace: AllocationTrace, alpha_target: Fraction) -> None:
    """Assert the facts the greedy-2 construction forces, exactly."""
    inst, owners = trace.instance, trace.owners
    if owners[0] != 1:
        raise InvariantError("good 1 must go to agent 1 under lowest-index ties")
    if any(o == 1 for o in owners[1:]):
        raise InvariantError("agent 1 must keep only good 1")
    if not Fraction(2, inst.m) < alpha_target / inst.n:
        raise InvariantError("horizon too short: the failure inequality does not bind")
    if not prop1_ratio(inst, trace.allocation) < alpha_target:
        raise InvariantError("PROP1 ratio did not fall below the target")


#: The static constructions and their verifiers, by the rule they defeat.
STATIC_CONSTRUCTIONS = {
    "greedy1": (greedy1_adversary, verify_greedy1_failure),
    "greedy2": (greedy2_adversary, verify_greedy2_failure),
}


# ---------------------------------------------------------------------------
# Adaptive adversary protocol
# ---------------------------------------------------------------------------


class AdaptiveAdversary:
    """Emits value columns one at a time, seeing all prior allocation decisions.

    ``next_column(history)`` receives the owners chosen for every column
    emitted so far and returns the next column, or None when done.
    """

    n: int

    def next_column(self, history: Sequence[int]) -> list[Fraction] | None:
        raise NotImplementedError


@dataclass
class AdversaryRun:
    """Outcome of driving an allocator with an adaptive adversary."""

    trace: AllocationTrace
    target_alpha: Fraction
    achieved_ratio: Fraction
    target_reached: bool
    cycles: int | None = None  # completed equalize-strike cycles, when applicable


def run_adaptive(adversary: AdaptiveAdversary, allocator) -> AdversaryRun:
    """Stream an adaptive adversary's columns into an allocator."""
    if allocator.n != adversary.n:
        raise DomainError(
            f"allocator handles {allocator.n} agents, adversary emits {adversary.n}"
        )
    recorder = TraceRecorder(allocator.state)
    columns = []
    while (column := adversary.next_column(recorder.owners)) is not None:
        recorder.record(allocator.observe(column))
        columns.append(column)
    inst = instance_from_columns(columns, adversary.n)
    trace = recorder.build_trace(inst, getattr(allocator, "potential_log", None))
    ratio = allocator.state.ratio()
    return AdversaryRun(
        trace=trace,
        target_alpha=adversary.target_alpha,
        achieved_ratio=ratio,
        target_reached=getattr(adversary, "target_reached", ratio < adversary.target_alpha),
        cycles=getattr(adversary, "cycles", None),
    )


# ---------------------------------------------------------------------------
# Greedy-3 adaptive construction (two-agent dynamics, zero columns for others)
# ---------------------------------------------------------------------------


class Greedy3Adversary(AdaptiveAdversary):
    """Drives the anticipatory greedy rule's PROP1 ratio below any target < 2/3.

    After a fixed three-good opening (all further dynamics involve agents 1
    and 2 only; remaining agents see zero columns), the schedule alternates:

    * equalization: goods worth c_j/2 to the currently better-off agent j and
      nothing to anyone else, each necessarily allocated to the worse-off
      agent i, until j's running value is within the 1 + c_j/(2 v_j(G))
      factor of i's; the number of goods emitted must match the closed-form
      count ceil((2/c_j) v_j(G) (a_j/a_i - 1)) - 1 and this is asserted;
    * a strike: one good worth c_1 to agent 1 and c_2 to agent 2, which
      strictly lowers the smaller running value whichever of the two
      receives it.

    Every cycle also asserts the harmonic certificate
    1/a_min >= 3/2 + sum_{s=1..k} 1/(2(s+2)) in exact arithmetic.

    The target is the PROP1 ratio (n times the smaller running value, capped
    at 1); targets at or above 2/3 are rejected because the opening pins the
    smaller running value at 2/3 and feasible targets are calibrated below
    it.  A step budget bounds the finite horizon; exhausting it is reported
    through ``target_reached``, never silently.
    """

    OPENING_LAMBDA = 2  # max over the two live agents of bundle/c after the opening

    def __init__(self, alpha_target: Fraction, max_steps: int, n: int = 2):
        if n < 2:
            raise DomainError("need at least 2 agents")
        if not 0 < alpha_target < Fraction(2, 3):
            raise DomainError(
                f"target {alpha_target} infeasible: the opening pins the running minimum at 2/3"
            )
        if max_steps < 4:
            raise DomainError("need a step budget of at least 4")
        self.n = n
        self.target_alpha = alpha_target
        self.max_steps = max_steps
        self.t = 0  # columns emitted so far
        self.cycles = 0
        self.target_reached = False
        self.done = False
        # mirror of the allocator's running state; agents 1 and 2 are 0 and 1
        # here, and padded agents stay at value 1 after the opening
        self._mirror = Prop1State(n)
        self._min_agent: int | None = None  # 0-based, among {0, 1}
        self._phase = "opening"
        self._opening_expect = [1, 2, 1]
        self._equalize_emitted = 0
        self._equalize_formula: int | None = None
        self._frozen_min_alpha: Fraction | None = None
        self._pending: tuple[list[Fraction], object] | None = None  # (column, expected owner(s))
        self._cert_rhs = Fraction(3, 2)

    # -- derived state ------------------------------------------------------

    def _alpha(self, j: int) -> Fraction:
        return self._mirror.value(j)

    def predicted_cycles_bound(self) -> int:
        """Cycles that certify the target via the harmonic lower bound alone.

        The actual schedule reaches the target far sooner; this is the
        worst-case guarantee, useful for judging feasibility of small
        targets.  Float arithmetic: advisory only, no fairness decision.
        """
        need = float(self.n / self.target_alpha)
        rhs, k = 1.5, 0
        while rhs < need:
            k += 1
            rhs += 1.0 / (2 * (k + self.OPENING_LAMBDA))
        return k

    # -- protocol -----------------------------------------------------------

    def next_column(self, history: Sequence[int]) -> list[Fraction] | None:
        self._absorb(history)
        if self.done:
            return None
        if self.t >= self.max_steps:
            self.done = True
            return None

        if self._phase == "opening":
            if self.t == 0:
                return self._emit([Fraction(1)] * self.n, 1)
            col = [Fraction(1), Fraction(1)] + [Fraction(0)] * (self.n - 2)
            return self._emit(col, self._opening_expect[self.t])

        if self._phase == "equalize":
            i = self._min_agent
            j = 1 - i
            c = self._mirror.best_outside
            delta = c[j] / (2 * self._mirror.total[j])
            if self._alpha(j) > self._frozen_min_alpha * (1 + delta):
                col = [Fraction(0)] * self.n
                col[j] = c[j] / 2
                self._equalize_emitted += 1
                return self._emit(col, i + 1)
            if self._equalize_emitted != self._equalize_formula:
                raise InvariantError(
                    f"equalization emitted {self._equalize_emitted} goods, "
                    f"closed form says {self._equalize_formula}"
                )
            self._phase = "strike"

        # strike: one good worth c_r to each live agent r
        col = [Fraction(0)] * self.n
        col[:2] = self._mirror.best_outside[:2]
        return self._emit(col, (1, 2))

    # -- internals ----------------------------------------------------------

    def _emit(self, col: list[Fraction], expect) -> list[Fraction]:
        self._pending = (col, expect)
        self.t += 1
        return col

    def _absorb(self, history: Sequence[int]) -> None:
        if self._pending is None:
            return
        if len(history) != self.t:
            raise DomainError(f"history has {len(history)} decisions, expected {self.t}")
        col, expect = self._pending
        self._pending = None
        owner = history[-1]
        if isinstance(expect, tuple):
            if owner not in expect:
                raise InvariantError(
                    f"allocator diverged at t={self.t}: gave the strike good to agent {owner}"
                )
        elif owner != expect:
            raise InvariantError(
                f"allocator diverged at t={self.t}: expected agent {expect}, saw {owner}"
            )
        self._mirror.arrive(col)
        self._mirror.assign(col, owner)

        if self._phase == "opening" and self.t == 3:
            self._finish_opening()
        elif self._phase == "strike":
            self._finish_strike(owner)

    def _finish_opening(self) -> None:
        bundle, c, total = self._mirror.bundle, self._mirror.best_outside, self._mirror.total
        if not (
            self._alpha(0) == 1
            and self._alpha(1) == Fraction(2, 3)
            and c[:2] == [Fraction(1), Fraction(1)]
            and total[:2] == [Fraction(3), Fraction(3)]
        ):
            raise InvariantError("opening state diverged from the construction")
        lam = max(bundle[0] / c[0], bundle[1] / c[1])
        if lam != self.OPENING_LAMBDA:
            raise InvariantError(f"opening bundle/c ratio {lam} differs from 2")
        self._min_agent = 1
        self._start_cycle()

    def _start_cycle(self) -> None:
        i = self._min_agent
        j = 1 - i
        self._frozen_min_alpha = self._alpha(i)
        gap = self._alpha(j) / self._frozen_min_alpha - 1
        self._equalize_formula = (
            math.ceil(2 / self._mirror.best_outside[j] * self._mirror.total[j] * gap) - 1
        )
        self._equalize_emitted = 0
        self._phase = "equalize"

    def _finish_strike(self, owner: int) -> None:
        old_min = self._frozen_min_alpha
        new_min = 1 - (owner - 1)  # the live agent that did NOT receive the strike
        if not self._alpha(new_min) < old_min:
            raise InvariantError("strike failed to lower the running minimum strictly")
        other = 1 - new_min
        if not self._alpha(new_min) < self._alpha(other):
            raise InvariantError("post-strike minimum is not strict between the live agents")
        if self.n > 2 and not self._alpha(new_min) < 1:
            raise InvariantError("post-strike minimum not below the padded agents' value 1")
        self._min_agent = new_min
        self.cycles += 1
        self._cert_rhs += Fraction(1, 2 * (self.cycles + self.OPENING_LAMBDA))
        if not 1 / self._alpha(new_min) >= self._cert_rhs:
            raise InvariantError(
                f"harmonic certificate failed at cycle {self.cycles}: "
                f"1/{self._alpha(new_min)} < {self._cert_rhs}"
            )
        if self._mirror.ratio() < self.target_alpha:
            self.target_reached = True
            self.done = True
        else:
            self._start_cycle()


# ---------------------------------------------------------------------------
# EF1 / MMS / PROPX impossibility under perfect MIV predictions
# ---------------------------------------------------------------------------


def impossibility_constants(n: int, alpha_target: Fraction) -> tuple[int, int, Fraction]:
    """Horizon m, growth base K and seed value eps of the construction."""
    _check_target(n, alpha_target)
    m = math.ceil(Fraction(n) / alpha_target) + n + 2
    k = math.ceil(Fraction(3) / alpha_target)
    eps = Fraction(1, k ** (m - 2))
    return m, k, eps


class MivImpossibilityAdversary(AdaptiveAdversary):
    """Adaptive schedule under which no allocator can approximate EF1, MMS or
    PROPX, even though every emitted value stays within the all-ones MIV
    predictions (each agent's realized maximum is exactly 1, so the
    predictions are perfect on every run).

    Good 1 is worth 1 to everyone and is asserted to go to agent 1.  While
    agent 1 still holds a single good, or within the first n steps, good t is
    worth 1 to agent 1 and eps * K^(t-2) to everyone else; afterwards the
    remaining columns are zero.  Whatever the allocator does, the resulting
    allocation violates the target approximation of EF1 and MMS.  It
    usually violates PROPX too, but not always: with the least-satisfied
    greedy rule at n = 2, agent 1 keeps only good 1 and the allocation
    stays alpha-PROPX (checked at alpha = 1/2, 1/3 and 1/4).  The
    ``notion`` field only selects which violation a report highlights; the
    construction is the same for all of them.
    """

    def __init__(self, n: int, alpha_target: Fraction, notion: str = "ef1"):
        if notion not in ("ef1", "mms", "propx"):
            raise DomainError(f"unknown fairness notion {notion!r}")
        self.n = n
        self.target_alpha = alpha_target
        self.notion = notion
        self.m, self.growth, self.eps = impossibility_constants(n, alpha_target)
        self.t = 0
        self.target_reached = True  # the construction succeeds against any allocator
        self._agent1_goods = 0
        self._awaiting = False

    def next_column(self, history: Sequence[int]) -> list[Fraction] | None:
        if self._awaiting:
            if len(history) != self.t:
                raise DomainError(f"history has {len(history)} decisions, expected {self.t}")
            owner = history[-1]
            if self.t == 1 and owner != 1:
                raise InvariantError("good 1 must go to agent 1")
            if owner == 1:
                self._agent1_goods += 1
            self._awaiting = False
        if self.t >= self.m:
            return None
        self.t += 1
        t = self.t
        if t == 1:
            col = [Fraction(1)] * self.n
        elif self._agent1_goods == 1 or t <= self.n:
            col = [Fraction(1)] + [self.eps * self.growth ** (t - 2)] * (self.n - 1)
        else:
            col = [Fraction(0)] * self.n
        for v in col:
            if v > 1:
                raise InvariantError(f"emitted value {v} breaks the unit prediction bound")
        self._awaiting = True
        return col
