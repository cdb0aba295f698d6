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
from fractions import Fraction
from typing import Generator, Sequence

from .algorithms import OnlineAllocator, TraceRecorder, make_allocator, run
from .core import Instance, instance_from_rows
from .errors import DomainError, InstanceTooLargeError, InvariantError
from .metrics import (
    Prop1State,
    check_alpha_ef1,
    check_alpha_mms,
    check_alpha_prop1,
    check_alpha_propx,
    prop1_ratio,
)

#: The default step budget of a run, for the CLI, campaigns and library.
MAX_STEPS = 10**6


_EULER_GAMMA = 0.5772156649015329


def _harmonic(N: int) -> float:
    """H_N = 1 + 1/2 + ... + 1/N by its asymptotic series in floats; the next
    term, 1/(252 N^6), is below 1e-12 from N = 50 on."""
    return math.log(N) + _EULER_GAMMA + 1 / (2 * N) - 1 / (12 * N**2) + 1 / (120 * N**4)


# ---------------------------------------------------------------------------
# Static constructions
# ---------------------------------------------------------------------------


def greedy1_adversary(n: int, alpha_target: Fraction) -> Instance:
    """Instance on which the relative-value greedy rule starves agent 2.

    Good 1 is worth 1 to everyone; every later good is worth 1 to agent 1,
    1/2 to agent 2 and nothing to the rest.  With lowest-index tie-breaking
    agent 1 wins every good, and the horizon m (smallest integer above
    1 + 2(n/alpha - 1), i.e. floor(2n/alpha)) makes agent 2's best-good
    escape fall below alpha * v_2(G) / n.
    """
    _check_target(n, alpha_target)
    return _one_then_fixed(n, _TABLE["greedy1"][1](n, alpha_target), Fraction(1, 2))


def greedy2_adversary(n: int, alpha_target: Fraction) -> Instance:
    """Instance on which the least-satisfied greedy rule freezes agent 1.

    Good 1 is worth 1 to everyone; later goods are worth 1 to agent 1 and a
    sliver 1/m^2 to agent 2.  Agent 1's bundle share stays the largest, so
    agent 1 keeps only good 1.  The horizon is the smallest integer with
    2/m < alpha/n (the inequality the failure certificate needs), i.e. the
    smallest integer above 2n/alpha.
    """
    _check_target(n, alpha_target)
    m = _TABLE["greedy2"][1](n, alpha_target)
    return _one_then_fixed(n, m, Fraction(1, m * m))


def _one_then_fixed(n: int, m: int, agent2: Fraction) -> Instance:
    """m goods: good 1 is worth 1 to everyone, every later good 1 to agent 1,
    ``agent2`` to agent 2 and 0 to the rest."""
    later = [Fraction(1), agent2] + [Fraction(0)] * (n - 2)
    return instance_from_rows([[Fraction(1)] + [v] * (m - 1) for v in later])


def _check_agents(n: int, alpha_target: Fraction) -> None:
    """Refuse fewer than 2 agents, then a target that is not an int or a Fraction."""
    if n < 2:
        raise DomainError("need at least 2 agents")
    if isinstance(alpha_target, bool) or not isinstance(alpha_target, (int, Fraction)):
        raise DomainError(f"target ratio {alpha_target!r} is not an int or a Fraction")


def _check_target(n: int, alpha_target: Fraction) -> None:
    _check_agents(n, alpha_target)
    if not 0 < alpha_target <= 1:
        raise DomainError(f"target ratio {alpha_target} outside (0, 1]")


def _check_greedy3(n: int, alpha_target: Fraction, max_steps: int) -> None:
    _check_agents(n, alpha_target)
    if not 0 < alpha_target < Fraction(2, 3):
        raise DomainError(
            f"target {alpha_target} infeasible: the opening pins the running minimum at 2/3"
        )
    if max_steps < 4:
        raise DomainError("need a step budget of at least 4")


def verify_greedy1_failure(trace: TraceRecorder, alpha_target: Fraction) -> None:
    """Assert the facts the greedy-1 construction forces, exactly."""
    inst, owners = trace.instance, trace.owners
    if owners[0] != 1:
        raise InvariantError("good 1 must go to agent 1 under lowest-index ties")
    if any(o == 2 for o in owners):
        raise InvariantError("agent 2 must never receive a good")
    term = Fraction(1, 1) / (1 + Fraction(inst.m - 1, 2))
    num, den = trace.alpha_num[1][-1], trace.alpha_den[1][-1]  # agent 2's weights
    if not den or num * term.denominator != den * term.numerator:
        raise InvariantError("agent 2's final running value diverged from the construction")
    if not term < alpha_target / inst.n:
        raise InvariantError("horizon too short: the failure inequality does not bind")
    if not prop1_ratio(inst, trace.allocation) < alpha_target:
        raise InvariantError("PROP1 ratio did not fall below the target")


def verify_greedy2_failure(trace: TraceRecorder, alpha_target: Fraction) -> None:
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


# ---------------------------------------------------------------------------
# Adaptive adversary protocol
# ---------------------------------------------------------------------------


class AdaptiveAdversary:
    """Emits runs of equal value columns, seeing all prior allocation decisions.

    ``next_column(history)`` receives the owners chosen for every column
    emitted so far, one per column (otherwise ``DomainError``), and returns
    the next run's column, or None when done, with its length in
    ``copies``.  A construction writes its schedule as the generator
    ``_schedule()``: it yields ``(column, allowed, copies)``, a run of
    ``copies`` equal goods (more than one only when a single agent is
    allowed), and is sent the run's owner once every copy's owner has been
    checked against ``allowed`` (a forbidden owner raises ``InvariantError``
    naming the first such good).  The last run is cut short where ``t``
    reaches ``max_steps``, and the schedule ends when the generator returns
    or ``t`` reaches ``max_steps``.
    """

    max_steps: int | float = math.inf
    target_reached = False

    def __init__(self, n: int, alpha_target: Fraction):
        self.n = n
        self.target_alpha = alpha_target
        self.t = 0  # columns emitted so far
        self.copies = 0  # columns the last call emitted
        self._steps = self._schedule()
        self._run: tuple = ((), 0)  # the last run's allowed agents and copies the budget cut off

    def _schedule(self) -> Generator[tuple[list[Fraction], Sequence[int], int], int, None]:
        raise NotImplementedError

    def next_column(self, history: Sequence[int]) -> list[Fraction] | None:
        if self._steps is None:
            return None
        if len(history) != self.t:
            raise DomainError(f"history has {len(history)} decisions, expected {self.t}")
        start, (allowed, left) = self.t - self.copies, self._run
        if not set(history[start:]).issubset(allowed):
            t, owner = next((t, o) for t, o in enumerate(history[start:], start + 1) if o not in allowed)
            allowed = " or ".join(map(str, allowed))
            raise InvariantError(f"good {t} must go to agent {allowed}, saw agent {owner}")
        column = None  # a run the budget cut short ends the schedule
        if not left:
            try:
                column, allowed, left = self._steps.send(history[-1] if self.t else None)
            except StopIteration:
                pass
        if column is None or self.t >= self.max_steps:
            self._steps = None
            return None
        self.copies = min(left, self.max_steps - self.t)
        self._run = allowed, left - self.copies
        self.t += self.copies
        return column


class AdversaryRun:
    """Outcome of driving an allocator with a construction; ``run_adaptive``
    leaves the two dicts that ``run_construction`` fills empty."""

    def __init__(self, trace: TraceRecorder, achieved_ratio: Fraction, target_reached: bool,
                 fields: dict | None = None, verdicts: dict[str, bool | None] | None = None):
        self.trace, self.achieved_ratio, self.target_reached = trace, achieved_ratio, target_reached
        self.fields = {} if fields is None else fields  # the keys ``fairdiv adversary`` adds to its JSON
        self.verdicts = {} if verdicts is None else verdicts  # campaign cells, by column


def run_adaptive(adversary: AdaptiveAdversary, allocator) -> AdversaryRun:
    """Stream an adaptive adversary's columns into an allocator."""
    if allocator.n != adversary.n:
        raise DomainError(
            f"allocator handles {allocator.n} agents, adversary emits {adversary.n}"
        )
    recorder = TraceRecorder(allocator.state)
    rows = [[] for _ in range(adversary.n)]
    while (column := adversary.next_column(recorder.owners)) is not None:
        recorder.place(allocator, column, adversary.copies)
        for row, v in zip(rows, column):
            row += [v] * adversary.copies
    recorder.instance = instance_from_rows(rows)
    recorder.potential = None if allocator.potential_log is None else tuple(allocator.potential_log)
    return AdversaryRun(recorder, allocator.state.ratio(), adversary.target_reached)


# ---------------------------------------------------------------------------
# Greedy-3 adaptive construction (two-agent dynamics, zero columns for others)
# ---------------------------------------------------------------------------


class Greedy3Adversary(AdaptiveAdversary):
    """Drives the anticipatory greedy rule's PROP1 ratio below any target < 2/3.

    After a fixed three-good opening (all further dynamics involve agents 1
    and 2 only; remaining agents see zero columns), the schedule alternates:

    * equalization: one run of goods worth c_j/2 to the currently better-off
      agent j and nothing to anyone else, each necessarily allocated to the
      worse-off agent i, until j's running value is within the
      1 + c_j/(2 v_j(G)) factor of i's.  The run's length is the closed-form
      count ceil((2/c_j) v_j(G) (a_j/a_i - 1)) - 1, and the check after the
      run is what verifies that count: the condition above still held before
      its last copy and fails after it (it is monotone: j's total grows by
      c_j/2 a copy while j's bundle and best outside good stay put);
    * a strike: one good worth c_1 to agent 1 and c_2 to agent 2, which
      strictly lowers the smaller running value whichever of the two
      receives it.

    Every cycle also asserts the harmonic certificate
    1/a_min >= 3/2 + sum_{s=1..k} 1/(2(s+2)) in exact arithmetic.

    The schedule works on the mirror's integer weights, comparing running
    values as cross-multiplied pairs of one agent's weights; ``Fraction``s
    are built only for the emitted columns and the certificate's exact sum.

    The target is the PROP1 ratio (n times the smaller running value, capped
    at 1); targets at or above 2/3 are rejected because the opening pins the
    smaller running value at 2/3 and feasible targets are calibrated below
    it.  A step budget bounds the finite horizon; exhausting it is reported
    through ``target_reached``, never silently.
    """

    OPENING_LAMBDA = 2  # max over the two live agents of bundle/c after the opening

    def __init__(self, alpha_target: Fraction, max_steps: int, n: int = 2):
        _check_greedy3(n, alpha_target, max_steps)
        super().__init__(n, alpha_target)
        self.max_steps = max_steps
        self.cycles = 0
        # mirror of the allocator's running state; agents 1 and 2 are 0 and 1
        # here, and padded agents stay at value 1 after the opening
        self._mirror = Prop1State(n)

    def predicted_cycles_bound(self) -> int | None:
        """Cycles that certify the target via the harmonic lower bound alone.

        The certificate after k cycles is 3/2 + (H_{k+2} - 3/2)/2, H_N the
        N-th harmonic number, so this is the smallest k with
        H_{k+2} >= 2n/alpha - 3/2, found by bisection on N; None when
        n/alpha exceeds 350, where the bound passes 10^303.  The actual
        schedule reaches the target far sooner; this is the worst-case
        guarantee, useful for judging feasibility of small targets.  Float
        arithmetic: advisory only, no fairness decision.
        """
        ratio = self.n / self.target_alpha
        if ratio > 350:
            return None
        need = 2 * float(ratio) - 1.5
        lo, hi = 2, math.ceil(math.exp(need))  # H_2 = 3/2 < need <= ln(hi) < H_hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _harmonic(mid) < need:
                lo = mid
            else:
                hi = mid
        return hi - 2

    # bound in each class body, so perfbench/tracer.py can wrap it per class
    next_column = AdaptiveAdversary.next_column

    def _emit(self, col: list[Fraction], *allowed: int, copies: int = 1):
        """Yield ``copies`` of ``col`` for one of ``allowed``; mirror them and
        return their owner."""
        owner = yield col, allowed, copies
        self._mirror.arrive([(v.numerator, v.denominator) for v in col], copies)
        self._mirror.assign(owner, copies)
        return owner

    def _schedule(self):
        n, mirror = self.n, self._mirror
        value, scale = mirror.value, mirror.scale
        held, c, total = mirror.held_w, mirror.best_w, mirror.total_w  # weights, scale L_i
        zero = Fraction(0)
        pad = [zero] * (n - 2)
        yield from self._emit([Fraction(1)] * n, 1)
        yield from self._emit([Fraction(1), Fraction(1)] + pad, 2)
        yield from self._emit([Fraction(1), Fraction(1)] + pad, 1)
        opening = (mirror.values(c)[:2], mirror.values(total)[:2])
        if (value(0), value(1), *opening) != (1, Fraction(2, 3), [1, 1], [3, 3]):
            raise InvariantError("opening state diverged from the construction")
        lam = max(Fraction(held[0], c[0]), Fraction(held[1], c[1]))
        if lam != self.OPENING_LAMBDA:
            raise InvariantError(f"opening bundle/c ratio {lam} differs from 2")
        tp, tq = self.target_alpha.as_integer_ratio()
        cert_rhs = Fraction(3, 2)
        i = 1  # the live agent with the smaller running value, 0-based
        while True:
            j = 1 - i
            p, q = held[i] + c[i], total[i]  # old_min = p/q
            # ceil((2 T_j / c_j) (value(j) / old_min - 1)) - 1
            emitted = -(2 * (p * total[j] - (held[j] + c[j]) * q) // (c[j] * p)) - 1
            if emitted > 0:
                col = [zero] * n
                col[j] = Fraction(c[j], 2 * scale[j])
                yield from self._emit(col, i + 1, copies=emitted)
            # value(j) > old_min (1 + c_j / (2 T_j)) in agent j's weights is
            # 2 (held_j + c_j) q > p (2 T_j + c_j); with one copy (c_j / 2)
            # fewer, 2 (held_j + c_j) q > 2 p T_j
            lhs = 2 * (held[j] + c[j]) * q
            if lhs > p * (2 * total[j] + c[j]) or emitted and not lhs > 2 * p * total[j]:
                raise InvariantError(f"equalization of {emitted} goods stops off its boundary")
            owner = yield from self._emit([Fraction(c[0], scale[0]), Fraction(c[1], scale[1])] + pad, 1, 2)
            i = 2 - owner  # the live agent that did NOT receive the strike
            a, b = held[i] + c[i], total[i]  # new_min = a/b
            if not a * q < p * b:
                raise InvariantError("strike failed to lower the running minimum strictly")
            # an agent with total 0 has value INF, above new_min
            if not all(not total[r] or a * total[r] < (held[r] + c[r]) * b for r in range(n) if r != i):
                raise InvariantError("post-strike minimum is not strict over all agents")
            self.cycles += 1
            cert_rhs += Fraction(1, 2 * (self.cycles + self.OPENING_LAMBDA))
            if not b * cert_rhs.denominator >= cert_rhs.numerator * a:  # 1/new_min >= cert_rhs
                # approximate: past ~10,000 cycles cert_rhs has more digits than str() allows
                raise InvariantError(
                    f"harmonic certificate failed at cycle {self.cycles}: "
                    f"1/a_min ~ {b / a:.9g} < {float(cert_rhs):.9g}"
                )
            # new_min is the strict minimum, so the PROP1 ratio is
            # min(1, n new_min), and the target is below 1
            if n * a * tq < tp * b:
                self.target_reached = True
                return


# ---------------------------------------------------------------------------
# EF1 / MMS / PROPX impossibility under perfect MIV predictions
# ---------------------------------------------------------------------------


def impossibility_constants(n: int, alpha_target: Fraction) -> tuple[int, int, Fraction]:
    """Horizon m, growth base K and seed value eps of the construction."""
    _check_target(n, alpha_target)
    m = _TABLE["miv-impossibility"][1](n, alpha_target)
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
    stays alpha-PROPX (checked at alpha = 1/2, 1/3 and 1/4).
    """

    target_reached = True  # the construction succeeds against any allocator

    def __init__(self, n: int, alpha_target: Fraction):
        super().__init__(n, alpha_target)
        self.m, self.growth, self.eps = impossibility_constants(n, alpha_target)

    next_column = AdaptiveAdversary.next_column

    def _schedule(self):
        n, agents = self.n, range(1, self.n + 1)
        yield [Fraction(1)] * n, (1,), 1
        agent1_goods = 1
        for t in range(2, self.m + 1):
            if agent1_goods == 1 or t <= n:
                value = self.eps * self.growth ** (t - 2)
                if value > 1:
                    raise InvariantError(f"emitted value {value} breaks the unit prediction bound")
                col = [Fraction(1)] + [value] * (n - 1)
            else:
                col = [Fraction(0)] * n
            owner = yield col, agents, 1
            agent1_goods += owner == 1


# ---------------------------------------------------------------------------
# Running a construction by name
# ---------------------------------------------------------------------------

#: Every construction, by the name the CLI and campaign configs use: the
#: rule it faces (None: the caller's, default "miv"), the goods it emits
#: for n and alpha (None: greedy3's, bounded only by the step budget) and,
#: for a static construction, its instance builder and verifier.
_TABLE = {
    "greedy1": ("greedy1", lambda n, alpha: math.floor(2 * Fraction(n) / alpha),
                (greedy1_adversary, verify_greedy1_failure)),
    "greedy2": ("greedy2", lambda n, alpha: math.floor(2 * Fraction(n) / alpha) + 1,
                (greedy2_adversary, verify_greedy2_failure)),
    "greedy3": ("greedy3", None, None),
    "miv-impossibility": (None, lambda n, alpha: math.ceil(Fraction(n) / alpha) + n + 2, None),
}
CONSTRUCTIONS = tuple(_TABLE)


def check_construction(
    construction: str, n: int, alpha: Fraction, *, max_steps: int = MAX_STEPS,
    allocator: str | None = None, seed: int | None = None,
) -> tuple[str, OnlineAllocator]:
    """Run every check ``run_construction`` starts with; return the name of
    the rule that faces ``construction`` and that rule, built.

    greedy1-3 each face their own rule; the impossibility faces
    ``allocator`` (default "miv").  In order, an allocator that does not
    apply, a negative ``max_steps``, fewer than 2 agents, a target that is
    not an int or a Fraction or is out of range, a horizon over
    ``max_steps`` (greedy3's budget below 4) and a bad rule name or seed
    raise DomainError, before anything is built.  A batch checks every item
    first.
    """
    if not isinstance(construction, str) or construction not in _TABLE:
        raise DomainError(f"unknown construction {construction!r}; choose from {CONSTRUCTIONS}")
    rule_name, horizon, _ = _TABLE[construction]
    if rule_name is None:
        rule_name = "miv" if allocator is None else allocator
    elif allocator not in (None, rule_name):
        raise DomainError(f"{construction} faces its own rule, got allocator {allocator!r}")
    if max_steps < 0:
        raise DomainError(f"the step budget must not be negative, got {max_steps}")
    if horizon is None:
        _check_greedy3(n, alpha, max_steps)
    else:
        _check_target(n, alpha)
        if (m := horizon(n, alpha)) > max_steps:
            raise DomainError(f"{construction} needs {m} goods, over the step budget of {max_steps}")
    return rule_name, make_allocator(rule_name, n, seed)


def run_construction(
    construction: str, n: int, alpha: Fraction, *, max_steps: int = MAX_STEPS,
    allocator: str | None = None, seed: int | None = None,
) -> AdversaryRun:
    """Build and run one construction against the rule that faces it.

    greedy1/greedy2 run their static instance through their own rule and
    assert every forced fact (``verify_greedy*_failure``); greedy3 drives
    its own rule within ``max_steps`` and reports its cycles and the
    certified cycle bound; the impossibility drives ``allocator`` (seeded
    by ``seed``) and reports whether the allocation is 1/n-PROP1 and
    alpha-EF1, -PROPX and -MMS, the last None above the MMS size guard.
    ``check_construction``'s checks run first, building the one rule.  A
    forced fact that fails raises ``InvariantError``.
    """
    rule_name, rule = check_construction(
        construction, n, alpha, max_steps=max_steps, allocator=allocator, seed=seed
    )
    static = _TABLE[construction][2]
    if static is not None:
        build, verify = static
        trace = run(rule, build(n, alpha))
        verify(trace, alpha)
        ratio = rule.state.ratio()
        return AdversaryRun(trace, ratio, ratio < alpha, {"cycles": None},
                            {"ratio_below_target": ratio < alpha})
    if construction == "greedy3":
        adversary = Greedy3Adversary(alpha, max_steps, n)
        result = run_adaptive(adversary, rule)
        result.fields = {"cycles": adversary.cycles,
                         "certified_cycles_bound": adversary.predicted_cycles_bound()}
        # false, not an invariant breach, when the step budget runs out first
        result.verdicts = {"ratio_below_target": result.achieved_ratio < alpha}
        return result
    result = run_adaptive(MivImpossibilityAdversary(n, alpha), rule)
    inst, alloc = result.trace.instance, result.trace.allocation
    verdicts = result.verdicts = {
        "prop1_at_inv_n": check_alpha_prop1(inst, alloc, Fraction(1, n)).satisfied,
        "alpha_ef1": check_alpha_ef1(inst, alloc, alpha).satisfied,
        "alpha_propx": check_alpha_propx(inst, alloc, alpha).satisfied,
    }
    try:
        verdicts["alpha_mms"] = check_alpha_mms(inst, alloc, alpha).satisfied
    except InstanceTooLargeError:
        verdicts["alpha_mms"] = None
    result.fields = {"allocator": rule_name, **verdicts}
    return result
