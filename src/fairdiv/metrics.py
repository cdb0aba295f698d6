"""Exact evaluation of PROP1, EF1, PROPX and MMS, plus brute-force oracles.

Every check returns its verdict together with the witness that decides it,
so a verdict can always be re-verified by plugging the witness back into the
definition.  Conventions shared by all checks:

* An agent holding every good, or valuing every good at zero, is vacuously
  satisfied; its running value is ``INF``.
* The PROP1 witness is the most valuable good outside the agent's bundle,
  the PROPX witness is the least valuable one.  Both notions are monotone in
  the witness value, so the extreme good decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import INF, Allocation, Instance, RatOrInf, check_allocation
from .errors import DomainError, InstanceTooLargeError

#: Exhaustive oracles refuse instances with more than this many labeled
#: n-partitions; the adversarial constructions stay far below it.
ENUMERATION_GUARD = 10**7


# ---------------------------------------------------------------------------
# Running PROP1 bookkeeping
# ---------------------------------------------------------------------------


class Prop1State:
    """Per-agent bookkeeping behind the running PROP1 values.

    Keeps each agent's arrived total, bundle value, best outside good and
    that good's earliest 0-based index (None while the agent holds every
    arrived good).  A good is taken in two steps: ``arrive`` adds it to the
    totals, then ``assign`` to the owner's bundle or the others' outside
    goods, so a rule deciding in between sees totals that include the good
    and bundles that do not.
    """

    def __init__(self, n: int):
        self.n = n
        self.t = 0
        self.total = [Fraction(0)] * n
        self.bundle = [Fraction(0)] * n
        self.best_outside = [Fraction(0)] * n
        self.witness: list[int | None] = [None] * n

    def arrive(self, col: Sequence[Fraction]) -> None:
        self.t += 1
        for i in range(self.n):
            self.total[i] += col[i]

    def assign(self, col: Sequence[Fraction], owner: int) -> None:
        # the first outside good becomes the witness even when it is worth 0
        for i in range(self.n):
            if i == owner - 1:
                self.bundle[i] += col[i]
            elif self.witness[i] is None or col[i] > self.best_outside[i]:
                self.best_outside[i] = col[i]
                self.witness[i] = self.t - 1

    def value(self, i: int) -> RatOrInf:
        """Agent i+1's running PROP1 value; ``INF`` while its total is zero."""
        if self.total[i] == 0:
            return INF
        return (self.bundle[i] + self.best_outside[i]) / self.total[i]

    def ratio(self) -> Fraction:
        """min(1, n * the smallest running value), a Fraction in [0, 1]."""
        worst = min(self.value(i) for i in range(self.n))
        return Fraction(1) if worst == INF else min(Fraction(1), self.n * worst)


def final_state(inst: Instance, alloc: Allocation) -> Prop1State:
    """The running PROP1 state once every good of ``alloc`` is placed."""
    check_allocation(inst, alloc)
    state = Prop1State(inst.n)
    for col, owner in zip(zip(*inst.values), alloc.owner):
        state.arrive(col)
        state.assign(col, owner)
    return state


def alpha_it(inst: Instance, owner: Sequence[int], agent: int, t: int) -> RatOrInf:
    """The running PROP1 value of ``agent`` once goods 1..t are allocated.

    Returns (v_i(A_i) + c_i) / v_i(G_t), where c_i is the value of the most
    valuable arrived good the agent does not hold (0 if none), and G_t the
    first t goods.  ``INF`` when the agent values all arrived goods at zero.
    """
    if not 0 <= t <= inst.m or t > len(owner):
        raise DomainError(f"timestep {t} outside the allocated prefix")
    inst._check_agent(agent)
    row = inst.values[agent - 1]
    held = Fraction(0)
    outside = Fraction(0)
    total = Fraction(0)
    for k in range(t):
        v = row[k]
        total += v
        if owner[k] == agent:
            held += v
        elif v > outside:
            outside = v
    if total == 0:
        return INF
    return (held + outside) / total


def prop1_ratio(inst: Instance, alloc: Allocation) -> Fraction:
    """min(1, n * min_i of the agents' final PROP1 values), a Fraction in [0, 1].

    An agent holding every good has value 1 here rather than ``INF``; both
    put n times its value at or above 1, so the ratio is the same.
    """
    return final_state(inst, alloc).ratio()


# ---------------------------------------------------------------------------
# Approximate-fairness checks with witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentProp1:
    agent: int
    value: RatOrInf  # (v_i(A_i) + witness value) / v_i(G); INF if vacuous
    witness: int | str  # 1-based good index, or "self" when A_i = G
    satisfied: bool


@dataclass(frozen=True)
class Prop1Check:
    satisfied: bool
    alpha: Fraction
    agents: tuple[AgentProp1, ...]


def check_alpha_prop1(inst: Instance, alloc: Allocation, alpha: Fraction) -> Prop1Check:
    """alpha-PROP1: every agent holds everything, or some outside good g has
    v_i(A_i + g) >= alpha * v_i(G) / n.  The max-value outside good decides."""
    state = final_state(inst, alloc)
    if not 0 <= alpha <= 1:
        raise DomainError(f"alpha {alpha} outside [0, 1]")
    agents = []
    for i, witness in enumerate(state.witness):
        if witness is None:
            agents.append(AgentProp1(i + 1, INF, "self", True))
            continue
        ok = (state.bundle[i] + state.best_outside[i]) * inst.n >= alpha * state.total[i]
        agents.append(AgentProp1(i + 1, state.value(i), witness + 1, ok))
    return Prop1Check(all(a.satisfied for a in agents), alpha, tuple(agents))


def check_prop1(inst: Instance, alloc: Allocation) -> Prop1Check:
    return check_alpha_prop1(inst, alloc, Fraction(1))


@dataclass(frozen=True)
class EnvyWitness:
    envier: int
    envied: int


@dataclass(frozen=True)
class Ef1Check:
    satisfied: bool
    alpha: Fraction
    witness: EnvyWitness | None  # a violating pair, when unsatisfied


def check_alpha_ef1(inst: Instance, alloc: Allocation, alpha: Fraction) -> Ef1Check:
    """alpha-EF1: for every pair with A_j nonempty, removing the good in A_j
    that agent i values most leaves v_i(A_i) >= alpha * v_i(A_j - g)."""
    check_allocation(inst, alloc)
    if not 0 <= alpha <= 1:
        raise DomainError(f"alpha {alpha} outside [0, 1]")
    bundles = alloc.bundles(inst.n)
    for i in range(1, inst.n + 1):
        row = inst.values[i - 1]
        mine = sum((row[g - 1] for g in bundles[i - 1]), Fraction(0))
        for j in range(1, inst.n + 1):
            if i == j or not bundles[j - 1]:
                continue
            theirs = [row[g - 1] for g in bundles[j - 1]]
            reduced = sum(theirs, Fraction(0)) - max(theirs)
            if mine < alpha * reduced:
                return Ef1Check(False, alpha, EnvyWitness(i, j))
    return Ef1Check(True, alpha, None)


def check_ef1(inst: Instance, alloc: Allocation) -> Ef1Check:
    return check_alpha_ef1(inst, alloc, Fraction(1))


@dataclass(frozen=True)
class PropxWitness:
    agent: int
    good: int


@dataclass(frozen=True)
class PropxCheck:
    satisfied: bool
    alpha: Fraction
    witness: PropxWitness | None


def check_alpha_propx(inst: Instance, alloc: Allocation, alpha: Fraction) -> PropxCheck:
    """alpha-PROPX: every agent holds everything, or even the least valuable
    outside good g satisfies v_i(A_i + g) >= alpha * v_i(G) / n."""
    state = final_state(inst, alloc)
    if not 0 <= alpha <= 1:
        raise DomainError(f"alpha {alpha} outside [0, 1]")
    for agent in range(1, inst.n + 1):
        row = inst.values[agent - 1]
        outside = [t for t, o in enumerate(alloc.owner) if o != agent]
        if not outside:
            continue
        witness = min(outside, key=lambda t: (row[t], t))
        if (state.bundle[agent - 1] + row[witness]) * inst.n < alpha * state.total[agent - 1]:
            return PropxCheck(False, alpha, PropxWitness(agent, witness + 1))
    return PropxCheck(True, alpha, None)


def check_propx(inst: Instance, alloc: Allocation) -> PropxCheck:
    return check_alpha_propx(inst, alloc, Fraction(1))


# ---------------------------------------------------------------------------
# Maximin share by exhaustive enumeration
# ---------------------------------------------------------------------------


def mms_exact(inst: Instance, agent: int) -> Fraction:
    """Exact maximin share of one agent: the best achievable minimum bundle
    value over all partitions of the goods into n labeled parts.

    Exhaustive with branch-and-bound pruning over subsets; refuses instances
    with n^m above the enumeration guard.
    """
    inst._check_agent(agent)
    n, m = inst.n, inst.m
    if n**m > ENUMERATION_GUARD:
        raise InstanceTooLargeError(f"{n}^{m} labeled partitions exceed {ENUMERATION_GUARD}")
    if m == 0:
        return Fraction(0)
    row = inst.values[agent - 1]
    scale = lcm(*(v.denominator for v in row))
    weights = [int(v * scale) for v in row]
    full = (1 << m) - 1
    sums = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]

    best = -1

    def fill(parts_left: int, mask: int, cur_min: int) -> None:
        nonlocal best
        if parts_left == 1:
            value = min(cur_min, sums[mask])
            if value > best:
                best = value
            return
        sub = mask
        while True:
            value = min(cur_min, sums[sub])
            if value > best:
                fill(parts_left - 1, mask ^ sub, value)
            if sub == 0:
                break
            sub = (sub - 1) & mask

    # Relabeling parts never changes the min, so good 1 can be pinned to the
    # first part, cutting the search n-fold.
    rest = full & ~1
    sub = rest
    while True:
        first = sub | 1
        if sums[first] > best:
            fill(n - 1, full ^ first, sums[first])
        if sub == 0:
            break
        sub = (sub - 1) & rest
    return Fraction(best, scale)


def mms_profile(inst: Instance) -> tuple[Fraction, ...]:
    """MMS value of every agent."""
    return tuple(mms_exact(inst, agent) for agent in range(1, inst.n + 1))


@dataclass(frozen=True)
class MmsCheck:
    satisfied: bool
    alpha: Fraction
    mms: tuple[Fraction, ...]
    witness: int | None  # a violating agent, when unsatisfied


def check_alpha_mms(inst: Instance, alloc: Allocation, alpha: Fraction) -> MmsCheck:
    """alpha-MMS: v_i(A_i) >= alpha * MMS_i for every agent."""
    held = final_state(inst, alloc).bundle
    if not 0 <= alpha <= 1:
        raise DomainError(f"alpha {alpha} outside [0, 1]")
    mms = mms_profile(inst)
    witness = next((i + 1 for i in range(inst.n) if held[i] < alpha * mms[i]), None)
    return MmsCheck(witness is None, alpha, mms, witness)


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairnessReport:
    """Results of the requested checks on one (instance, allocation) pair."""

    prop1: Prop1Check | None
    prop1_ratio: Fraction | None
    ef1: Ef1Check | None
    propx: PropxCheck | None
    mms: MmsCheck | None
    mms_ratio: RatOrInf | None
    alpha: Fraction | None


def build_fairness_report(
    inst: Instance,
    alloc: Allocation,
    checks: Sequence[str] = ("prop1", "ef1", "propx"),
    alpha: Fraction | None = None,
) -> FairnessReport:
    """Run the named checks ("prop1", "ef1", "propx", "mms") and bundle the results.

    Without ``alpha`` the exact notions are checked (alpha = 1); with it, the
    multiplicative relaxations.  The MMS oracle only runs when asked for.
    """
    unknown = set(checks) - {"prop1", "ef1", "propx", "mms"}
    if unknown:
        raise DomainError(f"unknown checks: {sorted(unknown)}")
    a = Fraction(1) if alpha is None else alpha
    prop1 = ratio = ef1 = propx = mms = mms_ratio = None
    if "prop1" in checks:
        prop1 = check_alpha_prop1(inst, alloc, a)
        ratio = prop1_ratio(inst, alloc)
    if "ef1" in checks:
        ef1 = check_alpha_ef1(inst, alloc, a)
    if "propx" in checks:
        propx = check_alpha_propx(inst, alloc, a)
    if "mms" in checks:
        mms = check_alpha_mms(inst, alloc, a)
        held = final_state(inst, alloc).bundle
        worst = min(INF if v == 0 else h / v for h, v in zip(held, mms.mms))
        mms_ratio = Fraction(1) if worst == INF else min(Fraction(1), worst)
    return FairnessReport(prop1, ratio, ef1, propx, mms, mms_ratio, alpha)
