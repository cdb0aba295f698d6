"""Exact evaluation of PROP1, EF1, PROPX and MMS, plus brute-force oracles.

Every check returns its verdict together with the witness that decides it,
so a verdict can always be re-verified by plugging the witness back into the
definition.  Conventions shared by all checks:

* An agent holding every good, or valuing every good at zero, is vacuously
  satisfied; its running value is ``INF``.
* The PROP1 witness is the most valuable good outside the agent's bundle,
  the PROPX witness is the least valuable one, the earliest on ties.  Both
  notions are monotone in the witness value, so the extreme good decides.

The checks read each agent's row scaled to integers (``Instance.scaled``), so
bundles sum without Fractions.  Their ownership pass (each agent's total,
bundle weight, best outside weight and witness) takes a run of goods with one
owner in one step, runs once per (instance, allocation) pair and is kept on
the allocation, so ``prop1_ratio`` and the ``check_alpha_*`` checks of one
report share it; each check validates its own alpha.  ``Prop1State``, the
running state of allocators and traces, keeps integers too, scaled per agent.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import NamedTuple, Sequence

from .core import INF, Allocation, Instance, RatOrInf, _shown, check_allocation
from .errors import DomainError, InstanceTooLargeError

#: Exhaustive oracles refuse instances with more than this many labeled
#: n-partitions.  ``best_allocation_search`` enumerates them; ``mms_exact``
#: does not, and keeps the guard only for its output contract: the same
#: instances are refused, so the MMS verdicts above it stay null.
ENUMERATION_GUARD = 10**7


# ---------------------------------------------------------------------------
# Running PROP1 state, and each agent's ownership pass for the offline checks
# ---------------------------------------------------------------------------


class Prop1State:
    """Per-agent bookkeeping behind the running PROP1 values of allocators,
    traces and the greedy3 adversary's mirror.

    Agent i's values are integer weights over one scale L_i (``scale[i]``):
    value v is kept as v * L_i.  ``total_w``, ``held_w`` and ``best_w`` are
    the arrived total, the bundle value and the best outside value, and
    ``col_w`` the arriving good's weights.  A value whose denominator does
    not divide L_i makes ``rescale`` raise L_i to a multiple of it and
    multiply every row in ``rows`` by the same factor; a rule that keeps
    more per-agent weights adds its row there.  Ratios of one agent's
    weights are its ratios of values, so L_i cancels out of them.

    A good is taken in two steps: ``arrive(col)`` weighs its pairs (p, q),
    reduced or not, into ``col_w`` and the totals, then ``assign(owner)``
    adds those weights to the owner's bundle or the others' outside goods,
    so a rule deciding in between sees totals that include the good and
    bundles that do not.  Both take a count of equal goods in a row:
    ``copies`` copies of one column, all given to one owner, are one step.
    """

    def __init__(self, n: int):
        self.n = n
        self.t = 0
        self.scale = [1] * n
        self.total_w = [0] * n
        self.held_w = [0] * n
        self.best_w = [0] * n
        self.col_w = [0] * n
        self.rows = [self.total_w, self.held_w, self.best_w]

    def rescale(self, i: int, q: int) -> int:
        """Make L_i a multiple of q, scaling agent i's weights alike; return L_i."""
        k = q // gcd(self.scale[i], q)
        for row in self.rows:
            row[i] *= k
        self.scale[i] *= k
        return self.scale[i]

    def arrive(self, col: Sequence[tuple[int, int]], copies: int = 1) -> None:
        self.t += copies
        self.col_w = w = []
        total = self.total_w
        for i, (p, q) in enumerate(col):
            scale = self.scale[i]
            if scale % q:
                scale = self.rescale(i, q)
            w.append(p * (scale // q))
            total[i] += copies * w[i]

    def assign(self, owner: int, copies: int = 1) -> None:
        w, held, best = self.col_w, self.held_w, self.best_w
        for i in range(self.n):
            if i == owner - 1:
                held[i] += copies * w[i]
            elif w[i] > best[i]:
                best[i] = w[i]

    def values(self, row: Sequence[int]) -> list[Fraction]:
        """One of the weight rows as exact values."""
        return [Fraction(w, scale) for w, scale in zip(row, self.scale)]

    def value(self, i: int) -> RatOrInf:
        """Agent i+1's running PROP1 value; ``INF`` while its total is zero."""
        total = self.total_w[i]
        return INF if total == 0 else Fraction(self.held_w[i] + self.best_w[i], total)

    def ratio(self) -> Fraction:
        """min(1, n * the smallest running value), a Fraction in [0, 1]."""
        worst = min(self.value(i) for i in range(self.n))
        return Fraction(1) if worst == INF else min(Fraction(1), self.n * worst)


def _check_alpha(alpha: Fraction) -> None:
    if not 0 <= alpha <= 1:
        raise DomainError(f"alpha {_shown(alpha)} outside [0, 1]")


def _scaled_agents(inst: Instance, alloc: Allocation, alpha: Fraction | None = None) -> tuple[tuple, ...]:
    """Per agent, after validating ``alloc`` and then ``alpha`` (when given):
    (L, total weight, bundle weight, best outside weight, that good's earliest
    0-based index or None if the agent holds every good).  The first outside
    good is the witness even if worth 0.

    This ownership pass and the allocation check run once per (instance,
    allocation) pair: the result is kept on ``alloc`` with the instance it
    was made for, so the checks of one ``metrics`` run share it, and another
    instance, even an equal one, gets a pass of its own.
    """
    kept = alloc.__dict__.get("_ownership")
    if kept is None or kept[0] is not inst:
        check_allocation(inst, alloc)
        rows, runs, starts, owners = inst.scaled_runs, inst._long_runs, range(inst.m), alloc.owner
        if runs:  # a step per run, unless a run is split between owners
            first = list(accumulate(inst.copies, initial=0))[:-1]
            if inst._expand(by_run := [owners[t] for t in first]) == owners:
                starts, owners = first, by_run
            else:
                rows, runs = inst.scaled, ()
        agents = []
        for me, (scale, weights) in enumerate(rows, 1):
            held, best, witness = 0, 0, None
            for t, owner, w in zip(starts, owners, weights):
                if owner == me:
                    held += w
                elif witness is None or w > best:
                    best, witness = w, t
            total = sum(weights)
            for r, k in runs:  # a run's goods after its first
                total += (k - 1) * weights[r]
                held += (k - 1) * weights[r] if owners[r] == me else 0
            agents.append((scale, total, held, best, witness))
        # ``Allocation`` is frozen: kept the way ``cached_property`` keeps a value
        kept = alloc.__dict__["_ownership"] = (inst, tuple(agents))
    if alpha is not None:
        _check_alpha(alpha)
    return kept[1]


def prop1_ratio(inst: Instance, alloc: Allocation) -> Fraction:
    """min(1, n * min_i of the agents' final PROP1 values), a Fraction in [0, 1].

    An agent holding every good has value 1 here rather than ``INF``; both
    put n times its value at or above 1, so the ratio is the same.
    """
    worst: RatOrInf = INF
    for _, total, held, best, _ in _scaled_agents(inst, alloc):
        if total:
            worst = min(worst, Fraction(held + best, total))
    return Fraction(1) if worst == INF else min(Fraction(1), inst.n * worst)


# ---------------------------------------------------------------------------
# Approximate-fairness checks with witnesses
# ---------------------------------------------------------------------------


class AgentProp1(NamedTuple):
    agent: int
    value: RatOrInf  # (v_i(A_i) + witness value) / v_i(G); INF if vacuous
    witness: int | str  # 1-based good index, or "self" when A_i = G
    satisfied: bool


class Prop1Check(NamedTuple):
    satisfied: bool
    agents: tuple[AgentProp1, ...]


def check_alpha_prop1(inst: Instance, alloc: Allocation, alpha: Fraction) -> Prop1Check:
    """alpha-PROP1: every agent holds everything, or some outside good g has
    v_i(A_i + g) >= alpha * v_i(G) / n.  The max-value outside good decides."""
    agents = []
    for i, (_, total, held, best, witness) in enumerate(_scaled_agents(inst, alloc, alpha)):
        if witness is None:
            agents.append(AgentProp1(i + 1, INF, "self", True))
            continue
        value = INF if total == 0 else Fraction(held + best, total)
        ok = (held + best) * inst.n >= alpha * total
        agents.append(AgentProp1(i + 1, value, witness + 1, ok))
    return Prop1Check(all(a.satisfied for a in agents), tuple(agents))


class EnvyWitness(NamedTuple):
    envier: int
    envied: int


class Ef1Check(NamedTuple):
    satisfied: bool
    witness: EnvyWitness | None  # a violating pair, when unsatisfied


def check_alpha_ef1(inst: Instance, alloc: Allocation, alpha: Fraction) -> Ef1Check:
    """alpha-EF1: for every pair with A_j nonempty, removing the good in A_j
    that agent i values most leaves v_i(A_i) >= alpha * v_i(A_j - g)."""
    scaled = _scaled_agents(inst, alloc, alpha)
    bundles: list[list[int]] = [[] for _ in range(inst.n)]
    for t, owner in enumerate(alloc.owner):
        bundles[owner - 1].append(t)
    for i, ((_, _, mine, _, _), (_, weights)) in enumerate(zip(scaled, inst.scaled)):
        for j, goods in enumerate(bundles):
            if j != i and goods:
                theirs = [weights[t] for t in goods]
                if mine < alpha * (sum(theirs) - max(theirs)):
                    return Ef1Check(False, EnvyWitness(i + 1, j + 1))
    return Ef1Check(True, None)


class PropxWitness(NamedTuple):
    agent: int
    good: int


class PropxCheck(NamedTuple):
    satisfied: bool
    witness: PropxWitness | None


def check_alpha_propx(inst: Instance, alloc: Allocation, alpha: Fraction) -> PropxCheck:
    """alpha-PROPX: every agent holds everything, or even the least valuable
    outside good g satisfies v_i(A_i + g) >= alpha * v_i(G) / n."""
    for agent, (_, total, held, _, first) in enumerate(_scaled_agents(inst, alloc, alpha), 1):
        if first is None:
            continue
        least, witness = min(
            (w, t) for t, (w, o) in enumerate(zip(inst.scaled[agent - 1][1], alloc.owner)) if o != agent
        )
        if (held + least) * inst.n < alpha * total:
            return PropxCheck(False, PropxWitness(agent, witness + 1))
    return PropxCheck(True, None)


# ---------------------------------------------------------------------------
# Maximin share by subset sums and branch and bound
# ---------------------------------------------------------------------------


def mms_exact(inst: Instance, agent: int) -> Fraction:
    """Exact maximin share of one agent: the best achievable minimum bundle
    value over all partitions of the goods into n parts.

    Works on the row scaled to integers, where MMS_i <= floor(W/n) for the
    row total W.  For two parts it is the largest subset sum at most
    floor(W/2), found by meet in the middle (Horowitz and Sahni, 1974): the
    subset sums of one half, each completed by bisecting the sorted sums of
    the other.  For n parts it enumerates the part P holding the largest
    good, skips any P whose bound min(w(P), floor((W - w(P))/(n-1))) cannot
    beat the best value found, stops growing P once w(P) reaches the second
    term, splits the other goods into n-1 parts the same way, and stops as
    soon as floor(W/n) is reached.  Refuses instances with n^m above the
    enumeration guard.
    """
    inst._check_agent(agent)
    n, m = inst.n, inst.m
    if n**m > ENUMERATION_GUARD:
        raise InstanceTooLargeError(f"{n}^{m} labeled partitions exceed {ENUMERATION_GUARD}")
    if m == 0:
        return Fraction(0)
    scale, weights = inst.scaled[agent - 1]
    return Fraction(_maximin(sorted(weights, reverse=True), n, 0, sum(weights)), scale)


def _maximin(weights: list[int], n: int, floor: int, ceiling: int) -> int:
    """max(floor, min(MMS, ceiling)), MMS the largest minimum part sum over
    partitions of ``weights``, sorted in descending order, into n parts.

    A search that only has to beat ``floor`` and may stop at ``ceiling``
    prunes more; the top call passes 0 and the row total.
    """
    total = sum(weights)
    if len(weights) < n:
        return floor  # some part stays empty, so MMS = 0
    cap = total // n
    target = min(cap, ceiling)
    best = floor
    if n == 2:
        half = len(weights) // 2
        right = sorted(set(_subset_sums(weights[half:])))
        for a in _subset_sums(weights[:half]):
            if best >= target:
                break
            if a <= cap:  # right[0] == 0, so some b <= cap - a exists
                best = max(best, min(a + right[bisect_right(right, cap - a) - 1], ceiling))
        return best
    rest = weights[1:]
    others: list[int] = []

    def grow(k: int, part: int) -> None:
        # part: weight of the part holding weights[0] and the chosen rest[:k];
        # others: the unchosen rest[:k], still in descending order
        nonlocal best
        # the rest's bound only falls as the part grows, so it prunes the subtree
        if best >= target or (total - part) // (n - 1) <= best:
            return
        if k == len(rest) or part >= (total - part) // (n - 1):
            # the rest's bound is at most the part now, and a bigger part
            # only leaves less for the rest, so P itself is the best choice
            if part > best:
                best = _maximin(others + rest[k:], n - 1, best, min(part, ceiling))
            return
        grow(k + 1, part + rest[k])
        others.append(rest[k])
        grow(k + 1, part)
        others.pop()

    grow(0, weights[0])
    return best


def _subset_sums(weights: Sequence[int]) -> list[int]:
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


class MmsCheck(NamedTuple):
    satisfied: bool
    mms: tuple[Fraction, ...]
    witness: int | None  # a violating agent, when unsatisfied
    ratio: Fraction  # min(1, the smallest v_i(A_i) / MMS_i); agents with MMS 0 count as 1


def check_alpha_mms(inst: Instance, alloc: Allocation, alpha: Fraction) -> MmsCheck:
    """alpha-MMS: v_i(A_i) >= alpha * MMS_i for every agent."""
    held = [Fraction(h, scale) for scale, _, h, _, _ in _scaled_agents(inst, alloc, alpha)]
    mms = tuple(mms_exact(inst, agent) for agent in range(1, inst.n + 1))
    witness = next((i + 1 for i in range(inst.n) if held[i] < alpha * mms[i]), None)
    worst = min(INF if v == 0 else h / v for h, v in zip(held, mms))
    return MmsCheck(witness is None, mms, witness, min(Fraction(1), worst))
