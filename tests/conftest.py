"""Shared helpers for the test suite, the definition-level references
(``alpha_it``, ``bundle_value``, ``mms_labeled_reference``) that the fast
library paths are checked against, and the paper's formulas that only
tests use (``robust_beta``)."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from fairdiv import INF, Allocation, DomainError, Instance, instance_from_rows


def robust_beta(alpha: Fraction, epsilon: Fraction, n: int) -> Fraction:
    """PROP1 factor preserved under one-sided prediction error epsilon."""
    if not 0 <= epsilon < 1:
        raise DomainError(f"one-sided error {epsilon} must lie in [0, 1)")
    return alpha * (1 - epsilon) / (1 - alpha * epsilon / n)


def random_instance(
    rng: random.Random,
    n: int,
    m: int,
    max_denominator: int = 10,
    force_unit_max: bool = False,
) -> Instance:
    """Random instance with values in [0, 1] and small denominators.

    With ``force_unit_max`` every agent gets at least one good of value
    exactly 1 (the perfect-predictions shape).
    """
    rows = []
    for _ in range(n):
        d = rng.randint(1, max_denominator)
        row = [Fraction(rng.randint(0, d), d) for _ in range(m)]
        if force_unit_max and m > 0:
            row[rng.randrange(m)] = Fraction(1)
        rows.append(row)
    return instance_from_rows(rows)


def all_allocations(n: int, m: int):
    """Every complete allocation of m goods to n agents."""
    for owners in product(range(1, n + 1), repeat=m):
        yield Allocation(owners)


def value(inst: Instance, agent: int, good: int) -> Fraction:
    """v_agent(good), both indices 1-based."""
    return inst.values[agent - 1][good - 1]


def total_value(inst: Instance, agent: int) -> Fraction:
    """v_i(G), the agent's value for all goods."""
    return sum(inst.values[agent - 1], Fraction(0))


def bundle(alloc: Allocation, agent: int) -> tuple[int, ...]:
    """1-based indices of the goods held by ``agent``."""
    return tuple(t + 1 for t, o in enumerate(alloc.owner) if o == agent)


def bundle_value(inst: Instance, agent: int, goods) -> Fraction:
    """Exact value of a set of goods to one agent (additive valuations)."""
    return sum((value(inst, agent, g) for g in goods), Fraction(0))


def alpha_it(inst: Instance, owner, agent: int, t: int):
    """The running PROP1 value of ``agent`` once goods 1..t are allocated.

    Returns (v_i(A_i) + c_i) / v_i(G_t), where c_i is the value of the most
    valuable arrived good the agent does not hold (0 if none), and G_t the
    first t goods.  ``INF`` when the agent values all arrived goods at zero.
    """
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


def mms_labeled_reference(inst: Instance, agent: int) -> Fraction:
    """The agent's maximin share by enumerating labeled n-partitions over a
    table of all 2^m subset values, with branch-and-bound pruning."""
    n, m = inst.n, inst.m
    if m == 0:
        return Fraction(0)
    row = inst.values[agent - 1]
    full = (1 << m) - 1
    sums = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + row[low.bit_length() - 1]

    best = Fraction(-1)

    def fill(parts_left: int, mask: int, cur_min: Fraction) -> None:
        nonlocal best
        if parts_left == 1:
            best = max(best, min(cur_min, sums[mask]))
            return
        sub = mask
        while True:
            value = min(cur_min, sums[sub])
            if value > best:
                fill(parts_left - 1, mask ^ sub, value)
            if sub == 0:
                break
            sub = (sub - 1) & mask

    # relabeling parts never changes the min, so good 1 is pinned to part 1
    rest = full & ~1
    sub = rest
    while True:
        first = sub | 1
        if sums[first] > best:
            fill(n - 1, full ^ first, sums[first])
        if sub == 0:
            break
        sub = (sub - 1) & rest
    return best
