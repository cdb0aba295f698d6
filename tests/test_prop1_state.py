"""Differential tests of the running-PROP1 state and the offline checks.

Allocators, traces and the greedy-3 adversary read their running values
from ``Prop1State``; the offline checks evaluate integer-scaled rows
instead.  These tests compare each of them against definition-level code
(``alpha_it`` and brute-force PROP1, PROPX and MMS evaluations written here
in Fractions), and the offline PROP1 ratio against a ``Prop1State`` replay.
"""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    INF,
    Allocation,
    Greedy3Adversary,
    Greedy3Allocator,
    Predictions,
    Prop1State,
    RobustifiedAllocator,
    check_alpha_mms,
    check_alpha_prop1,
    check_alpha_propx,
    instance_from_rows,
    make_allocator,
    perfect_predictions,
    prop1_ratio,
    run,
    run_adaptive,
)
from fairdiv.metrics import ENUMERATION_GUARD
from conftest import alpha_it, running_values

F = Fraction

#: Repeated and zero values, so ties between outside goods and zero-valued
#: witnesses are common.
VALUES = [F(0), F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(1)]


@st.composite
def instances(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, 8))
    rows = []
    for _ in range(n):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append([F(0)] * m)  # an agent that values nothing
        else:
            rows.append(draw(st.lists(st.sampled_from(VALUES), min_size=m, max_size=m)))
    return instance_from_rows(rows)


@st.composite
def allocations(draw, inst):
    if draw(st.booleans()) and draw(st.booleans()):
        return Allocation((draw(st.integers(1, inst.n)),) * inst.m)  # one agent holds all
    return Allocation(tuple(draw(st.integers(1, inst.n)) for _ in range(inst.m)))


def brute_agent(inst, owner, agent, alpha):
    """(value, witness, satisfied) straight from the PROP1 definition."""
    row = inst.values[agent - 1]
    outside = [t for t in range(inst.m) if owner[t] != agent]
    if not outside:
        return INF, "self", True
    held = sum((row[t] for t in range(inst.m) if owner[t] == agent), F(0))
    total = sum(row, F(0))
    best = max(row[t] for t in outside)
    witness = min(t for t in outside if row[t] == best) + 1  # earliest best good
    value = INF if total == 0 else (held + best) / total
    return value, witness, (held + best) * inst.n >= alpha * total


def brute_propx(inst, owner, alpha):
    """(satisfied, (agent, good) of the first violation) from the PROPX definition."""
    for agent in range(1, inst.n + 1):
        row = inst.values[agent - 1]
        outside = [t for t in range(inst.m) if owner[t] != agent]
        if not outside:
            continue
        held = sum((row[t] for t in range(inst.m) if owner[t] == agent), F(0))
        least = min(row[t] for t in outside)
        if (held + least) * inst.n < alpha * sum(row, F(0)):
            return False, (agent, min(t for t in outside if row[t] == least) + 1)
    return True, None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_checks_match_brute_force(data):
    inst = data.draw(instances())
    alloc = data.draw(allocations(inst))
    alpha = data.draw(st.sampled_from([F(0), F(1, 4), F(1, 2), F(1)]))
    report = check_alpha_prop1(inst, alloc, alpha)
    brute = [brute_agent(inst, alloc.owner, agent, alpha) for agent in range(1, inst.n + 1)]
    assert [(a.value, a.witness, a.satisfied) for a in report.agents] == brute
    assert report.satisfied == all(ok for _, _, ok in brute)
    worst = min(value for value, _, _ in brute)
    ratio = prop1_ratio(inst, alloc)
    assert ratio == (F(1) if worst == INF else min(F(1), inst.n * worst))

    state = Prop1State(inst.n)
    for (col, _), owner in zip(inst.runs(), alloc.owner):
        state.arrive(col)
        state.assign(owner)
    assert ratio == state.ratio()

    propx = check_alpha_propx(inst, alloc, alpha)
    witness = None if propx.witness is None else (propx.witness.agent, propx.witness.good)
    assert (propx.satisfied, witness) == brute_propx(inst, alloc.owner, alpha)

    if inst.n**inst.m <= ENUMERATION_GUARD:
        mms = check_alpha_mms(inst, alloc, alpha)
        held = [
            sum((v for v, o in zip(row, alloc.owner) if o == agent), F(0))
            for agent, row in enumerate(inst.values, 1)
        ]
        assert mms.satisfied == all(h >= alpha * s for h, s in zip(held, mms.mms))
        assert mms.witness == next(
            (i for i, (h, s) in enumerate(zip(held, mms.mms), 1) if h < alpha * s), None
        )


def _allocator(rule, inst, seed, epsilon):
    if rule == "miv-eps":
        pred = Predictions(perfect_predictions(inst.n).p, epsilon)
        return RobustifiedAllocator(inst.n, pred)
    return make_allocator(rule, inst.n, seed)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trace_alpha_matches_alpha_it(data):
    inst = data.draw(instances())
    rule = data.draw(st.sampled_from(["greedy1", "greedy2", "greedy3", "rand", "miv", "miv-eps"]))
    epsilon = data.draw(st.sampled_from([F(1, 10), F(1, 4), F(1, 2)]))
    if rule == "miv-eps" and inst.m:
        # a good at the threshold (1 - epsilon) p_i: the agent's first max
        rows = [list(row) for row in inst.values]
        agent, good = data.draw(st.integers(0, inst.n - 1)), data.draw(st.integers(0, inst.m - 1))
        rows[agent][good] = 1 - epsilon
        inst = instance_from_rows(rows)
    allocator = _allocator(rule, inst, data.draw(st.integers(0, 2**32)), epsilon)
    trace = run(allocator, inst)
    if rule == "miv-eps" and inst.m:
        assert allocator.seen_max[agent]
    for agent in range(1, inst.n + 1):
        assert list(running_values(trace)[agent - 1]) == [
            alpha_it(inst, trace.owners, agent, t) for t in range(1, inst.m + 1)
        ]


@pytest.mark.parametrize(
    "target, steps, cycles, owners_sha256",
    [
        (F(1, 3), 1896, 206, "54f658be38181efd3daad87c8db91d79ca703259834960e997fe831101ec46c3"),
        (F(2, 7), 5209, 469, "fb228e71bac155cb2a69993e019f8a42a8061ebae0715b4701b3f112bc979a0b"),
        (F(1, 4), 13851, 1061, "f95fc8571391f9d3495e99c1f7512e2b97d3dd99efdc6598ed4e2113a5f4292f"),
    ],
)
def test_greedy3_adversary_schedule_is_pinned(target, steps, cycles, owners_sha256):
    adversary = Greedy3Adversary(target, 10**6)
    result = run_adaptive(adversary, Greedy3Allocator(2))
    assert result.target_reached
    assert (result.trace.instance.m, adversary.cycles) == (steps, cycles)
    assert hashlib.sha256(bytes(result.trace.owners)).hexdigest() == owners_sha256
