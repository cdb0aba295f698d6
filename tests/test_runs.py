"""Instances kept as runs of equal goods against the same goods one by one.

``instance_from_rows(rows, copies)`` keeps one column per run; every reader
expands the runs, or steps over them, where it needs goods.  Each test
builds the same goods both ways and compares every reading: equality and
hash, the per-good forms, the JSON text, the offline checks with their
witnesses, and a rule's full record.  Owners are drawn per good, so a run
may be split between agents, as rand and MIV split the runs they place one
good at a time.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    Allocation,
    DomainError,
    check_alpha_ef1,
    check_alpha_prop1,
    check_alpha_propx,
    instance_from_rows,
    make_allocator,
    prop1_ratio,
    run,
)
from fairdiv.core import instance_to_json
from fairdiv.metrics import _scaled_agents

from conftest import ownership_reference, running_values, trace_fields

F = Fraction
VALUES = st.sampled_from([F(0), F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(1, 6)])


@st.composite
def runs(draw, max_runs=8):
    """(n, per-agent cells one per run, copies per run); adjacent runs may be equal."""
    n = draw(st.integers(2, 3))
    count = draw(st.integers(0, max_runs))
    rows = [[draw(VALUES) for _ in range(count)] for _ in range(n)]
    copies = [draw(st.integers(1, 5)) for _ in range(count)]
    return n, rows, copies


def expanded(rows, copies):
    return [[v for v, k in zip(row, copies) for _ in range(k)] for row in rows]


@settings(max_examples=300, deadline=None)
@given(runs())
def test_an_instance_of_runs_reads_as_its_goods(case):
    n, rows, copies = case
    kept, flat = instance_from_rows(rows, copies), instance_from_rows(expanded(rows, copies))
    assert kept == flat and flat == kept and hash(kept) == hash(flat)
    assert (kept.n, kept.m) == (flat.n, flat.m) == (n, sum(copies))
    assert kept.values == flat.values
    assert kept.scaled == flat.scaled
    assert instance_to_json(kept) == instance_to_json(flat)
    assert [(column, k) for column, k in kept.runs()] == [
        (tuple((v.numerator, v.denominator) for v in column), k) for column, k in zip(zip(*rows), copies)
    ]


@settings(max_examples=300, deadline=None)
@given(runs(), st.data())
def test_the_checks_step_over_runs_as_over_goods(case, data):
    n, rows, copies = case
    kept, flat = instance_from_rows(rows, copies), instance_from_rows(expanded(rows, copies))
    owner = tuple(data.draw(st.lists(st.integers(1, n), min_size=kept.m, max_size=kept.m)))
    alpha = data.draw(st.sampled_from([F(1), F(1, 2), F(1, 3)]))
    for check in (prop1_ratio,):
        assert check(kept, Allocation(owner)) == check(flat, Allocation(owner))
    for check in (check_alpha_prop1, check_alpha_ef1, check_alpha_propx):
        assert check(kept, Allocation(owner), alpha) == check(flat, Allocation(owner), alpha)


@settings(max_examples=200, deadline=None)
@given(runs(), st.sampled_from(["greedy1", "greedy2", "greedy3", "rand", "miv"]), st.integers(0, 2**32))
def test_a_rule_records_runs_as_their_goods(case, rule, seed):
    n, rows, copies = case
    kept, flat = instance_from_rows(rows, copies), instance_from_rows(expanded(rows, copies))
    first, second = run(make_allocator(rule, n, seed), kept), run(make_allocator(rule, n, seed), flat)
    assert trace_fields(first) == trace_fields(second)
    assert running_values(first) == running_values(second)
    assert prop1_ratio(kept, first.allocation) == prop1_ratio(flat, second.allocation)


@st.composite
def run_owners(draw, n, copies):
    """Owners per good: each run whole to one agent, or, as MIV and rand place
    a run good by good, changing inside it; or every good to one agent."""
    if draw(st.integers(0, 5)) == 0:
        return (draw(st.integers(1, n)),) * sum(copies)
    owner = []
    for k in copies:
        if draw(st.booleans()):
            owner += [draw(st.integers(1, n))] * k
        else:
            owner += draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
    return tuple(owner)


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 5), st.data())
def test_the_ownership_pass_over_runs_matches_the_definition(n, data):
    count = data.draw(st.integers(0, 8))
    rows = [[data.draw(VALUES) for _ in range(count)] for _ in range(n)]
    copies = [data.draw(st.integers(1, 6)) for _ in range(count)]
    inst = instance_from_rows(rows, copies)
    owner = data.draw(run_owners(n, copies))
    assert inst.scaled == tuple((scale, tuple(expanded([row], copies)[0])) for scale, row in inst.scaled_runs)
    for agent, (scale, total, held, best, witness) in enumerate(_scaled_agents(inst, Allocation(owner)), 1):
        assert (F(total, scale), F(held, scale), F(best, scale), witness) == ownership_reference(inst, owner, agent)


@pytest.mark.parametrize("owner, witnesses", [
    ((1, 1, 1, 2, 2, 2, 2), [(2, 3), (1, 2)]),  # agent 1's best outside goods tie from inside a split run
    ((1, 1, 2, 2, 2, 2, 2), [(2, 2), (0, 0)]),  # agent 2's first outside good is the witness at weight 0
    ((2, 2, 2, 2, 2, 2, 2), [(2, 2), (0, None)]),  # agent 2 holds every good
])
def test_the_ownership_pass_takes_the_earliest_outside_good(owner, witnesses):
    inst = instance_from_rows([[F(1, 2), F(1), F(1)], [F(0), F(1), F(1)]], [2, 3, 2])
    agents = _scaled_agents(inst, Allocation(owner))
    assert [a[3:] for a in agents] == witnesses
    assert [ownership_reference(inst, owner, i)[3] for i in (1, 2)] == [w for _, w in witnesses]


def test_a_split_run_names_its_first_outside_good():
    # one run of four goods: agent 1 holds the 1st and 3rd, agent 2 the others
    kept = instance_from_rows([[F(1, 2)], [F(1)]], [4])
    owner = Allocation((1, 2, 1, 2))
    agents = check_alpha_prop1(kept, owner, F(1)).agents
    assert [(a.witness, a.value) for a in agents] == [(2, F(3, 4)), (1, F(3, 4))]
    assert check_alpha_propx(kept, Allocation((1, 1, 2, 1)), F(1)) == check_alpha_propx(
        instance_from_rows([[F(1, 2)] * 4, [F(1)] * 4]), Allocation((1, 1, 2, 1)), F(1))


@pytest.mark.parametrize("copies", [[0], [-1], [1.0], [True], ["2"], [0, 2], [2, -1]], ids=repr)
def test_a_run_needs_a_positive_int_count(copies):
    # ``Instance`` refuses the counts itself; (0, 2) adds up to as many goods as runs
    rows = [[F(1)] * len(copies), [F(1, 2)] * len(copies)]
    with pytest.raises(DomainError, match="positive int count"):
        instance_from_rows(rows, copies)
