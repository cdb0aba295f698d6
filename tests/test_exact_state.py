"""Differential tests of the integer-weight online state against the
Fraction reference rules in ``conftest.REF_ALLOCATORS``, of runs of equal
goods placed in one call against their copies placed one by one (and the
greedy3 construction in runs against the reference rule stepped good by
good), and of the literal parser's digit fast path against ``Fraction``'s
own parser.

Every rule, over instances with small, wide and wider denominators,
all-zero rows and value-1 goods, must give the reference's owners, running
values, summed potentials, first-max flags and error messages, good by good.
"""

import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    FairdivError,
    Greedy3Adversary,
    Greedy3Allocator,
    InvariantError,
    ParseError,
    Predictions,
    RobustifiedAllocator,
    instance_from_rows,
    make_allocator,
    parse_rational,
    run,
)
from fairdiv.algorithms import TraceRecorder
from fairdiv.cli import _trace_payload, main
from fairdiv.core import WRITE_DIGITS, _dumps, format_rational, instance_to_json
from conftest import REF_ALLOCATORS, RefProp1State, RefRobustified, running_values

F = Fraction


@st.composite
def values(draw, top):
    """A value in [0, top]: 0, top itself, or a fraction of it with a small
    (at most 12), wide (at most 200) or wider (at most 10^6) denominator."""
    kind = draw(st.sampled_from(["zero", "top", "small", "wide", "wider"]))
    if kind == "zero":
        return F(0)
    if kind == "top":
        return top
    q = draw(st.integers(1, {"small": 12, "wide": 200, "wider": 10**6}[kind]))
    return top * F(draw(st.integers(0, q)), q)


@st.composite
def cases(draw):
    """(rule, instance, predictions or None, a bad column or None, its place)."""
    rule = draw(st.sampled_from(["greedy1", "greedy2", "greedy3", "rand", "miv", "miv-eps"]))
    n = draw(st.integers(2, 5))
    m = draw(st.integers(0, 30))
    p = [F(1)] * n
    if rule == "miv-eps":
        scales = st.sampled_from([F(1), F(2), F(3, 7), F(5, 199)])
        p = draw(st.lists(scales, min_size=n, max_size=n))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(["any", "any", "unit", "zero"]))
        row = [F(0)] * m if kind == "zero" else [draw(values(p[i])) for _ in range(m)]
        if kind == "unit" and m:
            row[draw(st.integers(0, m - 1))] = p[i]
        rows.append(row)
    pred = None
    if rule == "miv-eps":
        pred = Predictions(tuple(p), draw(st.sampled_from([F(0), F(1, 10), F(1, 4), F(1, 2)])))
    bad = None
    if draw(st.booleans()):
        bad = draw(st.sampled_from([
            [F(1)] * (n + 1),  # too long
            [F(-1, 3)] + [F(0)] * (n - 1),
            [F(0)] * (n - 1) + [F(7, 5) * p[-1]],  # above the unit or the prediction
            ["1/2"] * n,  # a literal: no exact cell, refused as instance_from_rows refuses it
        ]))
    return rule, instance_from_rows(rows), pred, bad, draw(st.integers(0, m))


def _pair(rule, n, pred, seed):
    if rule == "miv-eps":
        return (RobustifiedAllocator(n, pred),
                RefRobustified(REF_ALLOCATORS["miv"](n), pred))
    ref = REF_ALLOCATORS[rule](n, seed) if rule == "rand" else REF_ALLOCATORS[rule](n)
    return make_allocator(rule, n, seed), ref


def _outcome(allocator, column):
    try:
        return allocator.observe(column)
    except (FairdivError, InvariantError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(cases(), st.integers(0, 2**32))
def test_every_rule_matches_the_fraction_reference(case, seed):
    rule, inst, pred, bad, at = case
    fast, ref = _pair(rule, inst.n, pred, seed)
    columns = [list(col) for col in zip(*inst.values)]
    if bad is not None:
        columns.insert(at, bad)
    for column in columns:
        outcome = _outcome(fast, column)
        assert outcome == _outcome(ref, column)
        if not isinstance(outcome, int):
            return
        assert [fast.state.value(i) for i in range(inst.n)] == [
            ref.state.value(i) for i in range(inst.n)
        ]
        assert fast.potential_log == ref.potential_log
    if rule == "miv-eps":
        overridden = {agent for agent, _, _ in ref.override_log}
        assert fast.seen_max == [i + 1 in overridden for i in range(inst.n)]
        assert fast.phi == ref.inner.phi
    if rule == "miv":
        assert fast.phi == ref.phi and fast.potential == ref.potential

    # the whole run, and the strings the CLI writes for it
    fast, ref = _pair(rule, inst.n, pred, seed)
    owners = []
    for column in zip(*inst.values):
        owners.append(_outcome(ref, column))
        if not isinstance(owners[-1], int):  # an invariant breach ends the run
            with pytest.raises(InvariantError, match=re.escape(owners[-1][1])):
                run(fast, inst)
            return
    trace = run(fast, inst)
    state, alpha = RefProp1State(inst.n), [[] for _ in range(inst.n)]  # on the raw columns
    for column, owner in zip(zip(*inst.values), owners):
        state.arrive(column)
        state.assign(column, owner)
        for i, row in enumerate(alpha):
            row.append(state.value(i))
    assert list(trace.owners) == owners
    assert [list(row) for row in running_values(trace)] == alpha
    payload = _trace_payload(trace)
    assert payload["alpha"] == [[format_rational(v) for v in row] for row in alpha]
    if ref.potential_log is None:
        assert "phi_total" not in payload
    else:
        assert json.loads(_dumps(payload))["phi_total"] == [format_rational(v) for v in ref.potential_log]
    worst = min(state.value(i) for i in range(inst.n))
    assert fast.state.ratio() == min(F(1), inst.n * worst)


@pytest.mark.parametrize("target, cycles", [(F(1, 3), 206), (F(1, 4), 1061)])
def test_greedy3_adversary_matches_the_reference_step_by_step(target, cycles):
    adversary = Greedy3Adversary(target, 10**6)
    fast, ref = Greedy3Allocator(2), REF_ALLOCATORS["greedy3"](2)
    owners = []
    while (column := adversary.next_column(owners)) is not None:
        # a run starts: the mirror has taken every good placed so far, as the reference has
        assert [adversary._mirror.value(i) for i in (0, 1)] == [ref.state.value(i) for i in (0, 1)]
        for _ in range(adversary.copies):
            owner = fast.observe(column)
            assert ref.observe(column) == owner
            assert [fast.state.value(i) for i in (0, 1)] == [ref.state.value(i) for i in (0, 1)]
            owners.append(owner)
    assert adversary.target_reached and adversary.cycles == cycles


# ---------------------------------------------------------------------------
# Runs of equal goods placed in one call, against their copies one by one
# ---------------------------------------------------------------------------


@st.composite
def run_cases(draw):
    """(rule, n, predictions or None, runs of (column, copies), a tamper or None).

    The tamper, applied to both sides before one run, sets one of an agent's
    weights (or MIV's N) to a drawn multiple of its scale."""
    rule = draw(st.sampled_from(["greedy1", "greedy2", "greedy3", "rand", "miv", "miv-eps"]))
    n = draw(st.integers(2, 4))
    p = [F(1)] * n
    pred = None
    if rule == "miv-eps":
        p = draw(st.lists(st.sampled_from([F(1), F(2), F(3, 7)]), min_size=n, max_size=n))
        pred = Predictions(tuple(p), draw(st.sampled_from([F(0), F(1, 4), F(1, 2)])))
    column = st.builds(list, st.tuples(*(values(top) for top in p)))
    runs = draw(st.lists(st.tuples(column, st.integers(1, 12)), min_size=1, max_size=8))
    tamper = None
    if draw(st.booleans()):
        row = "N" if rule.startswith("miv") else draw(st.sampled_from(["total_w", "held_w", "best_w"]))
        tamper = (draw(st.integers(0, len(runs) - 1)), row, draw(st.integers(0, n - 1)),
                  draw(st.integers(0, 40)))
    return rule, n, pred, runs, tamper


def _snapshot(allocator):
    """Everything a run leaves in a rule: its state, its log and MIV's flags."""
    a = allocator
    return a.state.t, a.state.scale, a.state.rows, a.potential_log, getattr(a, "seen_max", None)


def _tamper(allocator, row, agent, multiple):
    weights = allocator.N if row == "N" else getattr(allocator.state, row)
    weights[agent] = multiple * allocator.state.scale[agent]


@settings(max_examples=300, deadline=None)
@given(run_cases(), st.integers(0, 2**32))
def test_a_run_placed_at_once_matches_its_copies_one_by_one(case, seed):
    rule, n, pred, runs, tamper = case
    batch, single = _pair(rule, n, pred, seed)[0], _pair(rule, n, pred, seed)[0]
    recorders = [TraceRecorder(batch.state), TraceRecorder(single.state)]
    for r, (column, copies) in enumerate(runs):
        if tamper is not None and tamper[0] == r:
            for allocator in (batch, single):
                _tamper(allocator, *tamper[1:])
        outcomes = []
        try:
            recorders[0].place(batch, column, copies)
            outcomes.append(None)
        except (FairdivError, InvariantError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
        try:
            for _ in range(copies):
                recorders[1].record(single.observe(column))
            outcomes.append(None)
        except (FairdivError, InvariantError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1]
        assert recorders[0].owners == recorders[1].owners
        assert _snapshot(batch) == _snapshot(single)
        first, second = recorders
        assert (first.alpha_num, first.alpha_den) == (second.alpha_num, second.alpha_den)
        if outcomes[0] is not None:
            return


def _reference_greedy3(n, alpha):
    """``fairdiv adversary --target greedy3`` output for the schedule stepped
    one good at a time against the Fraction reference rule."""
    adversary = Greedy3Adversary(alpha, 10**6, n)
    ref = REF_ALLOCATORS["greedy3"](n)
    owners, rows, alpha_rows = [], [[] for _ in range(n)], [[] for _ in range(n)]
    while (column := adversary.next_column(owners)) is not None:
        for _ in range(adversary.copies):
            for row, v in zip(rows, column):
                row.append(v)
            owners.append(ref.observe(column))
            for i, row in enumerate(alpha_rows):
                row.append(format_rational(ref.state.value(i)))
    worst = min(ref.state.value(i) for i in range(n))
    payload = {
        "target": "greedy3",
        "alpha": format_rational(alpha),
        "instance": json.loads(instance_to_json(instance_from_rows(rows))),
        "trace": {"owners": owners, "alpha": alpha_rows},
        "achieved_prop1_ratio": format_rational(min(F(1), n * worst)),
        "steps": len(owners),
        "target_reached": adversary.target_reached,
        "cycles": adversary.cycles,
        "certified_cycles_bound": adversary.predicted_cycles_bound(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "n, alpha",
    [(2, F(1, 3)), (2, F(2, 7)), (2, F(1, 4)), (2, F(1, 5)), (3, F(3, 5)), (3, F(1, 2))],
    ids=str,
)
def test_the_greedy3_construction_in_runs_matches_the_reference_good_by_good(n, alpha, tmp_path):
    out = tmp_path / "out.json"
    assert main(["adversary", "--target", "greedy3", "--n", str(n), "--alpha", str(alpha),
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == _reference_greedy3(n, alpha)


# ---------------------------------------------------------------------------
# parse_rational's digit fast path
# ---------------------------------------------------------------------------


def _refused(text, reason):
    """``parse_rational``'s error: a literal over 40 characters is quoted by
    its first 40 and its length, and its reason up to the first colon."""
    if len(text) <= 40:
        return ParseError(f"bad rational literal {text!r}: {reason}")
    shown = f"{text[:40]!r}… ({len(text)} characters)"
    return ParseError(f"bad rational literal {shown}: {reason.partition(':')[0]}")


def _reference_parse(text):
    """``parse_rational`` on a string: ``Fraction``'s literal parser alone,
    after refusing an integer of magnitude over 4,300 after the last e or E.
    ASCII digits ``p`` or ``p/q`` are read past Python's int-to-str digit
    limit; over ``WRITE_DIGITS`` digits either one is refused, and so is a
    zero q, as ``zero denominator`` where p has over 40 digits."""
    if re.fullmatch("[0-9]+(/[0-9]+)?", text):
        if max(map(len, text.split("/"))) > WRITE_DIGITS:
            raise _refused(text, f"an integer over {WRITE_DIGITS} digits")
        num, slash, den = text.partition("/")
        if slash and not den.strip("0") and len(num.lstrip("0")) > 40:
            raise _refused(text, "zero denominator")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return Fraction(text)
        except ZeroDivisionError as exc:
            raise _refused(text, str(exc)) from None
        finally:
            sys.set_int_max_str_digits(limit)
    *head, tail = re.split("[eE]", text)
    try:
        if head and abs(int(tail)) > 4300:
            raise _refused(text, "exponent magnitude over 4300")
    except ValueError:  # no integer after the marker
        pass
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _refused(text, str(exc)) from None


def _same_parse(text):
    try:
        expected = ("value", _reference_parse(text))
    except ParseError as exc:
        expected = ("error", str(exc))
    try:
        got = ("value", parse_rational(text))
    except ParseError as exc:
        got = ("error", str(exc))
    assert got == expected


LITERALS = [
    "0", "7", "007/014", "1/2", "10/4", "1/0", "0/0", "0/-1", "3/-4", "-3/4", "+3/4",
    " 1/2", "1/2 ", "1 /2", "1/ 2", "1_000", "1_000/3", "1e3", "2E-2", "1e+2", "1/1e3",
    "2.5", ".5", "1.5/2",
    "1/", "/2", "", " ", "x", "1/2/3", "0x10", "١/٢", "²", "1" * 5000,
    "1/" + "2" * 5000, "1e9999999", "1e-4301", "1e4300", "1e", "e5", "1e 99999", "1e١٠٠٠٠",
    "x" * 41, "1" * 40 + "/0", "1." + "1" * 5000, "1e9" + "9" * 40,
    "1" * 5000 + "/0", "1/" + "0" * 5000,
]


@pytest.mark.parametrize("text", LITERALS)
def test_parse_fast_path_matches_fraction_on_literals(text):
    _same_parse(text)


# exponent markers included: Fraction would take seconds to build 10**exponent
# from seven digits of exponent on, but both parsers refuse any exponent of
# magnitude over 4,300 first
@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789/ -+._١eE", max_size=12))
def test_parse_fast_path_matches_fraction_on_any_text(text):
    _same_parse(text)
