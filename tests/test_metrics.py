import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    Allocation,
    DomainError,
    INF,
    InstanceTooLargeError,
    check_alpha_ef1,
    check_alpha_mms,
    check_alpha_propx,
    check_alpha_prop1,
    instance_from_rows,
    mms_exact,
    prop1_ratio,
    run,
    run_construction,
)
from fairdiv import metrics
from fairdiv.metrics import _maximin
from conftest import (
    all_allocations,
    alpha_it,
    bundle,
    bundle_value,
    mms_labeled_reference,
    random_instance,
    total_value,
    value,
)

F = Fraction


class TestAlphaIt:
    def test_opening_step_witness(self):
        # both agents value the single arrived good at 1; agent 1 holds it
        inst = instance_from_rows([[F(1)], [F(1)]])
        assert alpha_it(inst, [1], 2, 1) == F(1)

    def test_all_zero_valuation_is_infinite(self):
        inst = instance_from_rows([[F(1), F(1)], [F(0), F(0)]])
        assert alpha_it(inst, [1, 1], 2, 2) == INF

    def test_direct_evaluation_on_a_prefix(self):
        inst = instance_from_rows(
            [[F(1), F(1), F(1), F(1)], [F(1), F(1, 2), F(1, 2), F(1, 2)]]
        )
        # agent 2 owns nothing after four goods: (0 + 1) / (5/2)
        assert alpha_it(inst, [1, 1, 1, 1], 2, 4) == F(2, 5)

    def test_final_step_matches_prop1_terms(self):
        rng = random.Random(2024)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(2, 3), rng.randint(1, 6))
            owners = [rng.randint(1, inst.n) for _ in range(inst.m)]
            alloc = Allocation(tuple(owners))
            report = check_alpha_prop1(inst, alloc, F(1))
            for agent_report in report.agents:
                value = alpha_it(inst, owners, agent_report.agent, inst.m)
                if agent_report.witness == "self":
                    continue  # the ratio treats a full bundle as vacuous
                assert value == agent_report.value


class TestProp1Ratio:
    def test_one_large_witness_good_suffices(self):
        inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
        assert prop1_ratio(inst, Allocation((1, 1))) == 1

    def test_starved_agent_from_the_greedy1_instance(self):
        rows = [[F(1)] * 40, [F(1)] + [F(1, 2)] * 39]
        inst = instance_from_rows(rows)
        alloc = Allocation(tuple([1] * 40))
        # agent 2: (0 + 1) / (41/2), ratio = 2 * 2/41
        assert prop1_ratio(inst, alloc) == F(4, 41)

    def test_single_good(self):
        inst = instance_from_rows([[F(1)], [F(1)]])
        assert prop1_ratio(inst, Allocation((1,))) == 1

    def test_empty_instance_is_vacuously_fair(self):
        inst = instance_from_rows([[], []])
        assert prop1_ratio(inst, Allocation(())) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ratio_in_unit_interval_and_consistency(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        inst = random_instance(rng, rng.randint(2, 3), rng.randint(0, 5))
        owners = tuple(rng.randint(1, inst.n) for _ in range(inst.m))
        alloc = Allocation(owners)
        ratio = prop1_ratio(inst, alloc)
        assert 0 <= ratio <= 1
        exact = check_alpha_prop1(inst, alloc, F(1)).satisfied
        assert exact == (ratio == 1)


@pytest.mark.parametrize(
    "check", [check_alpha_prop1, check_alpha_ef1, check_alpha_propx, check_alpha_mms]
)
def test_each_check_validates_the_allocation_then_alpha(check):
    inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
    with pytest.raises(DomainError, match=r"^owner 3 out of range 1\.\.2$"):
        check(inst, Allocation((1, 3)), F(2))
    with pytest.raises(DomainError, match=r"^alpha 2 outside \[0, 1\]$"):
        check(inst, Allocation((1, 2)), F(2))


class TestAlphaProp1:
    def test_alpha_zero_is_vacuous(self):
        rng = random.Random(7)
        for _ in range(10):
            inst = random_instance(rng, 2, rng.randint(1, 5))
            owners = tuple(rng.randint(1, 2) for _ in range(inst.m))
            assert check_alpha_prop1(inst, Allocation(owners), F(0)).satisfied

    def test_greedy1_adversarial_run_fails_its_target(self):
        trace = run_construction("greedy1", 2, F(1, 10)).trace
        assert not check_alpha_prop1(trace.instance, trace.allocation, F(1, 10)).satisfied

    def test_witnesses_reverify(self):
        rng = random.Random(99)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(2, 3), rng.randint(1, 5))
            owners = tuple(rng.randint(1, inst.n) for _ in range(inst.m))
            alloc = Allocation(owners)
            alpha = F(rng.randint(0, 4), 4)
            report = check_alpha_prop1(inst, alloc, alpha)
            for agent in report.agents:
                if agent.witness == "self":
                    assert bundle(alloc, agent.agent) == tuple(range(1, inst.m + 1))
                    continue
                held = bundle_value(inst, agent.agent, bundle(alloc, agent.agent))
                total = total_value(inst, agent.agent)
                with_witness = held + value(inst, agent.agent, agent.witness)
                assert agent.satisfied == (with_witness * inst.n >= alpha * total)
                # the witness is the best possible one
                for g in range(1, inst.m + 1):
                    if alloc.owner[g - 1] != agent.agent:
                        best = value(inst, agent.agent, agent.witness)
                        assert value(inst, agent.agent, g) <= best


class TestEf1:
    def test_symmetric_split(self):
        inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
        assert check_alpha_ef1(inst, Allocation((1, 2)), F(1)).satisfied

    def test_empty_handed_envy(self):
        inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
        report = check_alpha_ef1(inst, Allocation((1, 1)), F(1))
        assert not report.satisfied
        assert (report.witness.envier, report.witness.envied) == (2, 1)

    def test_single_good_bundle_fails_alpha_ef1_against_a_pile(self):
        # one agent keeps one good while the other's pile stays large even
        # after removing its best element
        m = 8
        inst = instance_from_rows([[F(1)] * m, [F(1)] * m])
        alloc = Allocation((1,) + (2,) * (m - 1))
        assert not check_alpha_ef1(inst, alloc, F(1, 2)).satisfied
        # v_1(A_1) = 1 >= alpha * (m - 2) fails for alpha = 1/2, m = 8

    def test_witness_pair_reverifies(self):
        rng = random.Random(5)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(2, 3), rng.randint(1, 5))
            owners = tuple(rng.randint(1, inst.n) for _ in range(inst.m))
            alloc = Allocation(owners)
            report = check_alpha_ef1(inst, alloc, F(1))
            if report.witness is None:
                continue
            i, j = report.witness.envier, report.witness.envied
            mine = bundle_value(inst, i, bundle(alloc, i))
            theirs = [value(inst, i, g) for g in bundle(alloc, j)]
            assert mine < sum(theirs) - max(theirs)


def _ef1_by_definition(inst, alloc, alpha):
    """The first (envier, envied) pair, in agent order, that breaks alpha-EF1."""
    for i in range(1, inst.n + 1):
        mine = bundle_value(inst, i, bundle(alloc, i))
        for j in range(1, inst.n + 1):
            theirs = [value(inst, i, g) for g in bundle(alloc, j)]
            if i != j and theirs and mine < alpha * (sum(theirs) - max(theirs)):
                return (i, j)
    return None


@st.composite
def _ef1_cases(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, 8))
    cell = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(7, 5)])
    rows = [draw(st.lists(cell, min_size=m, max_size=m)) for _ in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [F(0)] * m
    # agents above ``holders`` end with an empty bundle
    holders = draw(st.integers(1, n))
    owners = tuple(draw(st.lists(st.integers(1, holders), min_size=m, max_size=m)))
    alpha = draw(st.sampled_from([F(0), F(1, 2), F(1)]))
    return instance_from_rows(rows), Allocation(owners), alpha


class TestEf1Differential:
    @settings(max_examples=300, deadline=None)
    @given(_ef1_cases())
    def test_matches_the_definition(self, case):
        inst, alloc, alpha = case
        report = check_alpha_ef1(inst, alloc, alpha)
        pair = _ef1_by_definition(inst, alloc, alpha)
        assert report.satisfied == (pair is None)
        witness = report.witness
        assert (None if witness is None else (witness.envier, witness.envied)) == pair


class TestPropx:
    def test_equal_split_passes(self):
        inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
        assert check_alpha_propx(inst, Allocation((1, 2)), F(1)).satisfied

    def test_minimum_witness_decides(self):
        # forty unit goods, agent 1 keeps only the first: 2 >= alpha * 20
        # holds only up to alpha = 1/10
        rows = [[F(1)] * 40, [F(1)] * 40]
        inst = instance_from_rows(rows)
        alloc = Allocation((1,) + (2,) * 39)
        assert check_alpha_propx(inst, alloc, F(1, 10)).satisfied
        assert not check_alpha_propx(inst, alloc, F(1, 8)).satisfied

    def test_propx_implies_prop1(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = random_instance(rng, 2, rng.randint(1, 5))
            for alloc in all_allocations(2, inst.m):
                if check_alpha_propx(inst, alloc, F(1)).satisfied:
                    assert check_alpha_prop1(inst, alloc, F(1)).satisfied

    def test_violation_witness_reverifies(self):
        inst = instance_from_rows([[F(3), F(1), F(0)], [F(1), F(3), F(0)]])
        alloc = Allocation((2, 1, 2))
        report = check_alpha_propx(inst, alloc, F(1))
        assert not report.satisfied
        agent, good = report.witness.agent, report.witness.good
        held = bundle_value(inst, agent, bundle(alloc, agent))
        total = total_value(inst, agent)
        assert (held + value(inst, agent, good)) * inst.n < total


@st.composite
def mms_instances(draw):
    """n 2-4 agents and m 0-10 goods; each row all zero, all equal, random,
    or random with one good worth more than the rest together, with
    denominators at most 3 or at most 200."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(0, 10))
    rows = []
    for _ in range(n):
        den = draw(st.sampled_from((3, 200)))
        value = st.builds(F, st.integers(0, den), st.integers(1, den))
        shape = draw(st.sampled_from(("zero", "equal", "random", "dominant")))
        if shape == "zero":
            row = [F(0)] * m
        elif shape == "equal":
            row = [draw(value)] * m
        else:
            row = draw(st.lists(value, min_size=m, max_size=m))
            if shape == "dominant" and m:
                row[draw(st.integers(0, m - 1))] = F(den * m)
        rows.append(row)
    return instance_from_rows(rows)


class TestScaled:
    """``Instance.scaled``, the integer form the offline checks read."""

    @settings(max_examples=150, deadline=None)
    @given(mms_instances())
    def test_matches_the_definition(self, inst):
        assert len(inst.scaled) == inst.n
        for row, (scale, weights) in zip(inst.values, inst.scaled):
            assert scale == math.lcm(*(v.denominator for v in row))
            assert isinstance(weights, tuple) and len(weights) == inst.m
            assert all(type(w) is int and F(w, scale) == v for w, v in zip(weights, row))

    def test_a_full_report_scales_each_row_once(self, monkeypatch):
        calls, lcm = [], math.lcm

        def counting_lcm(*args):
            calls.append(args)
            return lcm(*args)

        monkeypatch.setattr(math, "lcm", counting_lcm)
        inst = instance_from_rows([[F(1, 2), F(1, 3), F(1)], [F(2, 7), F(0), F(5, 9)]])
        alloc = Allocation((1, 2, 1))

        def full_report():
            # every check ``fairdiv metrics --check prop1,ef1,propx,mms`` runs
            return (
                check_alpha_prop1(inst, alloc, F(1)),
                prop1_ratio(inst, alloc),
                check_alpha_ef1(inst, alloc, F(1)),
                check_alpha_propx(inst, alloc, F(1)),
                check_alpha_mms(inst, alloc, F(1)),
            )

        report = full_report()
        assert len(calls) == inst.n
        assert full_report() == report
        assert len(calls) == inst.n


class TestOwnershipPass:
    """The per-agent pass behind every check runs once per (instance, allocation) pair."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        check = metrics.check_allocation

        def counting(inst, alloc):
            calls.append((inst, alloc))
            return check(inst, alloc)

        monkeypatch.setattr(metrics, "check_allocation", counting)
        return calls

    def test_each_pair_gets_its_own_pass(self, passes):
        inst = instance_from_rows([[F(1, 2), F(1, 3), F(1)], [F(2, 7), F(0), F(5, 9)]])
        first, second = Allocation((1, 2, 1)), Allocation((2, 2, 1))

        def report(inst, alloc):
            return (check_alpha_prop1(inst, alloc, F(1)), prop1_ratio(inst, alloc),
                    check_alpha_ef1(inst, alloc, F(1)), check_alpha_propx(inst, alloc, F(1)))

        reports = [report(inst, first), report(inst, second)]
        assert passes == [(inst, first), (inst, second)]
        for alloc, (_, ratio, _, _) in zip((first, second), reports):
            worst = min(alpha_it(inst, alloc.owner, i, inst.m) for i in (1, 2))
            assert ratio == min(F(1), 2 * worst)
        twin = instance_from_rows(inst.values)
        assert twin == inst and twin is not inst
        assert report(twin, first) == reports[0]
        assert report(inst, Allocation(second.owner)) == reports[1]
        assert [(i is twin, a is first) for i, a in passes[2:]] == [(True, True), (False, False)]

    def test_a_kept_pass_still_validates_alpha(self, passes):
        inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
        alloc = Allocation((1, 2))
        check_alpha_propx(inst, alloc, F(1))
        with pytest.raises(DomainError, match=r"^alpha 2 outside \[0, 1\]$"):
            check_alpha_ef1(inst, alloc, F(2))
        assert len(passes) == 1

    def test_a_refused_allocation_is_refused_each_time(self, passes):
        inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
        alloc = Allocation((1, 3))
        for _ in range(2):
            with pytest.raises(DomainError, match=r"^owner 3 out of range 1\.\.2$"):
                prop1_ratio(inst, alloc)
        assert len(passes) == 2


class TestMms:
    def test_two_equal_goods(self):
        inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
        assert mms_exact(inst, 1) == 1

    def test_bipartition_brute_force(self):
        inst = instance_from_rows([[F(3), F(1), F(1), F(1)], [F(1)] * 4])
        assert mms_exact(inst, 1) == 3

    def test_three_agents_unit_goods(self):
        inst = instance_from_rows([[F(1), F(1), F(1)]] * 3)
        assert mms_exact(inst, 1) == 1

    def test_all_ones_row_gives_floor_m_over_n(self):
        # up to the largest m under the enumeration guard for each n
        for n, largest in ((2, 22), (3, 13)):
            for m in range(1, largest + 1):
                inst = instance_from_rows([[F(1)] * m] * n)
                assert mms_exact(inst, 1) == m // n

    @settings(max_examples=150, deadline=None)
    @given(mms_instances())
    def test_matches_the_labeled_partition_enumeration(self, inst):
        for agent in range(1, inst.n + 1):
            assert mms_exact(inst, agent) == mms_labeled_reference(inst, agent)

    @settings(max_examples=100, deadline=None)
    @given(mms_instances(), st.data())
    def test_bounded_search_returns_the_clamped_share(self, inst, data):
        # the recursion below mms_exact hands each sub-search the best value
        # found so far as a floor and the part's weight as a ceiling
        scale, weights = inst.scaled[0]
        share = mms_labeled_reference(inst, 1) * scale
        floor, ceiling = (data.draw(st.integers(0, sum(weights))) for _ in range(2))
        got = _maximin(sorted(weights, reverse=True), inst.n, floor, ceiling)
        assert got == max(floor, min(share, ceiling))

    def test_empty_instance(self):
        inst = instance_from_rows([[], []])
        assert mms_exact(inst, 1) == 0

    def test_size_guard(self):
        inst = instance_from_rows([[F(1)] * 25] * 2)
        with pytest.raises(InstanceTooLargeError):
            mms_exact(inst, 1)

    def test_profile_bounded_by_proportional_share(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(2, 3), rng.randint(0, 6))
            for agent in range(1, inst.n + 1):
                share = mms_exact(inst, agent)
                assert 0 <= share * inst.n <= total_value(inst, agent)

    def test_alpha_mms_checks(self):
        inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
        even = Allocation((1, 2))
        assert check_alpha_mms(inst, even, F(1)).satisfied
        assert check_alpha_mms(inst, Allocation((1, 1)), F(0)).satisfied
        report = check_alpha_mms(inst, Allocation((1, 1)), F(1, 2))
        assert not report.satisfied and report.witness == 2

    def test_zero_bundle_with_positive_mms_fails_any_alpha(self):
        eps = F(1, 1000)
        inst = instance_from_rows([[F(1), F(1)], [F(1), eps]])
        alloc = Allocation((1, 1))
        assert mms_exact(inst, 2) == eps
        for alpha in (F(1, 100), F(1, 2), F(1)):
            assert not check_alpha_mms(inst, alloc, alpha).satisfied


class TestImplications:
    def test_ef1_and_propx_imply_prop1_on_enumerated_allocations(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(2, 3)
            m = rng.randint(1, 4 if n == 3 else 6)
            inst = random_instance(rng, n, m)
            for alloc in all_allocations(n, m):
                prop1_ok = check_alpha_prop1(inst, alloc, F(1)).satisfied
                if check_alpha_ef1(inst, alloc, F(1)).satisfied:
                    assert prop1_ok
                if check_alpha_propx(inst, alloc, F(1)).satisfied:
                    assert prop1_ok


class TestZeroGoodMonotonicity:
    """Appending a worthless good must not change PROP1/EF1/MMS verdicts and
    can only preserve (never repair) a PROPX violation: the new good becomes
    the minimum witness, so a previously satisfied agent may now fail."""

    def test_verdicts_stable_under_zero_padding(self):
        rng = random.Random(31)
        for _ in range(20):
            inst = random_instance(rng, 2, rng.randint(1, 5))
            owners = tuple(rng.randint(1, 2) for _ in range(inst.m))
            padded = instance_from_rows([list(r) + [F(0)] for r in inst.values])
            for extra_owner in (1, 2):
                alloc = Allocation(owners)
                palloc = Allocation(owners + (extra_owner,))
                assert prop1_ratio(inst, alloc) == prop1_ratio(padded, palloc)
                assert (
                    check_alpha_prop1(inst, alloc, F(1)).satisfied
                    == check_alpha_prop1(padded, palloc, F(1)).satisfied
                )
                assert (
                    check_alpha_ef1(inst, alloc, F(1)).satisfied
                    == check_alpha_ef1(padded, palloc, F(1)).satisfied
                )
                assert (
                    check_alpha_mms(inst, alloc, F(1, 2)).satisfied
                    == check_alpha_mms(padded, palloc, F(1, 2)).satisfied
                )
                if not check_alpha_propx(inst, alloc, F(1)).satisfied:
                    assert not check_alpha_propx(padded, palloc, F(1)).satisfied

    def test_propx_can_break_on_zero_padding(self):
        inst = instance_from_rows([[F(3), F(1)], [F(1), F(3)]])
        alloc = Allocation((2, 1))
        assert check_alpha_propx(inst, alloc, F(1)).satisfied
        padded = instance_from_rows([[F(3), F(1), F(0)], [F(1), F(3), F(0)]])
        assert not check_alpha_propx(padded, Allocation((2, 1, 2)), F(1)).satisfied
