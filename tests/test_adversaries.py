import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from fairdiv import (
    CONSTRUCTIONS,
    DomainError,
    Greedy1Allocator,
    Greedy2Allocator,
    Greedy3Allocator,
    Greedy3Adversary,
    InvariantError,
    MivAllocator,
    MivImpossibilityAdversary,
    check_alpha_ef1,
    check_alpha_mms,
    check_alpha_propx,
    check_alpha_prop1,
    greedy1_adversary,
    greedy2_adversary,
    impossibility_constants,
    instance_from_rows,
    make_allocator,
    prop1_ratio,
    run,
    run_adaptive,
    run_construction,
    verify_greedy1_failure,
    verify_greedy2_failure,
)
from fairdiv import adversaries
from fairdiv.adversaries import check_construction
from fairdiv.algorithms import TraceRecorder
from conftest import RefGreedy3Adversary, running_values, trace_fields

F = Fraction


class TestGreedy1Adversary:
    def test_horizon_formula(self):
        assert greedy1_adversary(2, F(1, 10)).m == 40
        assert greedy1_adversary(3, F(1, 2)).m == 12

    def test_run_starves_agent_two(self):
        inst = greedy1_adversary(2, F(1, 10))
        trace = run(Greedy1Allocator(2), inst)
        assert all(owner == 1 for owner in trace.owners)
        # agent 2's term: 1 / (1 + (m-1)/2) = 2/41, ratio 4/41 < 1/10
        assert running_values(trace)[1][-1] == F(2, 41)
        assert prop1_ratio(inst, trace.allocation) == F(4, 41)
        verify_greedy1_failure(trace, F(1, 10))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("alpha", [F(1, 2), F(1, 4), F(1, 10)])
    def test_failure_certificate_across_targets(self, n, alpha):
        inst = greedy1_adversary(n, alpha)
        trace = run(Greedy1Allocator(n), inst)
        verify_greedy1_failure(trace, alpha)
        assert prop1_ratio(inst, trace.allocation) < alpha

    def test_verify_compares_agent_twos_final_value_as_a_ratio(self):
        trace = run(Greedy1Allocator(2), greedy1_adversary(2, F(1, 10)))

        def agent_two_ends_at(num, den):
            trace.alpha_num[1][-1], trace.alpha_den[1][-1] = num, den
            return trace

        num, den = trace.alpha_num[1][-1], trace.alpha_den[1][-1]
        verify_greedy1_failure(agent_two_ends_at(3 * num, 3 * den), F(1, 10))  # the same 2/41
        for tampered in ((num + 1, den), (num, 0), (0, 0)):
            with pytest.raises(InvariantError, match="agent 2's final running value"):
                verify_greedy1_failure(agent_two_ends_at(*tampered), F(1, 10))

    def test_verify_rejects_a_wrong_run(self):
        inst = greedy1_adversary(2, F(1, 2))
        trace = run(Greedy2Allocator(2), inst)  # mismatched allocator
        with pytest.raises(InvariantError):
            verify_greedy1_failure(trace, F(1, 2))

    def test_parameters_validated(self):
        with pytest.raises(DomainError):
            greedy1_adversary(1, F(1, 2))
        with pytest.raises(DomainError):
            greedy1_adversary(2, F(0))
        with pytest.raises(DomainError):
            greedy1_adversary(2, F(3, 2))

    def test_static_instance_is_idempotent(self):
        assert greedy1_adversary(2, F(1, 4)) == greedy1_adversary(2, F(1, 4))


#: The static constructions as (build, rule, verify, target).
STATIC = {"greedy1": (greedy1_adversary, Greedy1Allocator, verify_greedy1_failure, F(1, 10)),
          "greedy2": (greedy2_adversary, Greedy2Allocator, verify_greedy2_failure, F(1, 2))}


def _first_owner_2(trace):
    trace.owners[0] = 2
    return trace


def _last_owner_swapped(trace):
    trace.owners[-1] = 3 - trace.owners[-1]
    return trace


def _agent_2_value_bumped(trace):
    trace.alpha_num[1][-1] += 1
    return trace


def _values(rows):
    def tamper(trace):
        trace.instance = instance_from_rows(rows)
        return trace
    return tamper


@pytest.mark.parametrize(
    "construction, tamper, checked_at, message",
    [
        ("greedy1", _first_owner_2, F(1, 10), "good 1 must go to agent 1 under lowest-index ties"),
        ("greedy1", _last_owner_swapped, F(1, 10), "agent 2 must never receive a good"),
        ("greedy1", _agent_2_value_bumped, F(1, 10),
         "agent 2's final running value diverged from the construction"),
        ("greedy1", None, F(1, 100), "horizon too short: the failure inequality does not bind"),
        # agent 2 values only good 1, so its best outside good makes it PROP1
        ("greedy1", _values([[1] * 40, [1] + [0] * 39]), F(1, 10), "PROP1 ratio did not fall below the target"),
        ("greedy2", _first_owner_2, F(1, 2), "good 1 must go to agent 1 under lowest-index ties"),
        ("greedy2", _last_owner_swapped, F(1, 2), "agent 1 must keep only good 1"),
        ("greedy2", None, F(1, 10), "horizon too short: the failure inequality does not bind"),
        # agent 1 values only good 1, which it holds; agent 2 holds 8 of its 9
        ("greedy2", _values([[1] + [0] * 8, [1] * 9]), F(1, 2), "PROP1 ratio did not fall below the target"),
    ],
    ids=["g1-first-owner", "g1-agent-2-served", "g1-agent-2-value", "g1-horizon", "g1-ratio",
         "g2-first-owner", "g2-agent-1-served", "g2-horizon", "g2-ratio"],
)
def test_each_forced_fact_of_a_static_construction_has_its_own_breach(construction, tamper, checked_at, message):
    build, rule, verify, alpha = STATIC[construction]
    trace = run(rule(2), build(2, alpha))
    verify(trace, alpha)
    with pytest.raises(InvariantError) as breach:
        verify(trace if tamper is None else tamper(trace), checked_at)
    assert str(breach.value) == message


class TestGreedy2Adversary:
    def test_horizon_uses_the_binding_inequality(self):
        # the final certificate needs 2/m < alpha/n, i.e. m > 2n/alpha
        assert greedy2_adversary(2, F(1, 2)).m == 9
        assert greedy2_adversary(2, F(1, 10)).m == 41

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("alpha", [F(1, 2), F(1, 4), F(1, 10)])
    def test_agent_one_keeps_only_the_first_good(self, n, alpha):
        inst = greedy2_adversary(n, alpha)
        trace = run(Greedy2Allocator(n), inst)
        assert trace.owners[0] == 1
        assert all(owner != 1 for owner in trace.owners[1:])
        verify_greedy2_failure(trace, alpha)
        assert prop1_ratio(inst, trace.allocation) < alpha


class TestGreedy3Adversary:
    def test_opening_schedule_and_state(self):
        adversary = Greedy3Adversary(F(1, 2), 10**4)
        allocator = Greedy3Allocator(2)
        owners = []
        for expected in (1, 2, 1):
            column = adversary.next_column(owners)
            assert column == [F(1), F(1)]
            owners.append(allocator.observe(column))
            assert owners[-1] == expected
        # the first equalization run: value 1/2 to agent 1, allocated to agent 2,
        # as long as its closed-form count
        column = adversary.next_column(owners)
        assert column == [F(1, 2), F(0)]
        assert adversary.copies == 2

    def test_reaches_each_target_with_certificates(self):
        for target in (F(3, 5), F(1, 2), F(2, 5)):
            adversary = Greedy3Adversary(target, 10**6)
            result = run_adaptive(adversary, Greedy3Allocator(2))
            assert result.target_reached
            assert result.achieved_ratio < target
            assert result.achieved_ratio == prop1_ratio(
                result.trace.instance, result.trace.allocation
            )

    def test_emitted_values_never_unfreeze_the_outside_maximum(self):
        adversary = Greedy3Adversary(F(1, 2), 10**5)
        allocator = Greedy3Allocator(2)
        owners = []
        columns = []
        while (column := adversary.next_column(owners)) is not None:
            for _ in range(adversary.copies):
                columns.append(column)
                owners.append(allocator.observe(column))
        for column in columns[3:]:
            assert column[0] <= 1 and column[1] <= 1
            assert set(column) <= {F(0), F(1, 2), F(1)}

    def test_harmonic_certificate_is_exact_per_cycle(self):
        adversary = Greedy3Adversary(F(2, 5), 10**6)
        result = run_adaptive(adversary, Greedy3Allocator(2))
        k = adversary.cycles
        rhs = F(3, 2) + sum((F(1, 2 * (s + 2)) for s in range(1, k + 1)), F(0))
        min_alpha = min(row[-1] for row in running_values(result.trace))
        assert 1 / min_alpha >= rhs

    def test_divergent_allocator_is_caught(self):
        adversary = Greedy3Adversary(F(1, 2), 10**4)
        with pytest.raises(InvariantError):
            run_adaptive(adversary, Greedy1Allocator(2))

    def test_infeasible_targets_rejected(self):
        for bad in (F(2, 3), F(9, 10), F(0), F(-1, 2)):
            with pytest.raises(DomainError):
                Greedy3Adversary(bad, 10**4)

    def test_exhausted_budget_is_reported_not_raised(self):
        adversary = Greedy3Adversary(F(1, 10), max_steps=25)
        result = run_adaptive(adversary, Greedy3Allocator(2))
        assert not result.target_reached
        assert result.trace.instance.m <= 25

    def test_padded_agents_see_zero_columns_only(self):
        adversary = Greedy3Adversary(F(1, 2), 10**5, n=3)
        result = run_adaptive(adversary, Greedy3Allocator(3))
        assert result.target_reached
        rows = result.trace.instance.values
        assert all(v == 0 for v in rows[2][3:])  # beyond the opening

    def test_predicted_cycles_bound_dominates_actual(self):
        adversary = Greedy3Adversary(F(1, 2), 10**6)
        bound = adversary.predicted_cycles_bound()
        run_adaptive(adversary, Greedy3Allocator(2))
        assert adversary.cycles <= bound

    @pytest.mark.parametrize(
        "n, target",
        [(2, F(3, 5)), (2, F(4, 7)), (2, F(1, 2)), (2, F(3, 7)), (2, F(2, 5)), (2, F(1, 3)),
         (2, F(3, 10)), (2, F(2, 7)), (2, F(1, 4)), (3, F(3, 5)), (3, F(4, 7)), (3, F(1, 2)),
         (3, F(3, 7)), (3, F(3, 8)), (4, F(1, 2))],
    )
    def test_predicted_cycles_bound_matches_the_summing_loop(self, n, target):
        # the definition: add certificate terms until the float sum reaches n/alpha
        need = float(n / target)
        rhs, k = 1.5, 0
        while rhs < need:
            k += 1
            rhs += 1.0 / (2 * (k + Greedy3Adversary.OPENING_LAMBDA))
        assert Greedy3Adversary(target, 10, n).predicted_cycles_bound() == k

    def test_predicted_cycles_bound_for_small_targets(self):
        assert Greedy3Adversary(F(1, 5), 10).predicted_cycles_bound() == 60780788
        assert Greedy3Adversary(F(1, 175), 10).predicted_cycles_bound() > 10**303
        assert Greedy3Adversary(F(1, 176), 10).predicted_cycles_bound() is None
        assert Greedy3Adversary(F(1, 10**400), 10).predicted_cycles_bound() is None


class TestImpossibilityAdversary:
    def test_constants(self):
        m, k, eps = impossibility_constants(2, F(1, 2))
        assert (m, k) == (8, 6)
        assert eps == F(1, 6**6)

    def test_every_emitted_value_respects_the_unit_bound(self):
        adversary = MivImpossibilityAdversary(3, F(1, 2))
        allocator = MivAllocator(3)
        owners = []
        while (column := adversary.next_column(owners)) is not None:
            assert all(0 <= value <= 1 for value in column)
            for _ in range(adversary.copies):
                owners.append(allocator.observe(column))
        assert len(owners) == adversary.m

    def test_realized_maxima_make_the_all_ones_predictions_perfect(self):
        for allocator_factory in (MivAllocator, Greedy1Allocator, Greedy2Allocator):
            adversary = MivImpossibilityAdversary(2, F(1, 2))
            result = run_adaptive(adversary, allocator_factory(2))
            for row in result.trace.instance.values:
                assert max(row) == 1

    def test_violates_all_three_notions_vs_potential_rule(self):
        adversary = MivImpossibilityAdversary(2, F(1, 2))
        result = run_adaptive(adversary, MivAllocator(2))
        inst, alloc = result.trace.instance, result.trace.allocation
        assert not check_alpha_ef1(inst, alloc, F(1, 2)).satisfied
        assert not check_alpha_mms(inst, alloc, F(1, 2)).satisfied
        assert not check_alpha_propx(inst, alloc, F(1, 2)).satisfied
        assert check_alpha_prop1(inst, alloc, F(1, 2)).satisfied

    def test_case_one_shape_when_agent_one_is_frozen(self):
        # the least-satisfied rule hands agent 1 nothing after the opener,
        # so the schedule runs its full geometric course
        adversary = MivImpossibilityAdversary(2, F(1, 2))
        result = run_adaptive(adversary, Greedy2Allocator(2))
        inst = result.trace.instance
        assert result.trace.owners[0] == 1
        assert result.trace.owners.count(1) == 1
        assert inst.values[1][-1] == 1  # the final good realizes agent 2's maximum
        assert not check_alpha_ef1(inst, result.trace.allocation, F(1, 2)).satisfied


class TestRunConstruction:
    def test_static_constructions_face_their_own_rule(self):
        for name, build, verify, rule in (
            ("greedy1", greedy1_adversary, verify_greedy1_failure, Greedy1Allocator),
            ("greedy2", greedy2_adversary, verify_greedy2_failure, Greedy2Allocator),
        ):
            result = run_construction(name, 3, F(1, 5))
            trace = run(rule(3), build(3, F(1, 5)))
            verify(trace, F(1, 5))
            assert trace_fields(result.trace) == trace_fields(trace)
            assert check_construction(name, 3, F(1, 5))[0] == name
            assert result.achieved_ratio == prop1_ratio(trace.instance, trace.allocation) < F(1, 5)
            assert result.target_reached and result.verdicts == {"ratio_below_target": True}
            assert result.fields == {"cycles": None}

    def test_greedy3_reports_cycles_and_the_certified_bound(self):
        result = run_construction("greedy3", 2, F(2, 5))
        adversary = Greedy3Adversary(F(2, 5), 10**6)
        direct = run_adaptive(adversary, Greedy3Allocator(2))
        assert trace_fields(result.trace) == trace_fields(direct.trace)
        assert result.fields == {"cycles": adversary.cycles, "certified_cycles_bound": 2757}
        assert check_construction("greedy3", 2, F(2, 5))[0] == "greedy3"
        assert result.verdicts == {"ratio_below_target": True}

    def test_impossibility_verdicts(self):
        result = run_construction("miv-impossibility", 2, F(1, 2))
        assert result.verdicts == {
            "prop1_at_inv_n": True,
            "alpha_ef1": False,
            "alpha_propx": False,
            "alpha_mms": False,
        }
        assert result.fields == {"allocator": "miv", **result.verdicts}

    def test_mms_verdict_is_none_above_the_size_guard(self):
        result = run_construction("miv-impossibility", 2, F(1, 20), allocator="greedy1")
        assert result.trace.instance.m == 44
        assert result.verdicts["alpha_mms"] is None
        assert result.verdicts["alpha_ef1"] is False

    def test_seeded_rand_victim(self):
        first = run_construction("miv-impossibility", 2, F(1, 2), allocator="rand", seed=3)
        again = run_construction("miv-impossibility", 2, F(1, 2), allocator="rand", seed=3)
        assert trace_fields(first.trace) == trace_fields(again.trace)
        with pytest.raises(DomainError):
            run_construction("miv-impossibility", 2, F(1, 2), allocator="rand")

    def test_roles_decide_which_parameters_apply(self):
        def roles(construction, allocator=None):
            return check_construction(construction, 2, F(1, 2), allocator=allocator)[0]

        assert roles("miv-impossibility") == "miv"
        assert roles("miv-impossibility", "greedy2") == "greedy2"
        for name in ("greedy1", "greedy2", "greedy3"):
            assert roles(name) == roles(name, allocator=name) == name
            with pytest.raises(DomainError):
                roles(name, allocator="miv")

    @pytest.mark.parametrize(
        "construction, alpha, m",
        [("greedy1", F(1, 2), 8), ("greedy2", F(2, 5), 11), ("miv-impossibility", F(1, 3), 10)],
    )
    def test_the_step_budget_bounds_every_horizon(self, construction, alpha, m, monkeypatch):
        assert run_construction(construction, 2, alpha, max_steps=m).trace.instance.m == m

        def refuse(*args):
            raise AssertionError("built an instance over the step budget")

        monkeypatch.setattr(adversaries, "instance_from_rows", refuse)
        monkeypatch.setattr(adversaries, "impossibility_constants", refuse)
        message = f"^{construction} needs {m} goods, over the step budget of {m - 1}$"
        with pytest.raises(DomainError, match=message):
            check_construction(construction, 2, alpha, max_steps=m - 1)
        with pytest.raises(DomainError, match="step budget"):
            run_construction(construction, 2, alpha, max_steps=m - 1)

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_each_run_builds_its_rule_once(self, construction, monkeypatch):
        rule_name, built = check_construction(construction, 2, F(1, 2))[0], []

        def counting(*args):
            built.append(args)
            return make_allocator(*args)

        monkeypatch.setattr(adversaries, "make_allocator", counting)
        run_construction(construction, 2, F(1, 2), seed=None)
        assert built == [(rule_name, 2, None)]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, True, Decimal("0.5"), "1/2", None], ids=repr)
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_a_target_that_is_not_an_int_or_a_fraction_is_refused(self, construction, alpha, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a rule for a refused target")

        monkeypatch.setattr(adversaries, "make_allocator", refuse)
        with pytest.raises(DomainError) as refused:
            run_construction(construction, 2, alpha)
        assert str(refused.value) == f"target ratio {alpha!r} is not an int or a Fraction"

    @pytest.mark.parametrize("build", [greedy1_adversary, greedy2_adversary, impossibility_constants],
                             ids=lambda build: build.__name__)
    def test_each_builder_refuses_a_float_target_and_takes_an_int(self, build):
        for alpha in (0.5, 1.0, False):
            with pytest.raises(DomainError, match=f"^target ratio {alpha!r} is not an int or a Fraction$"):
                build(2, alpha)
        with pytest.raises(DomainError, match="^need at least 2 agents$"):
            build(1, 0.5)
        assert build(2, 1) == build(2, F(1))

    def test_one_agent_or_a_mismatched_allocator_is_refused(self):
        refusals = [
            (lambda: Greedy3Adversary(F(1, 2), 10, n=1), "need at least 2 agents"),
            (lambda: run_adaptive(MivImpossibilityAdversary(2, F(1, 2)), Greedy1Allocator(3)),
             "allocator handles 3 agents, adversary emits 2"),
        ]
        for call, message in refusals:
            with pytest.raises(DomainError) as refused:
                call()
            assert str(refused.value) == message

    @pytest.mark.parametrize("make", [
        lambda: Greedy3Adversary(F(1, 2), 10**4, n=3),
        lambda: MivImpossibilityAdversary(2, F(1, 2)),
    ], ids=["greedy3", "impossibility"])
    def test_next_column_after_the_schedule_ended_returns_none(self, make):
        adversary = make()
        owners = run_adaptive(adversary, Greedy3Allocator(adversary.n)).trace.owners
        t = adversary.t
        assert adversary.next_column(owners) is None
        assert adversary.next_column([]) is None  # the history is no longer read
        assert adversary.t == t

    def test_unknown_construction_rejected(self):
        assert CONSTRUCTIONS == ("greedy1", "greedy2", "greedy3", "miv-impossibility")
        with pytest.raises(DomainError):
            run_construction("greedy4", 2, F(1, 2))
        for name in (["greedy1"], {}, None):
            with pytest.raises(DomainError, match=f"^unknown construction {re.escape(repr(name))}; "):
                run_construction(name, 2, F(1, 2))


def feed(adversary, owners):
    """Call ``next_column`` on each prefix of ``owners`` that a run starts at
    (the empty one first) until the schedule ends; return the column of
    every good emitted."""
    columns = []
    while adversary.t <= len(owners):
        if (column := adversary.next_column(owners[:adversary.t])) is None:
            break
        columns += [column] * adversary.copies
    return columns


#: Owners the greedy3 construction forces at n=3, alpha=1/2: the opening,
#: two equalization goods for agent 2, then the strike (agent 2 takes it).
FIRST_CYCLE = [1, 2, 1, 2, 2, 2]


class TestForcedChoices:
    def greedy3(self, max_steps=10**4):
        return Greedy3Adversary(F(1, 2), max_steps, n=3)

    def test_the_forced_schedule_is_accepted(self):
        columns = feed(self.greedy3(), FIRST_CYCLE)
        ones, half = [F(1), F(1), F(0)], [F(1, 2), F(0), F(0)]
        assert columns == [[F(1)] * 3, ones, ones, half, half, ones, [F(0), F(1, 2), F(0)]]

    @pytest.mark.parametrize(
        "t, owner",
        [(0, 2), (0, 3), (1, 1), (1, 3), (2, 2), (2, 3), (3, 1), (3, 3), (4, 1), (5, 3)],
        ids=lambda v: str(v),
    )
    def test_a_wrong_owner_is_an_invariant_breach(self, t, owner):
        adversary = self.greedy3()
        feed(adversary, FIRST_CYCLE[:t])
        # the rest of good t+1's run, if any, goes where it must
        history = FIRST_CYCLE[:t] + [owner] + FIRST_CYCLE[t + 1:adversary.t]
        with pytest.raises(InvariantError, match=f"^good {t + 1} must go to agent "):
            adversary.next_column(history)

    def test_agent_two_taking_the_impossibility_good_one(self):
        adversary = MivImpossibilityAdversary(2, F(1, 2))
        adversary.next_column([])
        with pytest.raises(InvariantError, match="good 1 must go to agent 1"):
            adversary.next_column([2])

    @pytest.mark.parametrize(
        "emitted, history", [(1, []), (1, [1, 1]), (0, [1])], ids=["short", "long", "first"]
    )
    @pytest.mark.parametrize("make", [
        lambda: Greedy3Adversary(F(1, 2), 10**4, n=3),
        lambda: MivImpossibilityAdversary(3, F(1, 2)),
    ], ids=["greedy3", "impossibility"])
    def test_a_history_of_the_wrong_length_is_a_domain_error(self, make, emitted, history):
        adversary = make()
        if emitted:
            adversary.next_column([])
        with pytest.raises(DomainError):
            adversary.next_column(history)

    @pytest.mark.parametrize("max_steps, cycles", [(4, 0), (5, 0), (6, 1), (7, 1)])
    def test_a_budget_ending_on_the_strike(self, max_steps, cycles):
        adversary = self.greedy3(max_steps)
        result = run_adaptive(adversary, Greedy3Allocator(3))
        assert result.trace.instance.m == max_steps
        assert result.trace.owners == (FIRST_CYCLE + [1])[:max_steps]
        assert adversary.cycles == cycles and not result.target_reached
        assert adversary._mirror.t <= max_steps  # a run the budget cut short is not mirrored
        adversary = self.greedy3(6)
        feed(adversary, FIRST_CYCLE[:5])
        with pytest.raises(InvariantError):  # the last strike is still checked
            adversary.next_column(FIRST_CYCLE[:5] + [3])

    def test_a_tampered_opening_state(self):
        adversary = self.greedy3()
        feed(adversary, [1, 2])
        adversary._mirror.total_w[0] += 1  # the scale is still 1
        with pytest.raises(InvariantError, match="opening state"):
            adversary.next_column([1, 2, 1])

    def test_an_opening_lambda_other_than_two(self, monkeypatch):
        monkeypatch.setattr(Greedy3Adversary, "OPENING_LAMBDA", 3)
        with pytest.raises(InvariantError, match="bundle/c"):
            feed(self.greedy3(), [1, 2, 1])

    @pytest.mark.parametrize("field", ["held_w", "total_w"])
    def test_an_equalization_run_off_its_boundary(self, field):
        adversary = self.greedy3()
        feed(adversary, FIRST_CYCLE[:4])  # goods 4-5 are out: the mirror takes them when they end
        getattr(adversary._mirror, field)[0] *= 10  # agent 1 leaves the equalization boundary
        with pytest.raises(InvariantError, match="equalization of 2 goods stops off its boundary"):
            adversary.next_column(FIRST_CYCLE[:5])

    def test_a_wrong_owner_inside_a_whole_run_names_its_good(self):
        adversary = self.greedy3()
        while adversary.t < 5:
            adversary.next_column(FIRST_CYCLE[:adversary.t])
        with pytest.raises(InvariantError, match="^good 4 must go to agent 2, saw agent 3$"):
            adversary.next_column([1, 2, 1, 3, 1])

    @pytest.mark.parametrize(
        "agent, field, value, message",
        [
            # agent 1 is the new minimum once agent 2 takes the strike
            (0, "held_w", F(10), "lower the running minimum"),
            (1, "total_w", F(100), "not strict"),
            (2, "total_w", F(100), "not strict"),  # a padded agent's value falls to 1/100
            (0, "held_w", F(17, 8), "harmonic certificate"),  # 5/8: lower, yet above 3/5
        ],
        ids=["not-lower", "live-not-strict", "padded-not-strict", "certificate"],
    )
    def test_a_tampered_strike(self, agent, field, value, message):
        adversary = self.greedy3()
        feed(adversary, FIRST_CYCLE[:5])
        mirror = adversary._mirror
        scale = mirror.rescale(agent, value.denominator)  # so the value is a whole weight
        getattr(mirror, field)[agent] = int(value * scale)
        with pytest.raises(InvariantError, match=message):
            adversary.next_column(FIRST_CYCLE)

    def test_a_certificate_failing_past_the_digit_limit(self):
        """The certificate's denominator is lcm(3, ..., k+2), about 870 digits
        after 2,000 cycles; under a 640-digit int-to-str limit its failure must
        still be an InvariantError, with a bounded message."""

        class Failing(Greedy3Adversary):
            @property
            def OPENING_LAMBDA(self):  # cycle 2,001 adds the term 1/(2 (1/100)) = 50
                return 2 if self.cycles <= 2000 else F(1, 100) - self.cycles

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(InvariantError) as failed:
                run_adaptive(Failing(F(1, 5), 10**6), Greedy3Allocator(2))
        finally:
            sys.set_int_max_str_digits(limit)
        assert re.fullmatch(
            r"harmonic certificate failed at cycle 2001: 1/a_min ~ [\d.]+ < 5[\d.]+", str(failed.value)
        )

    def test_an_emitted_value_above_one(self):
        adversary = MivImpossibilityAdversary(2, F(1, 2))
        adversary.eps = F(2)
        with pytest.raises(InvariantError, match="unit prediction bound"):
            run_adaptive(adversary, Greedy2Allocator(2))


class StrikeSwapper(Greedy3Allocator):
    """The greedy3 rule, except that each strike past the opening (a good
    both live agents value) goes to the other live agent."""

    def _choose(self, col):
        owner = super()._choose(col)
        w = self.state.col_w
        return 3 - owner if self.state.t > 3 and w[0] and w[1] else owner


def schedule_runs(adversary, allocator):
    """Drive ``allocator`` with ``adversary`` run by run; return each run's
    (column, allowed agents, copies), the owners, and either (cycles,
    target_reached) or the text of the ``InvariantError`` that ended it."""
    recorder, runs = TraceRecorder(allocator.state), []
    try:
        while (column := adversary.next_column(recorder.owners)) is not None:
            runs.append((column, adversary._run[0], adversary.copies))
            recorder.place(allocator, column, adversary.copies)
    except InvariantError as exc:
        return runs, recorder.owners, str(exc)
    return runs, recorder.owners, (adversary.cycles, adversary.target_reached)


class TestIntegerSchedule:
    """``Greedy3Adversary``'s schedule in integer weights against the
    ``Fraction`` schedule it replaced (``conftest.RefGreedy3Adversary``)."""

    @pytest.mark.parametrize("max_steps", [4, 5, 6, 7, 10, 57, 212, 10**6])
    @pytest.mark.parametrize(
        "n, target",
        [(2, F(3, 5)), (2, F(1, 2)), (2, F(2, 5)), (2, F(1, 3)), (3, F(3, 5)), (3, F(1, 2)),
         (3, F(3, 7)), (4, F(197, 300)), (4, F(3, 5))],
    )
    def test_same_runs_owners_and_outcome(self, n, target, max_steps):
        got = schedule_runs(Greedy3Adversary(target, max_steps, n), Greedy3Allocator(n))
        want = schedule_runs(RefGreedy3Adversary(target, max_steps, n), Greedy3Allocator(n))
        assert got == want
        assert all(type(v) is Fraction for column, _, _ in got[0] for v in column)
        if max_steps == 10**6:
            assert got[2][1]  # the target is reached, through every cycle's checks

    @pytest.mark.parametrize("n, target", [(2, F(1, 2)), (3, F(1, 2)), (4, F(3, 5))])
    def test_same_runs_when_each_strike_goes_to_the_other_agent(self, n, target):
        # a strike lowers the smaller running value whoever takes it, so this
        # rule walks the schedule down another legal path
        got = schedule_runs(Greedy3Adversary(target, 10**4, n), StrikeSwapper(n))
        want = schedule_runs(RefGreedy3Adversary(target, 10**4, n), StrikeSwapper(n))
        assert got == want and got[2][1]
        assert got[1] != schedule_runs(Greedy3Adversary(target, 10**4, n), Greedy3Allocator(n))[1]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_same_breach_against_a_rule_that_breaks_the_schedule(self, n):
        class Breaker(Greedy3Allocator):  # good 4, the first equalization good, goes astray
            def _choose(self, col):
                return 3 - super()._choose(col) if self.state.t == 4 else super()._choose(col)

        got = schedule_runs(Greedy3Adversary(F(1, 2), 10**4, n), Breaker(n))
        want = schedule_runs(RefGreedy3Adversary(F(1, 2), 10**4, n), Breaker(n))
        assert got == want and isinstance(got[2], str)

    @pytest.mark.parametrize(
        "owners, agent, field, value, message",
        [
            ([1, 2, 1], 0, "total_w", F(4), "opening state"),
            (FIRST_CYCLE[:5], 0, "held_w", F(20), "equalization of 2 goods"),
            (FIRST_CYCLE[:5], 0, "total_w", F(30), "equalization of 2 goods"),
            (FIRST_CYCLE, 0, "held_w", F(10), "strike failed"),
            (FIRST_CYCLE, 1, "total_w", F(100), "post-strike minimum"),
            (FIRST_CYCLE, 2, "total_w", F(100), "post-strike minimum"),  # a padded agent
            (FIRST_CYCLE, 0, "held_w", F(17, 8), "harmonic certificate"),
        ],
        ids=["opening", "boundary-held", "boundary-total", "not-lower", "live-not-strict",
             "padded-not-strict", "certificate"],
    )
    def test_same_breach_text_from_a_tampered_mirror(self, owners, agent, field, value, message):
        texts = []
        for make in (Greedy3Adversary, RefGreedy3Adversary):
            adversary = make(F(1, 2), 10**4, n=3)
            feed(adversary, owners[:-1])
            mirror = adversary._mirror
            scale = mirror.rescale(agent, value.denominator)  # so the value is a whole weight
            getattr(mirror, field)[agent] = int(value * scale)
            with pytest.raises(InvariantError) as breach:
                adversary.next_column(owners)
            texts.append(str(breach.value))
        assert texts[0] == texts[1] and texts[0].startswith(message)
