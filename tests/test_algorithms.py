import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    INF,
    Allocation,
    DomainError,
    FairdivError,
    Greedy1Allocator,
    Greedy2Allocator,
    Greedy3Allocator,
    InvariantError,
    MivAllocator,
    OnlineAllocator,
    ParseError,
    Predictions,
    PredictionContractError,
    RandAllocator,
    RobustifiedAllocator,
    analytic_moments,
    check_alpha_prop1,
    instance_from_rows,
    make_allocator,
    perfect_predictions,
    prop1_ratio,
    run,
)
from fairdiv.algorithms import TraceRecorder
from conftest import (
    RefListRobustified,
    alpha_it,
    bundle,
    bundle_value,
    random_instance,
    robust_beta,
    running_values,
    total_value,
    value,
)

F = Fraction


class TestGreedy1:
    def test_all_ones_tie_goes_to_agent_one(self):
        a = Greedy1Allocator(2)
        assert a.observe([F(1), F(1)]) == 1

    def test_relative_value_decides(self):
        a = Greedy1Allocator(2)
        a.observe([F(1), F(1)])
        # scores 1/2 vs (1/2)/(3/2)
        assert a.observe([F(1), F(1, 2)]) == 1

    def test_zero_column_degenerate_tie(self):
        a = Greedy1Allocator(2)
        assert a.observe([F(0), F(0)]) == 1

    def test_negative_value_rejected(self):
        with pytest.raises(DomainError):
            Greedy1Allocator(2).observe([F(-1), F(0)])


class TestGreedy2:
    def test_opening_tie(self):
        a = Greedy2Allocator(2)
        assert a.observe([F(1), F(1)]) == 1

    def test_least_satisfied_agent_wins(self):
        a = Greedy2Allocator(2)
        a.observe([F(1), F(1)])
        # bundle shares: 1/2 vs 0
        assert a.observe([F(1), F(1, 16)]) == 2

    def test_zero_total_agent_never_prioritized(self):
        a = Greedy2Allocator(2)
        assert a.observe([F(1), F(0)]) == 1
        # agent 2 still values nothing: its ratio is treated as infinite
        assert a.observe([F(1), F(0)]) == 1


class TestGreedy3:
    def test_three_good_opening_owners_and_values(self):
        inst = instance_from_rows([[F(1)] * 3, [F(1)] * 3])
        trace = run(Greedy3Allocator(2), inst)
        assert trace.owners == [1, 2, 1]
        assert alpha_it(inst, trace.owners, 1, 3) == F(1)
        assert alpha_it(inst, trace.owners, 2, 3) == F(2, 3)

    def test_zero_column_ties_to_lowest_index(self):
        a = Greedy3Allocator(2)
        a.observe([F(1), F(1)])
        assert a.observe([F(0), F(0)]) == 1


#: Small denominators and many zeros, so that greedy scores tie often.
GREEDY_VALUES = [F(0), F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 7)]


@st.composite
def greedy_instances(draw):
    """Instances with zero columns, columns equal across agents and
    all-zero rows, so that every rule meets ties and zero totals."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, 25))
    columns = []
    for _ in range(m):
        kind = draw(st.sampled_from(["any", "any", "zero", "equal"]))
        if kind == "any":
            columns.append(draw(st.lists(st.sampled_from(GREEDY_VALUES), min_size=n, max_size=n)))
        else:
            columns.append([F(0) if kind == "zero" else draw(st.sampled_from(GREEDY_VALUES))] * n)
    rows = [[column[i] for column in columns] for i in range(n)]
    for row in rows:
        if draw(st.integers(0, 3)) == 0:
            row[:] = [F(0)] * m
    return instance_from_rows(rows)


def _greedy_choice(rule, inst, owners, t):
    """The agent that ``rule`` gives good t, from the definitions over the
    bundles A_i of goods 1..t-1 and the arrived goods G_t = 1..t: greedy1
    maximizes v_i(g_t) / v_i(G_t) (0 on a zero total); greedy2 minimizes
    v_i(A_i) / v_i(G_t) and greedy3 (v_i(A_i) + max(best good outside A_i,
    v_i(g_t))) / v_i(G_t) (INF on a zero total).  Lowest index on ties."""
    prefix = Allocation(tuple(owners))
    scores = []
    for agent in range(1, inst.n + 1):
        total = bundle_value(inst, agent, range(1, t + 1))
        held = bundle_value(inst, agent, bundle(prefix, agent))
        outside = max(
            (value(inst, agent, g) for g in range(1, t) if owners[g - 1] != agent), default=F(0)
        )
        v = value(inst, agent, t)
        if rule == "greedy1":
            scores.append(F(0) if total == 0 else v / total)
        elif total == 0:
            scores.append(INF)
        elif rule == "greedy2":
            scores.append(held / total)
        else:
            scores.append((held + max(outside, v)) / total)
    return scores.index(max(scores) if rule == "greedy1" else min(scores)) + 1


class TestGreedyScores:
    """Each greedy rule's ``_score`` under the one argmin, against the
    rule's definition recomputed from the prefix at every step."""

    @settings(max_examples=150, deadline=None)
    @given(greedy_instances())
    def test_choices_match_the_definitions(self, inst):
        for rule in ("greedy1", "greedy2", "greedy3"):
            allocator, owners = make_allocator(rule, inst.n), []
            for t, column in enumerate(inst.columns(), 1):
                expected = _greedy_choice(rule, inst, owners, t)
                owners.append(allocator.observe(column))
                assert owners[-1] == expected, f"{rule} at t={t}"


class TestRand:
    def test_identical_seed_replays_identically(self):
        inst = instance_from_rows([[F(1)] * 50, [F(1)] * 50])
        t1 = run(RandAllocator(2, 42), inst)
        t2 = run(RandAllocator(2, 42), inst)
        assert t1.owners == t2.owners
        t3 = run(RandAllocator(2, 43), inst)
        assert t1.owners != t3.owners  # overwhelmingly likely and frozen here

    def test_receipt_frequency_within_three_sigma(self):
        m = 100_000
        a = RandAllocator(2, 2718)
        counts = [0, 0]
        col = [F(1), F(1)]
        for _ in range(m):
            counts[a.observe(col) - 1] += 1
        # binomial(m, 1/2): three sigma is 3 * sqrt(m)/2
        assert abs(counts[0] - m // 2) <= 3 * (m**0.5) / 2

    def test_expected_bundle_value_is_proportional_analytically(self):
        inst = instance_from_rows([[F(1), F(1, 3), F(2, 5)], [F(1), F(1), F(0)]])
        for agent in (1, 2):
            total = total_value(inst, agent)
            others = analytic_moments(inst, agent).mean
            assert total - others == total / inst.n


class TestMivAllocator:
    def test_initial_potential(self):
        for n in (2, 3, 4, 5):
            a = MivAllocator(n)
            assert a.potential == F(1, n + 1)
            assert all(phi == F(1, n * n + n) for phi in a.phi)

    def test_single_good_run_is_half_prop1(self):
        inst = instance_from_rows([[F(1)], [F(1)]])
        trace = run(MivAllocator(2), inst)
        assert check_alpha_prop1(inst, trace.allocation, F(1, 2)).satisfied

    def test_value_above_one_rejected(self):
        with pytest.raises(PredictionContractError):
            MivAllocator(2).observe([F(3, 2), F(0)])

    def test_random_instances_meet_inverse_n_prop1(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            m = rng.randint(1, 25)
            inst = random_instance(rng, n, m, force_unit_max=True)
            trace = run(MivAllocator(n), inst)
            assert check_alpha_prop1(inst, trace.allocation, F(1, n)).satisfied

    def test_potential_never_increases_and_stays_bounded(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.choice([2, 3])
            inst = random_instance(rng, n, rng.randint(1, 20), force_unit_max=True)
            trace = run(MivAllocator(n), inst)
            log = trace.potential
            assert log[0] == F(1, n + 1)
            assert all(later <= earlier for earlier, later in zip(log, log[1:]))
            assert all(value <= F(1, n + 1) for value in log)

    def test_chosen_agent_minimizes_the_candidate_potentials(self):
        """Shadow recomputation of all n candidate potentials per step."""
        rng = random.Random(4321)
        for _ in range(15):
            n = rng.choice([2, 3])
            m = rng.randint(1, 15)
            inst = random_instance(rng, n, m, force_unit_max=True)
            allocator = MivAllocator(n)
            shadow = _ShadowMiv(n)
            for column in inst.columns():
                shadow.observe(column)
                candidates = shadow.candidates
                chosen = allocator.observe(column)
                best = min(candidates)
                assert candidates[chosen - 1] == best
                assert chosen - 1 == candidates.index(best)  # lowest-index tie rule
                assert allocator.potential == best

    def test_runs_complete_without_any_unit_value_good(self):
        # without a value-1 good the anticipation branch runs to the end;
        # no potential guarantee is asserted, but the invariants must hold
        inst = instance_from_rows([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]])
        trace = run(MivAllocator(2), inst)
        assert len(trace.owners) == 2


class _ShadowMiv(OnlineAllocator):
    """The MIV rule from its definition, as a reference for the closed form.

    Per agent x = 1/T and y = H x, where T is the arrived total padded by 1
    until the first value-1 good and H the held value without that good;
    each potential term is x / ((n^2+n+1) x + n^2 y - 1).  The good goes to
    the agent whose candidate total potential is smallest, lowest index on
    ties.  The invariants are checked on the x/y form.
    """

    def __init__(self, n):
        super().__init__(n)
        self.sans = [F(0)] * n  # held value without the first value-1 good
        self.first = [None] * n  # arrival of the first value-1 good
        self.phi = [F(1, n * n + n)] * n
        self.potential_log = [F(1, n + 1)]
        self.candidates = []

    def _term(self, x, y):
        n = self.n
        denom = (n * n + n + 1) * x + n * n * y - 1
        if denom <= 0:
            raise InvariantError("non-positive potential denominator")
        return x / denom

    def _choose(self, column):
        column = [F(p, q) for p, q in column]  # the validated column comes as pairs
        n, t = self.n, self.state.t
        keep, take, x, y_keep, y_take = [], [], [], [], []
        for i in range(n):
            if column[i] == 1 and self.first[i] is None:
                self.first[i] = t
            if self.first[i] is None:
                xi = F(1) / (1 + self.total[i])
                held, gain = self.bundle[i], column[i]
            else:
                xi = F(1) / self.total[i]
                held, gain = self.sans[i], (column[i] if t != self.first[i] else F(0))
            x.append(xi)
            y_keep.append(held * xi)
            y_take.append((held + gain) * xi)
            keep.append(self._term(xi, y_keep[i]))
            take.append(self._term(xi, y_take[i]))
        total_keep = sum(keep)
        self.candidates = [take[i] - keep[i] + total_keep for i in range(n)]
        chosen = self.candidates.index(min(self.candidates))
        if self.candidates[chosen] > self.potential_log[-1]:
            raise InvariantError("potential increased")
        for i in range(n):
            if x[i] + (y_take[i] if i == chosen else y_keep[i]) < F(1, n * n):
                raise InvariantError("x + y below 1/n^2")
        if t != self.first[chosen]:
            self.sans[chosen] += column[chosen]
        self.phi = [take[i] if i == chosen else keep[i] for i in range(n)]
        self.potential_log.append(self.candidates[chosen])
        return chosen + 1


#: Small and wide denominators, zeros and the unit value.
MIV_VALUES = [
    F(0), F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(5, 6), F(9, 10), F(97, 101), F(13, 191)
]


@st.composite
def miv_runs(draw):
    """(instance, predictions or None): rows with or without a unit good,
    all-zero rows and columns, columns equal across agents and runs of
    identical columns (lowest-index ties); with predictions, every value
    lies at or below its agent's prediction."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(0, 40))
    columns = []
    while len(columns) < m:
        kind = draw(st.sampled_from(["any", "any", "any", "zero", "equal"]))
        if kind == "any":
            column = draw(st.lists(st.sampled_from(MIV_VALUES), min_size=n, max_size=n))
        else:
            column = [F(0) if kind == "zero" else draw(st.sampled_from(MIV_VALUES))] * n
        columns += [column] * draw(st.sampled_from([1, 1, 1, 4, 12]))
    rows = [[column[i] for column in columns[:m]] for i in range(n)]
    for row in rows:
        kind = draw(st.sampled_from(["unit", "unit", "any", "zero"]))
        if kind == "zero":
            row[:] = [F(0)] * m
        elif kind == "unit" and m:
            row[draw(st.integers(0, m - 1))] = F(1)
    if not draw(st.booleans()):
        return instance_from_rows(rows), None
    p = draw(st.lists(st.sampled_from([F(1), F(1), F(2), F(3, 7)]), min_size=n, max_size=n))
    eps = draw(st.sampled_from([F(0), F(1, 10), F(1, 4), F(1, 2)]))
    scaled = [[p[i] * v for v in row] for i, row in enumerate(rows)]
    return instance_from_rows(scaled), Predictions(tuple(p), eps)


class TestMivClosedForm:
    """The D-form allocator against the definition-level x/y reference."""

    @settings(max_examples=120, deadline=None)
    @given(miv_runs())
    def test_matches_the_definition_step_by_step(self, case):
        """Under predictions the reference takes the columns as plain MIV sees
        them: each value over its prediction, each agent's first max made 1."""
        inst, pred = case
        columns = [list(column) for column in zip(*inst.values)]
        closed, shadow = MivAllocator(inst.n), _ShadowMiv(inst.n)
        normalized = columns
        if pred is not None:
            closed, normalized = RobustifiedAllocator(inst.n, pred), _normalized(columns, pred)
        for column, unit in zip(columns, normalized):
            try:
                expected = shadow.observe(unit)
            except InvariantError:
                with pytest.raises(InvariantError):
                    closed.observe(column)
                return
            assert closed.observe(column) == expected
            assert closed.phi == shadow.phi
            assert closed.seen_max == [at is not None for at in shadow.first]
        assert closed.potential_log == shadow.potential_log
        assert closed.potential == shadow.potential_log[-1] == sum(closed.phi)

    def test_first_unit_good_leaves_the_denominator_alone(self):
        a = MivAllocator(2)
        a.observe([F(1, 2), F(1, 3)])
        D = [F(N, scale) for N, scale in zip(a.N, a.state.scale)]
        a.observe([F(1), F(0)])
        assert a.seen_max == [True, False]
        assert F(a.N[0], a.state.scale[0]) == D[0]
        assert all(F(N, scale) == 1 / phi for N, scale, phi in zip(a.N, a.state.scale, a.phi))


def _normalized(columns, pred):
    """Each value over its prediction, and each agent's first one at least
    1 - epsilon made 1."""
    seen = [False] * pred.n
    for column in columns:
        unit = [v / p for v, p in zip(column, pred.p)]
        for i, v in enumerate(unit):
            if not seen[i] and v >= 1 - pred.epsilon:
                seen[i], unit[i] = True, F(1)
        yield unit


def _first_max_goods(allocator, columns):
    """Feed ``columns``; return the filled recorder and, per agent, the
    1-based good at which its ``seen_max`` flag turned on (None: never)."""
    recorder, turned = TraceRecorder(allocator.state), [None] * allocator.n
    for t, column in enumerate(columns, 1):
        recorder.record(allocator.observe(column))
        turned = [t if seen and at is None else at for seen, at in zip(allocator.seen_max, turned)]
    return recorder, turned


def _first_at_threshold(columns, pred):
    """Per agent, the 1-based good of its first value at least
    (1 - epsilon) p_i (None: none is)."""
    return [
        next((t for t, column in enumerate(columns, 1) if column[i] >= (1 - pred.epsilon) * p), None)
        for i, p in enumerate(pred.p)
    ]


class TestMivInvariants:
    """Each exact invariant fires once the state N = D L is tampered with."""

    def test_non_positive_denominator(self):
        a = MivAllocator(2)
        a.N[1] = 0
        with pytest.raises(InvariantError, match="non-positive potential denominator"):
            a.observe([F(1, 2), F(0)])

    def test_potential_increase(self):
        a = MivAllocator(2)
        # D = 1/100: its term 100 dwarfs the starting potential 1/3
        a.state.scale[1], a.N[1] = 100, 1
        with pytest.raises(InvariantError, match="potential increased"):
            a.observe([F(0), F(0)])

    def test_x_plus_y_below_inverse_n_squared(self):
        a = MivAllocator(2)
        # D = n^2 (1 + H) - T + n + 1, so D < n + 1 = 3 breaks x + y >= 1/n^2;
        # the stored potential rises past 2/5 + 1/6 so that check stays quiet
        a.state.scale[0], a.N[0] = 2, 5  # D = 5/2
        a.potential = F(1)
        with pytest.raises(InvariantError, match="x \\+ y below 1/n\\^2"):
            a.observe([F(0), F(0)])


class TestRobustify:
    def test_zero_error_trace_matches_the_unwrapped_run(self):
        rng = random.Random(55)
        for _ in range(20):
            n = rng.choice([2, 3])
            inst = random_instance(rng, n, rng.randint(1, 12), force_unit_max=True)
            wrapped = RobustifiedAllocator(n, perfect_predictions(n))
            direct = MivAllocator(n)
            for column in inst.columns():
                assert wrapped.observe(column) == direct.observe(column)
                assert wrapped.seen_max == direct.seen_max
                assert wrapped.phi == direct.phi
                assert wrapped.potential_log == direct.potential_log
                assert wrapped.state.rows == direct.state.rows
            wrapped, direct = RobustifiedAllocator(n, perfect_predictions(n)), MivAllocator(n)
            assert run(wrapped, inst).owners == run(direct, inst).owners

    @pytest.mark.parametrize("eps", [F(0), F(1, 4)], ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_ones_predictions_match_the_list_building_rule(self, n, eps):
        """With every p_i = 1, ``_choose`` hands ``_step`` the state's own
        weights and scales; the rule that builds both lists for every good
        makes the same choices and keeps the same N, flags and potentials."""
        rng = random.Random(n * 10 + eps.numerator)
        for trial in range(12):
            pred = Predictions((F(1),) * n, eps)
            fast, listed = RobustifiedAllocator(n, pred), RefListRobustified(n, pred)
            assert fast._unit and not RobustifiedAllocator(n, Predictions((F(1),) * (n - 1) + (F(2),), eps))._unit
            inst = random_instance(rng, n, rng.randint(1, 25), rng.choice([10, 1000003]), trial % 3 != 0)
            for column in inst.columns():
                assert fast.observe(column) == listed.observe(column)
                assert (fast.seen_max, fast.state.rows) == (listed.seen_max, listed.state.rows)
            assert fast.potential_log == listed.potential_log

    def test_each_column_is_validated_once(self, monkeypatch):
        inst = random_instance(random.Random(9), 3, 20, force_unit_max=True)
        wrapped = RobustifiedAllocator(3, perfect_predictions(3))
        calls, validate = [], wrapped._validate
        monkeypatch.setattr(wrapped, "_validate", lambda column: calls.append(column) or validate(column))
        assert run(wrapped, inst).owners == run(MivAllocator(3), inst).owners
        assert len(calls) == inst.m

    def test_beta_formula(self):
        assert robust_beta(F(1, 2), F(1, 2), 2) == F(2, 7)
        for n in (2, 3, 4):
            for eps in (F(0), F(1, 10), F(1, 4)):
                lhs = robust_beta(F(1, n), eps, n)
                assert lhs == (1 - eps) / (n - eps / n)
        assert robust_beta(F(1, 3), F(0), 3) == F(1, 3)

    def test_override_happens_once_per_agent_at_threshold(self):
        pred = Predictions((F(2), F(1)), F(1, 4))
        wrapped = RobustifiedAllocator(2, pred)
        # normalized columns: (2/5, 4/5), (9/10, 1/10), (1, 1)
        columns = [[F(4, 5), F(4, 5)], [F(9, 5), F(1, 10)], [F(2), F(1)]]
        turned = _first_max_goods(wrapped, columns)[1]
        assert turned == [2, 1] == _first_at_threshold(columns, pred)
        normalized = [columns[t - 1][i] / pred.p[i] for i, t in enumerate(turned)]
        assert normalized == [F(9, 10), F(4, 5)]
        for original in normalized:
            assert original >= 1 - pred.epsilon

    def test_a_value_exactly_at_the_threshold_is_overridden(self):
        pred = Predictions((F(2), F(3, 7)), F(1, 4))
        wrapped = RobustifiedAllocator(2, pred)
        # 3/2 = (1 - 1/4) 2, and 2/7 < (1 - 1/4) 3/7 = 9/28
        columns = [[(6, 4), (4, 14)], [(0, 1), (9, 28)]]
        turned = _first_max_goods(wrapped, columns)[1]
        assert turned == [1, 2] == _first_at_threshold([[F(*c) for c in column] for column in columns], pred)
        assert [F(*columns[t - 1][i]) / pred.p[i] for i, t in enumerate(turned)] == [F(3, 4), F(3, 4)]

    def test_wrapped_runs_meet_beta_prop1(self):
        rng = random.Random(808)
        for _ in range(40):
            n = rng.choice([2, 3])
            m = rng.randint(1, 15)
            eps = rng.choice([F(0), F(1, 10), F(1, 4), F(1, 2)])
            inst, pred = _contract_instance(rng, n, m, eps)
            wrapped = RobustifiedAllocator(n, pred)
            columns = [list(column) for column in zip(*inst.values)]
            trace, turned = _first_max_goods(wrapped, columns)
            beta = robust_beta(F(1, n), eps, n)
            assert check_alpha_prop1(inst, trace.allocation, beta).satisfied
            # each agent's flag turns on once, at its first value at least (1 - eps) p_i
            assert turned == _first_at_threshold(columns, pred)
            assert all(columns[t - 1][i] >= (1 - eps) * pred.p[i] for i, t in enumerate(turned))

    def test_raw_value_above_its_prediction_is_a_contract_error(self):
        wrapped = RobustifiedAllocator(2, Predictions((F(1), F(1)), F(1, 10)))
        with pytest.raises(PredictionContractError, match="3/2 of agent 1 exceeds"):
            wrapped.observe([F(3, 2), F(1, 2)])
        assert wrapped.seen_max == [False, False] and wrapped.state.t == 0

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            Predictions((F(1), F(1)), F(3, 2))


def _snapshot(allocator):
    """Everything a placement changes: the state rows, the log, the flags
    and the random state."""
    s = allocator.state
    seen = [s.t, list(s.scale), *map(list, s.rows), list(s.col_w), list(allocator.potential_log or [])]
    seen.append(list(getattr(allocator, "seen_max", [])))
    if hasattr(allocator, "_rng"):
        seen.append(allocator._rng.getstate())
    return seen


@pytest.mark.parametrize("cell", [0.5, "1/2", None, float("nan"), -1, F(-1, 2)], ids=repr)
@pytest.mark.parametrize("rule", ["greedy1", "greedy2", "greedy3", "rand", "miv", "miv-robust"])
def test_observe_refuses_the_cells_instance_from_rows_refuses(rule, cell):
    with pytest.raises(ParseError) as built:
        instance_from_rows([[F(1, 2), F(1, 3)], [F(1), cell], [F(0), F(0)]])
    if rule == "miv-robust":
        allocator = RobustifiedAllocator(3, Predictions((F(1), F(2), F(1, 2)), F(1, 4)))
    else:
        allocator = make_allocator(rule, 3, seed=5)
    allocator.observe([F(1, 2), F(1), F(0)])
    before = _snapshot(allocator)
    with pytest.raises(DomainError) as observed:
        allocator.observe([F(1, 3), cell, F(0)])
    assert str(observed.value) == str(built.value)
    assert _snapshot(allocator) == before


@pytest.mark.parametrize("column", [[F(0), F(3, 2)], [True, 2]], ids=["fraction", "int"])
def test_miv_refuses_a_value_above_its_cap_naming_the_agent(column):
    allocator = MivAllocator(2)
    with pytest.raises(PredictionContractError) as refused:
        allocator.observe(column)
    assert str(refused.value) == f"valuation {F(column[1])} of agent 2 exceeds its predicted maximum 1"
    assert allocator.state.t == 0 and allocator.seen_max == [False, False]


def _allocator(rule, n):
    if rule == "miv-robust":
        return RobustifiedAllocator(n, Predictions((F(1), F(2), F(3, 7), F(1))[:n], F(1, 4)))
    return make_allocator(rule, n, seed=5)


@pytest.mark.parametrize("cell", [(1, 0), (-1, 2), (1, 2, 3), (1.0, 2), ("1", 2), ()], ids=repr)
@pytest.mark.parametrize("rule", ["greedy1", "greedy2", "greedy3", "rand", "miv", "miv-robust"])
def test_observe_refuses_a_pair_cell_that_is_not_two_ints(rule, cell):
    allocator = _allocator(rule, 3)
    allocator.observe([(1, 2), (1, 1), (0, 1)])
    before = _snapshot(allocator)
    with pytest.raises(DomainError) as observed:
        allocator.observe([(1, 3), cell, (0, 1)])
    assert str(observed.value) == f"non-exact valuation {cell!r}"
    assert _snapshot(allocator) == before


#: Integers past Python's 4,300-digit int-to-str limit, of either sign.
HUGE_INTS = st.integers(10**4400, 2 * 10**4400) | st.integers(-2 * 10**4400, -(10**4400))
#: Cells whose text is past that limit or long, and cells of every other kind.
WIDE_CELLS = st.one_of(
    HUGE_INTS, st.integers(-3, 3),
    st.builds(F, HUGE_INTS, st.integers(1, 9)), st.builds(F, st.integers(-9, 9), HUGE_INTS.map(abs)),
    st.tuples(HUGE_INTS, st.integers(-1, 9)), st.tuples(st.integers(-9, 9), st.just(0) | HUGE_INTS),
    st.floats(), st.text(max_size=3), st.integers(41, 5000).map("x".__mul__), st.none(),
)


@settings(max_examples=200, deadline=None)
@given(cell=WIDE_CELLS)
def test_a_cell_is_taken_or_refused_in_one_short_line(cell):
    """``instance_from_rows`` and ``observe`` share ``core``'s cell check: a
    cell is accepted, or refused with a ``FairdivError`` of one line whose
    quoted value is cut, never with a bare ``ValueError``."""
    for place in (lambda: instance_from_rows([[cell, 1], [1, 1]]),
                  lambda: Greedy1Allocator(2).observe([cell, 1]), lambda: MivAllocator(2).observe([cell, 1])):
        try:
            place()
        except FairdivError as exc:
            assert "\n" not in str(exc) and len(str(exc)) <= 120


@pytest.mark.parametrize("rule", ["greedy1", "greedy2", "greedy3", "rand", "miv", "miv-robust"])
def test_an_unreduced_pair_is_taken_as_its_value(rule):
    """(2, 4) places as 1/2 does: the same owners and the same values, in
    the state, the logs and the flags."""
    def values(allocator):
        seen = [allocator.total, allocator.bundle, allocator.best_outside, allocator.potential_log]
        return seen + [getattr(allocator, name, None) for name in ("phi", "seen_max")]

    as_pairs, as_values = _allocator(rule, 3), _allocator(rule, 3)
    columns = [[F(1, 2), F(1, 3), F(0)], [F(1), F(2, 5), F(3, 7)], [F(1, 2), F(1), F(1, 7)], [F(1, 4)] * 3]
    for column in columns:
        unreduced = [(2 * v.numerator, 2 * v.denominator) for v in column]
        assert as_pairs.observe(unreduced) == as_values.observe(column)
        assert values(as_pairs) == values(as_values)


#: Values in [0, 1] for the pair path: small and wide denominators, zeros and 1.
UNIT_VALUES = [F(0), F(1), F(1, 2), F(2, 3), F(3, 7), F(13, 191), F(97, 101), F(6, 7), F(1, 1000003)]


@st.composite
def pair_runs(draw):
    """(rule, instance, predictions or None, a factor per cell): each row a
    multiple of its agent's prediction (1 without one) by values in [0, 1],
    often with a good worth the prediction, and now and then a cell 3/2
    times over it, which breaks a cap."""
    rule = draw(st.sampled_from(["greedy1", "greedy2", "greedy3", "rand", "miv", "miv-robust"]))
    n, m = draw(st.integers(2, 4)), draw(st.integers(0, 30))
    pred = None
    if rule == "miv-robust":
        p = draw(st.lists(st.sampled_from([F(1), F(2), F(3, 7)]), min_size=n, max_size=n))
        pred = Predictions(tuple(p), draw(st.sampled_from([F(0), F(1, 4), F(1, 2)])))
    rows = []
    for i in range(n):
        cap = F(1) if pred is None else pred.p[i]
        row = [cap * draw(st.sampled_from(UNIT_VALUES)) for _ in range(m)]
        if m and draw(st.booleans()):
            row[draw(st.integers(0, m - 1))] = cap
        if m and draw(st.integers(0, 9)) == 0:
            row[draw(st.integers(0, m - 1))] = cap * F(3, 2)
        rows.append(row)
    factors = [[draw(st.sampled_from([1, 1, 2, 3, 10**20])) for _ in range(m)] for _ in range(n)]
    return rule, instance_from_rows(rows), pred, factors


def _pair_outcome(rule, pred, inst, columns):
    """What feeding ``columns`` (None: ``run`` on ``inst``) leaves: owners,
    running values, potentials and ``seen_max`` flags, or the
    class and text of the refusal and the goods placed before it."""
    allocator = make_allocator(rule, inst.n, seed=7) if pred is None else RobustifiedAllocator(inst.n, pred)
    recorder = TraceRecorder(allocator.state)
    try:
        if columns is None:
            trace = run(allocator, inst)
        else:
            for column in columns:
                recorder.record(allocator.observe(column))
            trace = recorder
            if allocator.potential_log is not None:
                trace.potential = tuple(allocator.potential_log)
    except PredictionContractError as exc:
        return type(exc), str(exc), allocator.state.t
    return trace.owners, running_values(trace), trace.potential, getattr(allocator, "seen_max", None)


class TestPairColumns:
    """``run`` hands ``observe`` the instance's own pairs; Fraction columns
    and unreduced pairs of the same values give the same run."""

    @settings(max_examples=250, deadline=None)
    @given(pair_runs())
    def test_run_matches_fraction_columns_and_unreduced_pairs(self, case):
        rule, inst, pred, factors = case
        if rule == "miv-robust":
            rule = "miv"
        fractions = list(zip(*inst.values))
        unreduced = [
            [(k * v.numerator, k * v.denominator) for v, k in zip(column, ks)]
            for column, ks in zip(fractions, zip(*factors))
        ]
        by_run = _pair_outcome(rule, pred, inst, None)
        assert by_run == _pair_outcome(rule, pred, inst, fractions)
        assert by_run == _pair_outcome(rule, pred, inst, unreduced)


def _contract_instance(rng, n, m, eps):
    """Random instance honoring the one-sided prediction contract."""
    rows, p = [], []
    for _ in range(n):
        pi = F(rng.randint(1, 6), rng.randint(1, 3))
        d = rng.randint(1, 10)
        vmax = pi * (1 - eps * F(rng.randint(0, d), d))
        row = [vmax * F(rng.randint(0, d), d) for _ in range(m)]
        row[rng.randrange(m)] = vmax
        rows.append(row)
        p.append(pi)
    return instance_from_rows(rows), Predictions(tuple(p), eps)


class TestScaleInvariance:
    def test_owner_sequences_survive_per_agent_rescaling(self):
        rng = random.Random(66)
        for factory in (
            Greedy1Allocator,
            Greedy2Allocator,
            Greedy3Allocator,
            MivAllocator,
        ):
            for _ in range(10):
                n = rng.choice([2, 3])
                m = rng.randint(1, 12)
                inst = random_instance(rng, n, m, force_unit_max=True)
                scale = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n)]
                scaled = instance_from_rows(
                    [[scale[i] * v for v in row] for i, row in enumerate(inst.values)]
                )
                if factory is MivAllocator:
                    # rescaling moves the unit maxima: feed through the wrapper
                    base = run(RobustifiedAllocator(n, perfect_predictions(n)), inst).owners
                    pred = Predictions(tuple(scale[i] * 1 for i in range(n)))
                    other = run(RobustifiedAllocator(n, pred), scaled).owners
                else:
                    base = run(factory(n), inst).owners
                    other = run(factory(n), scaled).owners
                assert base == other


class TestDeterminism:
    def test_repeated_runs_are_identical(self):
        rng = random.Random(77)
        inst = random_instance(rng, 3, 15, force_unit_max=True)
        for factory in (Greedy1Allocator, Greedy2Allocator, Greedy3Allocator, MivAllocator):
            first = run(factory(3), inst)
            second = run(factory(3), inst)
            assert first.owners == second.owners
            assert running_values(first) == running_values(second)

    def test_trace_alpha_matches_recomputation(self):
        rng = random.Random(88)
        inst = random_instance(rng, 2, 10)
        trace = run(Greedy2Allocator(2), inst)
        values = running_values(trace)
        for agent in (1, 2):
            for t in range(1, inst.m + 1):
                assert values[agent - 1][t - 1] == alpha_it(
                    inst, trace.owners, agent, t
                )

    def test_sizes_that_do_not_match_are_refused(self):
        inst = instance_from_rows([[F(1)], [F(1)]])
        refusals = [
            (lambda: run(make_allocator("greedy1", 3), inst), "allocator handles 3 agents, instance has 2"),
            (lambda: make_allocator("greedy1", 1), "need at least 2 agents"),
        ]
        for call, message in refusals:
            with pytest.raises(DomainError) as refused:
                call()
            assert str(refused.value) == message

    def test_empty_instance_gives_empty_trace(self):
        inst = instance_from_rows([[], []])
        trace = run(Greedy1Allocator(2), inst)
        assert trace.owners == []
        assert running_values(trace) == ((), ())
        assert prop1_ratio(inst, trace.allocation) == 1
