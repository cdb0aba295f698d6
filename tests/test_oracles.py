import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    BernsteinParams,
    DomainError,
    Greedy1Allocator,
    Greedy2Allocator,
    Greedy3Allocator,
    InstanceTooLargeError,
    analytic_moments,
    bernstein_tail,
    best_allocation_search,
    instance_from_rows,
    prop1_ratio,
    rand_alpha_bound,
    rand_tail_certificate,
    run,
)
from fairdiv.oracles import small_goods_variance_bound
from conftest import random_instance

F = Fraction


class TestRandAlphaBound:
    def test_frozen_reference_value(self):
        # 27 / (128 ln 40), thirty significant digits, rounded down
        assert str(rand_alpha_bound(2, F(1, 20))) == "0.0571819986594457294735521264492"

    def test_agrees_with_an_independent_float_evaluation(self):
        import math

        for n in (2, 3, 7):
            for delta in (F(1, 100), F(1, 20), F(1, 10)):
                exact = Decimal(str(rand_alpha_bound(n, delta)))
                rough = 27 / (128 * math.log(n / float(delta)))
                assert abs(float(exact) - rough) < 1e-12

    def test_never_exceeds_one_quarter_where_the_derivation_applies(self):
        # the chain needs ln(n/delta) >= 27/32; that holds throughout the
        # grid below, and then the factor stays at or below 1/4
        threshold = Decimal(27) / Decimal(32)
        for n in range(2, 11):
            for delta in (F(1, 100), F(1, 20), F(1, 10)):
                ratio = F(n) / delta
                assert (Decimal(ratio.numerator) / Decimal(ratio.denominator)).ln() >= threshold
                assert rand_alpha_bound(n, delta) <= F(1, 4)

    def test_monotone_in_both_parameters(self):
        deltas = [F(1, 100), F(1, 20), F(1, 10), F(1, 4)]
        for delta in deltas:
            values = [rand_alpha_bound(n, delta) for n in range(2, 8)]
            assert values == sorted(values, reverse=True)
        for n in (2, 5):
            values = [rand_alpha_bound(n, d) for d in deltas]
            assert values == sorted(values)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            rand_alpha_bound(1, F(1, 2))
        with pytest.raises(DomainError):
            rand_alpha_bound(2, F(0))
        with pytest.raises(DomainError):
            rand_alpha_bound(2, F(1))


class TestBernsteinTail:
    def test_small_deviation_gives_a_bound_near_one(self):
        params = BernsteinParams(F(1), F(1), F(1, 10**9), F(0))
        assert F(bernstein_tail(params)) > F(999999, 1000000)

    def test_certificate_grid(self):
        for n in range(2, 11):
            for delta in (F(1, 100), F(1, 20), F(1, 10)):
                tail, threshold, holds = rand_tail_certificate(n, delta)
                assert holds
                assert F(tail) <= threshold

    def test_larger_variance_weakens_the_bound(self):
        base = BernsteinParams(F(1, 4), F(1, 2), F(1), F(0))
        wide = BernsteinParams(F(1, 2), F(1, 2), F(1), F(0))
        assert bernstein_tail(wide) > bernstein_tail(base)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            bernstein_tail(BernsteinParams(F(1), F(0), F(1), F(0)))
        with pytest.raises(DomainError):
            bernstein_tail(BernsteinParams(F(1), F(1), F(0), F(0)))

    def test_proof_parameters_recomputable(self):
        params = BernsteinParams.from_small_goods(2, F(1, 4), F(8))
        assert params.variance_bound == F(1, 4) * 64 / 4
        assert params.term_bound == F(1)
        assert params.deviation == F(3)
        assert params.mean == F(4)


class TestAnalyticMoments:
    def test_two_unit_goods(self):
        inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
        moments = analytic_moments(inst, 1)
        assert moments.mean == 1
        assert moments.variance == F(1, 2)

    def test_zero_row(self):
        inst = instance_from_rows([[F(0), F(0)], [F(1), F(1)]])
        assert analytic_moments(inst, 1) == analytic_moments(inst, 1)
        assert analytic_moments(inst, 1).mean == 0
        assert analytic_moments(inst, 1).variance == 0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mean_identity(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        inst = random_instance(rng, rng.randint(2, 4), rng.randint(0, 8))
        for agent in range(1, inst.n + 1):
            mean = analytic_moments(inst, agent).mean
            assert mean == F(inst.n - 1, inst.n) * inst.total_value(agent)

    def test_small_goods_premise_implies_the_variance_bound(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 3), rng.randint(1, 8))
            alpha = F(rng.randint(1, 8), 8)
            for agent in range(1, inst.n + 1):
                verdict = small_goods_variance_bound(inst, agent, alpha)
                if verdict is not None:
                    assert verdict
                    checked += 1
        assert checked > 0


class TestBestAllocationSearch:
    def test_symmetric_pair_has_a_perfect_split(self):
        inst = instance_from_rows([[F(1), F(1)], [F(1), F(1)]])
        _, ratio = best_allocation_search(inst)
        assert ratio == 1

    def test_empty_instance(self):
        inst = instance_from_rows([[], []])
        alloc, ratio = best_allocation_search(inst)
        assert alloc.owner == () and ratio == 1

    def test_offline_optimum_beats_online_rules_on_the_starving_instance(self):
        from fairdiv import greedy1_adversary

        inst = greedy1_adversary(2, F(1, 2))
        best_alloc, best = best_allocation_search(inst)
        online = prop1_ratio(inst, run(Greedy1Allocator(2), inst).allocation)
        assert online < F(1, 2)
        assert best == 1  # offline, an even split satisfies both agents
        assert best == prop1_ratio(inst, best_alloc)

    def test_two_agent_search_returns_the_first_maximizer(self):
        from itertools import product

        from fairdiv import Allocation

        rng = random.Random(23)
        for _ in range(25):
            inst = random_instance(rng, 2, rng.randint(1, 7))
            ratios = {
                owners: prop1_ratio(inst, Allocation(owners))
                for owners in product((1, 2), repeat=inst.m)
            }
            best = max(ratios.values())
            first = next(owners for owners, ratio in ratios.items() if ratio == best)
            alloc, ratio = best_allocation_search(inst)
            assert (alloc.owner, ratio) == (first, best)

    def test_dominates_every_online_rule(self):
        rng = random.Random(29)
        for _ in range(15):
            inst = random_instance(rng, 2, rng.randint(1, 8))
            _, best = best_allocation_search(inst)
            for factory in (Greedy1Allocator, Greedy2Allocator, Greedy3Allocator):
                trace = run(factory(2), inst)
                assert prop1_ratio(inst, trace.allocation) <= best

    def test_size_guard(self):
        inst = instance_from_rows([[F(1)] * 24] * 2)
        with pytest.raises(InstanceTooLargeError):
            best_allocation_search(inst)

    def test_three_agent_generic_path(self):
        inst = instance_from_rows([[F(1), F(2), F(3)], [F(3), F(2), F(1)], [F(1), F(1), F(1)]])
        alloc, ratio = best_allocation_search(inst)
        assert ratio == prop1_ratio(inst, alloc)
        assert ratio == 1  # giving each agent one good is PROP1 here
