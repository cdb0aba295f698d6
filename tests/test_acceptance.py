"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  All fairness assertions are exact rational arithmetic with zero
tolerance; the only numeric thresholds are the stated runtime budgets and the
30-significant-digit precision of the transcendental tail bounds.
"""

import random
import time
from fractions import Fraction

import pytest

from fairdiv import (
    Greedy1Allocator,
    Greedy2Allocator,
    Greedy3Allocator,
    Greedy3Adversary,
    MivAllocator,
    MivImpossibilityAdversary,
    Predictions,
    RandAllocator,
    RobustifiedAllocator,
    check_alpha_ef1,
    check_alpha_mms,
    check_alpha_propx,
    check_alpha_prop1,
    best_allocation_search,
    instance_from_rows,
    mms_exact,
    montecarlo_rand,
    prop1_ratio,
    rand_tail_certificate,
    run,
    run_adaptive,
    run_construction,
)
from conftest import (
    all_allocations,
    random_instance,
    robust_beta,
    running_values,
    total_value,
    verify_greedy1_failure,
    verify_greedy2_failure,
)

F = Fraction


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def potential_rule_runs():
    """1,000 random perfect-prediction runs shared by criteria 1 and 2."""
    rng = random.Random(20250810)
    runs = []
    started = time.perf_counter()
    for _ in range(1000):
        n = rng.choice([2, 3, 4, 5])
        m = rng.randint(1, 40)
        inst = random_instance(rng, n, m, max_denominator=12, force_unit_max=True)
        trace = run(MivAllocator(n), inst)
        satisfied = check_alpha_prop1(inst, trace.allocation, F(1, n)).satisfied
        runs.append((n, satisfied, trace.potential))
    return runs, time.perf_counter() - started


def test_criterion_1_potential_rule_exactness(potential_rule_runs):
    """1,000 random perfect-prediction instances meet 1/n-PROP1 exactly."""
    runs, elapsed = potential_rule_runs
    failures = sum(1 for _, satisfied, _ in runs if not satisfied)
    assert failures == 0
    assert elapsed <= 60
    _report("criterion 1", f"1000/1000 runs 1/n-PROP1 exact ({elapsed:.1f}s)")


def test_criterion_2_potential_invariants(potential_rule_runs):
    """Starting potential 1/(n+1); never increases.  The per-step term and
    substitution-variable invariants are asserted inside the allocator on
    every step and would have raised during criterion 1's runs."""
    runs, _ = potential_rule_runs
    for n, _, log in runs:
        assert log[0] == F(1, n + 1)
        assert all(later <= earlier for earlier, later in zip(log, log[1:]))
        assert all(value <= F(1, n + 1) for value in log)
    _report("criterion 2", f"potential invariants exact on all {len(runs)} runs")


def test_criterion_3_greedy_failures():
    """Each adversary drives its greedy rule below the target ratio, with
    every forced-choice assertion and the harmonic certificate checked."""
    started = time.perf_counter()
    for n in (2, 3):
        for alpha in (F(1, 2), F(1, 4), F(1, 10)):
            for construction, verify in (("greedy1", verify_greedy1_failure),
                                         ("greedy2", verify_greedy2_failure)):
                trace = run_construction(construction, n, alpha).trace
                verify(trace, alpha)
                assert prop1_ratio(trace.instance, trace.allocation) < alpha

    cycle_counts = []
    for alpha in (F(3, 5), F(1, 2), F(2, 5)):
        adversary = Greedy3Adversary(alpha, max_steps=10**6, n=2)
        result = run_adaptive(adversary, Greedy3Allocator(2))
        assert result.target_reached
        assert result.achieved_ratio < alpha
        # re-derive the harmonic certificate for the final cycle count
        k = adversary.cycles
        rhs = F(3, 2) + sum((F(1, 2 * (s + 2)) for s in range(1, k + 1)), F(0))
        min_alpha = min(row[-1] for row in running_values(result.trace))
        assert 1 / min_alpha >= rhs
        cycle_counts.append((str(alpha), k, result.trace.instance.m))
    elapsed = time.perf_counter() - started
    assert elapsed <= 120
    _report(
        "criterion 3",
        f"greedy 1/2 fail on 12 targets; greedy 3 cycles {cycle_counts} ({elapsed:.1f}s)",
    )


def test_criterion_4_impossibility_separation():
    """The prediction-honest adversary defeats EF1, MMS and PROPX for every
    allocator, while the potential rule still delivers 1/n-PROP1."""
    started = time.perf_counter()
    checked = 0
    for n in (2, 3):
        for alpha in (F(1, 2), F(1, 3)):
            for factory in (MivAllocator, Greedy1Allocator):
                adversary = MivImpossibilityAdversary(n, alpha)
                result = run_adaptive(adversary, factory(n))
                inst, alloc = result.trace.instance, result.trace.allocation
                assert not check_alpha_ef1(inst, alloc, alpha).satisfied
                assert not check_alpha_mms(inst, alloc, alpha).satisfied
                assert not check_alpha_propx(inst, alloc, alpha).satisfied
                if factory is MivAllocator:
                    assert check_alpha_prop1(inst, alloc, F(1, n)).satisfied
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed <= 60
    _report("criterion 4", f"{checked} runs violate EF1+MMS+PROPX; potential rule stays 1/n-PROP1 ({elapsed:.1f}s)")


def test_criterion_5_rand_tail_guarantee():
    """Monte Carlo failure rates stay within delta for the guaranteed factor."""
    started = time.perf_counter()
    outcomes = []
    for n, delta in ((2, F(1, 20)), (4, F(1, 10))):
        inst = instance_from_rows([[F(1)] * 1000] * n)
        report = montecarlo_rand(inst, delta, trials=2000, master_seed=12345)
        assert report.empirical_failure_rate <= delta
        outcomes.append((n, str(delta), report.failures))
    elapsed = time.perf_counter() - started
    assert elapsed <= 120
    _report("criterion 5", f"failure counts {outcomes} over 2000 trials each ({elapsed:.1f}s)")


def test_criterion_6_bernstein_chain():
    """The instantiated tail bound stays below delta/n across the grid, at 30
    significant digits with conservative rounding."""
    for n in range(2, 11):
        for delta in (F(1, 100), F(1, 20), F(1, 10)):
            tail, threshold, holds = rand_tail_certificate(n, delta)
            assert holds, (n, delta, tail)
    _report("criterion 6", "tail <= delta/n on n in 2..10 x delta in {0.01, 0.05, 0.1}")


def test_criterion_7_error_wrapper():
    """Wrapped runs stay beta-PROP1 exactly under one-sided error; zero error
    reproduces the unwrapped trace."""
    rng = random.Random(424242)
    started = time.perf_counter()
    epsilons = [F(0), F(1, 10), F(1, 4), F(1, 2)]
    identical = 0
    for index in range(500):
        eps = epsilons[index % 4]
        n = rng.choice([2, 3, 4])
        m = rng.randint(1, 30)
        inst, pred = _contract_instance(rng, n, m, eps)
        wrapped = RobustifiedAllocator(n, pred)
        trace = run(wrapped, inst)
        beta = robust_beta(F(1, n), eps, n)
        assert beta == (1 - eps) / (n - eps / F(n))
        assert check_alpha_prop1(inst, trace.allocation, beta).satisfied
        if eps == 0:
            normalized = instance_from_rows(
                [[v / pred.p[i] for v in row] for i, row in enumerate(inst.values)]
            )
            direct = run(MivAllocator(n), normalized)
            assert direct.owners == trace.owners
            identical += 1
    elapsed = time.perf_counter() - started
    _report(
        "criterion 7",
        f"500 wrapped runs beta-PROP1 exact; {identical} zero-error traces identical ({elapsed:.1f}s)",
    )


def _contract_instance(rng, n, m, eps):
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


def test_criterion_8_oracle_consistency():
    """The offline optimum dominates every online rule, the maximin share
    respects its proportional cap, and the implication structure holds on
    enumerated allocations."""
    rng = random.Random(31337)
    started = time.perf_counter()
    for index in range(200):
        m = rng.randint(1, 12)
        inst = random_instance(rng, 2, m, force_unit_max=True)
        _, best = best_allocation_search(inst)
        for factory in (Greedy1Allocator, Greedy2Allocator, Greedy3Allocator, MivAllocator):
            trace = run(factory(2), inst)
            assert prop1_ratio(inst, trace.allocation) <= best
        trace = run(RandAllocator(2, seed=index), inst)
        assert prop1_ratio(inst, trace.allocation) <= best
        for agent in (1, 2):
            assert mms_exact(inst, agent) * 2 <= total_value(inst, agent)

    for _ in range(50):
        m = rng.randint(1, 5)
        inst = random_instance(rng, 2, m)
        for alloc in all_allocations(2, m):
            prop1_ok = check_alpha_prop1(inst, alloc, F(1)).satisfied
            if check_alpha_ef1(inst, alloc, F(1)).satisfied:
                assert prop1_ok
            if check_alpha_propx(inst, alloc, F(1)).satisfied:
                assert prop1_ok
    elapsed = time.perf_counter() - started
    _report(
        "criterion 8",
        f"offline optimum dominates 5 rules on 200 instances; implications hold ({elapsed:.1f}s)",
    )
