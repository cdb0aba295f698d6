import csv
import io
import os
import random
import threading
import time
from decimal import Decimal
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    DomainError,
    ParseError,
    RandAllocator,
    check_alpha_prop1,
    campaign,
    instance_from_rows,
    montecarlo_rand,
    rand_alpha_bound,
    run,
)
from fairdiv import adversaries, harness
from fairdiv.harness import (
    CAMPAIGN_COLUMNS,
    _owner_draw,
    campaign_csv,
    derive_trial_seed,
)

F = Fraction


def reference_failing_agents(inst, alpha, trials, seed):
    """Per trial, the agents that miss alpha-PROP1, counted the definition way:
    the trial through the allocator, then the exact check."""
    return [
        sum(not agent.satisfied for agent in check_alpha_prop1(
            inst, run(RandAllocator(inst.n, derive_trial_seed(seed, trial)), inst).allocation, alpha
        ).agents)
        for trial in range(trials)
    ]


@st.composite
def montecarlo_cases(draw):
    """(instance, delta, trials, seed) with n from 2 to 5 and each row all ones,
    all zeros, random with denominators up to 3 or 200, dominated by one good,
    or zero-heavy: zeros but for at most two random goods, so that the count
    that settles an agent is near m/n and many trials need the exact check."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(0, 10))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("ones", "zeros", "random", "dominant", "zero-heavy")))
        if kind in ("ones", "zeros"):
            rows.append([F(kind == "ones")] * m)
            continue
        values = st.fractions(0, 1, max_denominator=draw(st.sampled_from((3, 200))))
        row = draw(st.lists(values, min_size=m, max_size=m))
        if kind == "dominant" and m:
            row[draw(st.integers(0, m - 1))] = F(1000)
        if kind == "zero-heavy":
            kept = draw(st.sets(st.integers(0, m - 1), max_size=2)) if m else set()
            row = [v if j in kept else F(0) for j, v in enumerate(row)]
        rows.append(row)
    delta = draw(st.sampled_from((F(99, 100), F(9, 10), F(1, 2), F(1, 20))))
    return instance_from_rows(rows), delta, draw(st.integers(1, 40)), draw(st.integers(0, 2**32))


@st.composite
def failing_montecarlo_cases(draw):
    """Two agents with all-ones rows of 7 or 8 goods at delta 99/100: an agent
    fails exactly when it holds nothing, so a trial fails with probability 1/64
    or 1/128."""
    rows = [[F(1)] * draw(st.sampled_from((7, 8)))] * 2
    return instance_from_rows(rows), F(99, 100), draw(st.integers(100, 200)), draw(st.integers(0, 2**32))


@st.composite
def zero_padded_failing_cases(draw):
    """As ``failing_montecarlo_cases``, with one to four zeros anywhere in each
    row: an agent holding zeros but no one still fails, which a count threshold
    taken over the weights in row order would miss."""
    ones, zeros = draw(st.sampled_from((7, 8))), draw(st.integers(1, 4))
    rows = [draw(st.permutations([F(1)] * ones + [F(0)] * zeros)) for _ in range(2)]
    return instance_from_rows(rows), F(99, 100), draw(st.integers(100, 200)), draw(st.integers(0, 2**32))


class TestMonteCarlo:
    def test_reproducible_for_a_fixed_master_seed(self):
        inst = instance_from_rows([[F(1)] * 60] * 2)
        first = montecarlo_rand(inst, F(1, 20), 50, 99)
        second = montecarlo_rand(inst, F(1, 20), 50, 99)
        assert first == second
        third = montecarlo_rand(inst, F(1, 20), 50, 100)
        assert first.seed != third.seed

    def test_fast_loop_matches_the_reference_path(self):
        inst = instance_from_rows(
            [[F(1), F(1, 2), F(1, 3), F(2, 3), F(1)], [F(1), F(1), F(0), F(1, 5), F(1, 2)]]
        )
        fast = montecarlo_rand(inst, F(1, 5), 40, 7)
        # the reference route: each trial through the allocator and the exact check
        alpha = F(rand_alpha_bound(inst.n, F(1, 5)))
        failures = sum(
            not check_alpha_prop1(
                inst, run(RandAllocator(inst.n, derive_trial_seed(7, trial)), inst).allocation, alpha
            ).satisfied
            for trial in range(40)
        )
        assert fast.failures == failures
        assert fast.empirical_failure_rate == F(failures, 40)
        assert F(fast.alpha_used) == alpha

    def test_matches_the_reference_path_on_drawn_instances(self, monkeypatch):
        failures, shortcut, exact, bundle_only = [], [], [], []
        # an agent checked by its values calls compress on its bundle, then
        # compress and max on its outside goods unless the bundle passes alone
        calls, outside = [], []
        monkeypatch.setattr(harness, "compress", lambda *args: calls.append(1) or compress(*args))
        monkeypatch.setattr(harness, "max", lambda goods: outside.append(1) or max(goods), raising=False)

        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @given(st.one_of(montecarlo_cases(), failing_montecarlo_cases(), zero_padded_failing_cases()))
        def check(case):
            inst, delta, trials, seed = case
            calls.clear()
            outside.clear()
            report = montecarlo_rand(inst, delta, trials, seed)
            alpha = F(rand_alpha_bound(inst.n, delta))
            assert report.failures == sum(map(bool, reference_failing_agents(inst, alpha, trials, seed)))
            failures.append(report.failures)
            # each passing trial checks all n agents, each by count or with compress
            shortcut.append(len(calls) < (trials - report.failures) * inst.n)
            exact.append(bool(calls))
            bundle_only.append(len(calls) > 2 * len(outside))

        check()
        assert any(failures), "no drawn instance failed, so the failure path went untested"
        assert any(shortcut), "no agent passed on its count of goods"
        assert any(exact), "no agent needed the exact check"
        assert any(bundle_only), "no agent below its count passed on its bundle alone"

    def test_a_trial_counts_once_however_many_agents_fail(self, monkeypatch):
        # at the guaranteed factor two agents almost never fail in the same
        # trial, so this runs the loop at factor 1, where they often do
        monkeypatch.setattr(harness, "rand_alpha_bound", lambda n, delta: Decimal(1))
        inst = instance_from_rows([[F(1)] * 10] * 3)
        report = montecarlo_rand(inst, F(1, 20), 60, 3)
        failing_agents = reference_failing_agents(inst, F(1), 60, 3)
        assert report.failures == sum(map(bool, failing_agents))
        assert max(failing_agents) > 1

    @pytest.mark.parametrize("m", [0, 1, 200, 1000])
    def test_owner_draw_is_cpythons_randrange(self, m):
        """The batched draw rests on how CPython implements ``randrange``, which
        the ``random`` docs do not promise; a Python that changes it fails here.
        Every n from 2 to 255, including n = 2 and n = 129, where about half the
        32-bit words are rejected."""
        for n in range(2, 256):
            for seed in (0, 1):
                rng = random.Random(seed)
                expected = bytes(rng.randrange(n) for _ in range(m))
                assert _owner_draw(n, m)(random.Random(seed)) == expected, (n, seed)

    def test_owner_draw_when_one_call_falls_short(self):
        class Counting(random.Random):
            calls = 0

            def getrandbits(self, k):
                self.calls += 1
                return super().getrandbits(k)

        calls = []
        for n in (2, 129):
            draw = _owner_draw(n, 30)
            for seed in range(500):
                rng = random.Random(seed)
                expected = bytes(rng.randrange(n) for _ in range(30))
                counting = Counting(seed)
                assert draw(counting) == expected, (n, seed)
                calls.append(counting.calls)
        assert max(calls) > 1, "no draw needed a second call"

    def test_more_than_255_agents_is_refused_before_any_trial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a trial ran")

        wide = instance_from_rows([[F(1)] * 3] * 256)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "derive_trial_seed", refuse)
            with pytest.raises(DomainError) as refused:
                montecarlo_rand(wide, F(1, 20), 5, 1)
            assert str(refused.value) == "montecarlo takes at most 255 agents, got 256"
            with pytest.raises(DomainError, match="need at least one trial"):
                montecarlo_rand(wide, F(1, 20), 0, 1)
        report = montecarlo_rand(instance_from_rows([[F(1)] * 3] * 255), F(1, 20), 3, 1)
        assert report.trials == 3 and report.n == 255

    def test_witness_good_instance_never_fails(self):
        # one good already worth the whole guarantee to both agents
        inst = instance_from_rows([[F(1)] + [F(1, 1000)] * 30] * 2)
        report = montecarlo_rand(inst, F(1, 20), 300, 5)
        assert report.failures == 0

    def test_single_trial_report_is_well_formed(self):
        inst = instance_from_rows([[F(1)] * 10] * 2)
        report = montecarlo_rand(inst, F(1, 20), 1, 0)
        assert report.trials == 1
        assert report.empirical_failure_rate in (F(0), F(1))
        assert report.instance["n"] == 2 and report.instance["m"] == 10

    def test_trial_seeds_are_stable(self):
        assert derive_trial_seed(12345, 0) == derive_trial_seed(12345, 0)
        assert derive_trial_seed(12345, 0) != derive_trial_seed(12345, 1)

    def test_needs_at_least_one_trial(self):
        with pytest.raises(DomainError):
            montecarlo_rand(instance_from_rows([[F(1)] * 3] * 2), F(1, 20), 0, 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"), reason="needs os.fork")
class TestSplitTrials:
    """``montecarlo_rand`` forced to split its trials into k parts: k CPUs,
    and a ``WORK_PER_PROCESS`` of one trial on one good."""

    @pytest.fixture
    def split(self, monkeypatch):
        forks, fork = [], os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        def force(parts):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
            monkeypatch.setattr(harness, "WORK_PER_PROCESS", 1)
            forks.clear()
            return forks

        monkeypatch.setattr(os, "fork", counting_fork)
        return force

    @staticmethod
    def serial(monkeypatch, *args):
        with monkeypatch.context() as patch:
            patch.setattr(harness, "WORK_PER_PROCESS", 2**64)
            return montecarlo_rand(*args)

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_each_split_gives_the_serial_report(self, parts, split, monkeypatch):
        failures = []

        @settings(max_examples=12, deadline=None, derandomize=True, database=None)
        @given(st.one_of(failing_montecarlo_cases(), zero_padded_failing_cases()))
        def check(case):
            inst, delta, trials, seed = case
            forks = split(parts)
            report = montecarlo_rand(inst, delta, trials, seed)
            assert len(forks) == parts - 1
            assert_no_child_left()
            alpha = F(rand_alpha_bound(inst.n, delta))
            assert report.failures == sum(map(bool, reference_failing_agents(inst, alpha, trials, seed)))
            assert report == self.serial(monkeypatch, inst, delta, trials, seed)
            failures.append(report.failures)

        check()
        assert any(failures), "no drawn instance failed, so no child counted a failure"
        # at factor 1 most trials fail, so a trial counted twice or missed at a range's end shows
        monkeypatch.setattr(harness, "rand_alpha_bound", lambda n, delta: Decimal(1))
        inst = instance_from_rows([[F(1)] * 10] * 3)
        for trials in range(1, 30):
            split(parts)
            report = montecarlo_rand(inst, F(1, 20), trials, trials)
            assert report.failures == sum(map(bool, reference_failing_agents(inst, F(1), trials, trials)))
            assert report == self.serial(monkeypatch, inst, F(1, 20), trials, trials)
        assert_no_child_left()

    def test_no_more_parts_than_trials(self, split):
        inst = instance_from_rows([[F(1)] * 7] * 2)
        forks = split(4)
        report = montecarlo_rand(inst, F(99, 100), 2, 5)
        assert len(forks) == 1 and report.trials == 2
        assert_no_child_left()

    def test_the_work_sets_the_parts(self, split, monkeypatch):
        split(4)
        monkeypatch.setattr(harness, "WORK_PER_PROCESS", 40_000)
        assert harness._parts(1, 200) == harness._parts(399, 200) == 1
        assert harness._parts(400, 200) == 2 and harness._parts(1500, 200) == 4

    def test_one_process_without_fork_or_beside_another_thread(self, split, monkeypatch):
        split(4)
        assert harness._parts(1500, 200) == 4
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert harness._parts(1500, 200) == 1
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        monkeypatch.delattr(os, "fork")
        assert harness._parts(1500, 200) == 1

    @pytest.mark.parametrize("code", [3, 0])
    def test_a_range_whose_child_fails_or_writes_nothing_is_counted_here(self, code, split, monkeypatch):
        monkeypatch.setattr(harness, "rand_alpha_bound", lambda n, delta: Decimal(1))
        inst = instance_from_rows([[F(1)] * 10] * 3)
        expected = self.serial(monkeypatch, inst, F(1, 20), 300, 8)
        parent = os.getpid()

        def dying(master_seed, index):
            if os.getpid() != parent:
                os._exit(code)
            return derive_trial_seed(master_seed, index)

        forks = split(3)
        monkeypatch.setattr(harness, "derive_trial_seed", dying)
        assert montecarlo_rand(inst, F(1, 20), 300, 8) == expected
        assert len(forks) == 2
        assert_no_child_left()

    def test_a_range_whose_child_cannot_start_is_counted_here(self, split, monkeypatch):
        monkeypatch.setattr(harness, "rand_alpha_bound", lambda n, delta: Decimal(1))
        inst = instance_from_rows([[F(1)] * 10] * 3)
        expected = self.serial(monkeypatch, inst, F(1, 20), 300, 8)
        split(4)
        calls, fork = [], os.fork

        def second_fails():
            calls.append(1)
            if len(calls) == 2:
                raise BlockingIOError("no process to spare")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        assert montecarlo_rand(inst, F(1, 20), 300, 8) == expected
        assert len(calls) == 3
        assert_no_child_left()

    def test_a_raise_here_kills_and_reaps_every_child(self, split, monkeypatch):
        parent = os.getpid()

        def stuck_or_raising(master_seed, index):
            if os.getpid() != parent:
                time.sleep(60)  # a child still counting when the parent's range raises
            raise RuntimeError("trial refused")

        forks = split(3)
        monkeypatch.setattr(harness, "derive_trial_seed", stuck_or_raising)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="trial refused"):
            montecarlo_rand(instance_from_rows([[F(1)] * 7] * 2), F(99, 100), 300, 8)
        assert time.perf_counter() - started < 30
        assert len(forks) == 2
        assert_no_child_left()

    def test_a_raise_just_after_a_reap_still_kills_and_reaps_the_rest(self, split, monkeypatch):
        parent, waitpid, reaped = os.getpid(), os.waitpid, []

        def slow_in_the_middle_range(master_seed, index):
            if os.getpid() != parent and index < 200:
                time.sleep(60)  # the first child, still counting when the raise comes
            return derive_trial_seed(master_seed, index)

        def raising_after_the_first_reap(pid, flags):
            status = waitpid(pid, flags)
            if flags == 0 and not reaped:
                reaped.append(pid)
                raise RuntimeError("interrupted after a reap")
            return status

        forks = split(3)
        monkeypatch.setattr(harness, "derive_trial_seed", slow_in_the_middle_range)
        monkeypatch.setattr(os, "waitpid", raising_after_the_first_reap)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="interrupted after a reap"):
            montecarlo_rand(instance_from_rows([[F(1)] * 7] * 2), F(99, 100), 300, 8)
        assert time.perf_counter() - started < 30
        assert len(forks) == 2 and len(reaped) == 1
        assert_no_child_left()


class TestCampaign:
    def test_empty_config_gives_header_only_csv(self):
        text = campaign_csv(campaign([]))
        assert text.strip() == ",".join(CAMPAIGN_COLUMNS)

    def test_greedy1_sweep_rows(self, tmp_path):
        items = [
            {"construction": "greedy1", "n": 2, "alpha": alpha}
            for alpha in ("1/2", "1/4", "1/10")
        ]
        rows = campaign(items)
        assert len(rows) == 3
        for row in rows:
            assert row["ratio_below_target"] == "true"
            assert row["assertions_passed"] == "true"

    def test_impossibility_row_shows_the_separation(self):
        rows = campaign(
            [
                {
                    "construction": "miv-impossibility",
                    "n": 2,
                    "alpha": "1/2",
                    "allocator": "miv",
                    "notion": "ef1",
                }
            ]
        )
        (row,) = rows
        assert row["prop1_at_inv_n"] == "true"
        assert row["alpha_ef1"] == "false"
        assert row["alpha_mms"] == "false"
        assert row["alpha_propx"] == "false"
        assert row["assertions_passed"] == "true"

    def test_the_notion_is_only_a_label(self):
        base = {"construction": "miv-impossibility", "n": 2, "alpha": "1/3"}
        rows = campaign([base] + [dict(base, notion=notion) for notion in harness.NOTIONS])
        assert [row["notion"] for row in rows] == ["ef1", "ef1", "mms", "propx"]
        assert len({tuple((k, v) for k, v in row.items() if k != "notion") for row in rows}) == 1

    def test_greedy3_row(self):
        (row,) = campaign(
            [{"construction": "greedy3", "n": 2, "alpha": "1/2", "max_steps": 100000}]
        )
        assert row["ratio_below_target"] == "true"
        assert int(row["steps"]) > 3

    def test_greedy3_budget_shortfall_is_not_an_invariant_breach(self):
        (row,) = campaign(
            [{"construction": "greedy3", "n": 2, "alpha": "1/10", "max_steps": 20}]
        )
        assert row["ratio_below_target"] == "false"
        assert row["assertions_passed"] == "true"

    def test_csv_round_trip(self):
        rows = campaign(
            [
                {"construction": "greedy2", "n": 2, "alpha": "1/4"},
                {"construction": "greedy1", "n": 3, "alpha": "1/2", "repetitions": 2},
            ]
        )
        text = campaign_csv(rows)
        assert list(csv.DictReader(io.StringIO(text, newline=""))) == rows

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"construction": "greedy3", "alpha": "3/4"}, "target 3/4 infeasible"),
            ({"construction": "greedy3", "alpha": "1/4", "max_steps": 3}, "step budget"),
            ({"construction": "greedy2", "n": 1, "alpha": "1/4"}, "at least 2 agents"),
            ({"construction": "miv-impossibility", "alpha": "0"}, "outside"),
            ({"construction": "miv-impossibility", "alpha": "1/2", "allocator": "nope"},
             "unknown allocator"),
            ({"construction": "miv-impossibility", "alpha": "1/2", "allocator": "rand"},
             "needs a seed"),
            ({"construction": "greedy1", "alpha": "1/2", "notion": "ef1"}, "no fairness notion"),
            ({"construction": "miv-impossibility", "alpha": "1/2", "notion": "efx"},
             "unknown fairness notion 'efx'"),
            ({"construction": "greedy1", "alpha": "1/100000000"}, "over the step budget"),
            ({"construction": "greedy1", "alpha": "1/2", "n": "x"}, "must be an integer"),
            ({"construction": "nope", "alpha": "1/2", "repetitions": 0}, "unknown construction"),
            ({"construction": ["greedy1"], "alpha": "1/2"}, r"unknown construction \['greedy1'\]"),
            ({"construction": {}, "alpha": "1/2"}, "unknown construction {}"),
        ],
        ids=["greedy3-target", "greedy3-budget", "one-agent", "zero-alpha", "unknown-allocator",
             "rand-no-seed", "greedy-notion", "unknown-notion", "huge-horizon",
             "n-text", "no-repetitions", "construction-list", "construction-object"],
    )
    def test_a_bad_row_fails_before_any_row_runs(self, bad, message, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a row ran before every row was checked")

        monkeypatch.setattr(adversaries, "run_construction", refuse)
        with pytest.raises((DomainError, ParseError), match=message):
            campaign([{"construction": "greedy1", "n": 2, "alpha": "1/4"}, bad])

    def test_unknown_construction_rejected(self):
        with pytest.raises(DomainError):
            campaign([{"construction": "nope", "alpha": "1/2"}])

    def test_integer_fields_accept_integer_text(self):
        rows = campaign(
            [{"construction": "greedy1", "n": "3", "alpha": "1/2", "repetitions": "2",
              "max_steps": "100"}]
        )
        assert [(row["n"], row["repetition"]) for row in rows] == [("3", "0"), ("3", "1")]
        assert campaign([{"construction": "greedy1", "alpha": "1/2", "repetitions": 0}]) == []

    @pytest.mark.parametrize("construction, alpha, allocator, notion", [
        ("greedy1", "1/4", "greedy1", ""), ("greedy2", "1/4", "greedy2", ""),
        ("greedy3", "1/2", "greedy3", ""), ("miv-impossibility", "1/2", "miv", "ef1"),
    ])
    def test_a_failed_replay_keeps_only_the_identifying_cells(self, construction, alpha, allocator, notion,
                                                              monkeypatch):
        replay = adversaries.prop1_ratio
        monkeypatch.setattr(adversaries, "prop1_ratio", lambda inst, alloc: replay(inst, alloc) + 1)
        (row,) = campaign([{"construction": construction, "n": 2, "alpha": alpha}])
        kept = {"construction": construction, "allocator": allocator, "n": "2", "alpha": alpha,
                "notion": notion, "repetition": "0", "assertions_passed": "false"}
        assert row == {column: kept.get(column, "") for column in CAMPAIGN_COLUMNS}
