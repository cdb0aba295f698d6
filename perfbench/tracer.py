"""Span tracing of fairdiv's public functions, installed from outside.

``Tracer.install()`` replaces each traced function at every place it is
bound: ``cli``, ``harness`` and ``adversaries`` import names such as
``run``, ``load_instance``, ``prop1_ratio`` and ``check_alpha_*`` directly,
so a wrapper on the defining module alone would miss those calls.  Methods
(``observe``, ``record``, ``next_column``) are wrapped on their classes.
``uninstall()`` puts every original back.  Untraced benchmark runs never
import this module.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
once at the end.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

#: Per-layer metrics, in the order BENCHMARK.json lists them.
RULES = ("miv", "miv_robust", "greedy1", "greedy2", "greedy3", "rand")
PER_LAYER = (
    ("core.load.calls", "count"),
    ("core.load.self_s", "s"),
    ("core.load.cells_per_s", "1/s"),
    ("core.instance_to_json.self_s", "s"),
    ("algorithms.observe.calls", "count"),
    *((f"algorithms.observe_us.{rule}", "us") for rule in RULES),
    ("algorithms.record_us", "us"),
    ("algorithms.state_den_bits.max", "bits"),
    ("metrics.prop1_ratio.self_s", "s"),
    ("metrics.check_prop1.self_s", "s"),
    ("metrics.check_ef1.self_s", "s"),
    ("metrics.check_propx.self_s", "s"),
    ("metrics.mms_exact.calls", "count"),
    ("metrics.mms_exact.self_s", "s"),
    ("adversaries.steps", "count"),
    ("adversaries.next_column_us", "us"),
    ("adversaries.greedy3.cycles", "count"),
    ("adversaries.steps_per_s", "1/s"),
    ("oracles.best_alloc.calls", "count"),
    ("oracles.best_alloc.self_s", "s"),
    ("oracles.bounds.self_s", "s"),
    ("harness.montecarlo.trials_per_s", "1/s"),
    ("harness.campaign.row_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


def state_den_bits(allocator) -> int:
    """Bits of the largest denominator in an allocator's exact state."""
    bits = 0
    for state in (allocator, getattr(allocator, "inner", None)):
        if state is None:
            continue
        values = [*getattr(state, "total", ()), *getattr(state, "bundle", ()),
                  *getattr(state, "best_outside", ()), *getattr(state, "phi", ())]
        if getattr(state, "potential", None) is not None:
            values.append(state.potential)
        bits = max([bits, *(v.denominator.bit_length() for v in values)])
    return bits


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.den_bits = 0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        """``name`` is a string or a function of (args, parent span name)."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            label = name if isinstance(name, str) else name(args, spans[parent][0] if parent >= 0 else "")
            span = [label, 0.0, 0.0, parent]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        traced = self._wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fairdiv" or mod_name.startswith("fairdiv.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def _method(self, cls, attr: str, name, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name, after))
        self._undo.append((cls, attr, original))

    def install(self) -> None:
        from fairdiv import adversaries, algorithms, cli, core, harness, metrics, oracles

        rule_of = {
            algorithms.MivAllocator: "miv",
            algorithms.Greedy1Allocator: "greedy1",
            algorithms.Greedy2Allocator: "greedy2",
            algorithms.Greedy3Allocator: "greedy3",
            algorithms.RandAllocator: "rand",
        }
        count = self.counts

        def after_load(args, inst):
            count["cells"] += inst.n * inst.m

        def after_run(args, trace):
            self.den_bits = max(self.den_bits, state_den_bits(args[0]))

        def after_run_adaptive(args, result):
            adversary, allocator = args
            self.den_bits = max(self.den_bits, state_den_bits(allocator))
            if isinstance(adversary, adversaries.Greedy3Adversary):
                count["cycles"] += adversary.cycles

        def after_next_column(args, column):
            count["steps"] += column is not None

        def after_montecarlo(args, report):
            count["trials"] += report.trials

        def after_campaign(args, rows):
            count["campaign_rows"] += len(rows)

        def observe_name(args, parent):
            if parent == "algorithms.observe.miv_robust":
                return "algorithms.observe.inner"
            return "algorithms.observe." + rule_of.get(type(args[0]), type(args[0]).__name__)

        self._function(cli, "main", "cli.main")
        self._function(core, "load_instance", "core.load", after_load)
        self._function(core, "instance_to_json", "core.instance_to_json")
        self._function(algorithms, "run", "algorithms.run", after_run)
        self._function(adversaries, "run_adaptive", "adversaries.run_adaptive", after_run_adaptive)
        self._function(metrics, "prop1_ratio", "metrics.prop1_ratio")
        self._function(metrics, "check_alpha_prop1", "metrics.check_prop1")
        self._function(metrics, "check_alpha_ef1", "metrics.check_ef1")
        self._function(metrics, "check_alpha_propx", "metrics.check_propx")
        self._function(metrics, "mms_exact", "metrics.mms_exact")
        self._function(oracles, "best_allocation_search", "oracles.best_alloc")
        for bound in ("rand_alpha_bound", "bernstein_tail", "rand_tail_certificate",
                      "analytic_moments", "small_goods_variance_bound"):
            self._function(oracles, bound, "oracles.bounds")
        self._function(harness, "montecarlo_rand", "harness.montecarlo", after_montecarlo)
        self._function(harness, "campaign", "harness.campaign", after_campaign)
        self._method(algorithms.OnlineAllocator, "observe", observe_name)
        self._method(algorithms.RobustifiedAllocator, "observe", "algorithms.observe.miv_robust")
        self._method(algorithms.TraceRecorder, "record", "algorithms.record")
        for cls in (adversaries.Greedy3Adversary, adversaries.MivImpossibilityAdversary):
            self._method(cls, "next_column", "adversaries.next_column", after_next_column)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total duration, total self time]; unseen names read zeros."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = agg[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return agg

    def layer_metrics(self, bytes_out: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics in raw seconds; layers never entered read 0."""
        agg, count = self.totals(), self.counts

        def calls(name):
            return agg[name][0]

        def dur(name):
            return agg[name][1]

        def self_s(name):
            return agg[name][2]

        def ratio(a, b):
            return a / b if b else 0.0

        observe = {rule: f"algorithms.observe.{rule}" for rule in RULES}
        return {
            "core.load.calls": calls("core.load"),
            "core.load.self_s": self_s("core.load"),
            "core.load.cells_per_s": ratio(count["cells"], self_s("core.load")),
            "core.instance_to_json.self_s": self_s("core.instance_to_json"),
            "algorithms.observe.calls": sum(calls(name) for name in observe.values()),
            **{f"algorithms.observe_us.{rule}": 1e6 * ratio(dur(name), calls(name)) for rule, name in observe.items()},
            "algorithms.record_us": 1e6 * ratio(dur("algorithms.record"), calls("algorithms.record")),
            "algorithms.state_den_bits.max": self.den_bits,
            "metrics.prop1_ratio.self_s": self_s("metrics.prop1_ratio"),
            "metrics.check_prop1.self_s": self_s("metrics.check_prop1"),
            "metrics.check_ef1.self_s": self_s("metrics.check_ef1"),
            "metrics.check_propx.self_s": self_s("metrics.check_propx"),
            "metrics.mms_exact.calls": calls("metrics.mms_exact"),
            "metrics.mms_exact.self_s": self_s("metrics.mms_exact"),
            "adversaries.steps": count["steps"],
            "adversaries.next_column_us": 1e6 * ratio(dur("adversaries.next_column"), calls("adversaries.next_column")),
            "adversaries.greedy3.cycles": count["cycles"],
            "adversaries.steps_per_s": ratio(count["steps"], dur("adversaries.run_adaptive")),
            "oracles.best_alloc.calls": calls("oracles.best_alloc"),
            "oracles.best_alloc.self_s": self_s("oracles.best_alloc"),
            "oracles.bounds.self_s": self_s("oracles.bounds"),
            "harness.montecarlo.trials_per_s": ratio(count["trials"], dur("harness.montecarlo")),
            "harness.campaign.row_s": ratio(dur("harness.campaign"), count["campaign_rows"]),
            "cli.self_s": self_s("cli.main"),
            "cli.bytes_out": bytes_out,
            "trace.overhead_frac": overhead_frac,
        }

    def write(self, path) -> None:
        """Write the spans as tab-separated name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
