"""Seeded input files and job lists for the three benchmark workloads.

``build(workload, seed, workdir)`` writes every input a workload needs under
``workdir/in`` and returns one pass of jobs, grouped into units.  A unit is a
run of jobs that must stay in order (a ``run`` job and the ``metrics`` job
that reads its allocation); the seed shuffles the order of the units.

The seed only fills in values (valuations, random-rule seeds, epsilons,
targets inside a fixed cost band).  Instance sizes and job counts are fixed
per workload, so the latency percentiles of two seeds land on jobs of the
same kind and the figures compare across seeds.

Instance files are written in fairdiv's canonical form (sorted keys,
two-space indent, rationals as lowest-terms strings, trailing newline), so a
file's sha256 equals the instance digest ``fairdiv montecarlo`` reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("stream", "adversary", "verify")

#: Fewest timed jobs in one pass, so that p90 has at least ten jobs above it.
MIN_TIMED_JOBS = 100

#: Failing error-path jobs caused by a defect the project already tracks.
#: They stay in every pass so the defect shows; ``run.py`` reports them apart
#: from other failures.
KNOWN_DEFECTS = {
    "campaign-missing-config": "campaign --config errors escape as a traceback (ROADMAP item 4)",
    "campaign-keyless-config": "campaign rows without 'alpha' escape as a traceback (ROADMAP item 4)",
}


@dataclass
class Job:
    """One ``fairdiv`` invocation and what its output must satisfy."""

    name: str
    argv: list[str]
    kind: str  # selects the output check in checks.py
    out: str | None = None
    spec: dict = field(default_factory=dict)  # facts the output check needs
    expect_exit: int = 0

    @property
    def timed(self) -> bool:
        """Error-path jobs count towards failures only, not latency or goods."""
        return self.kind != "error"


def canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def instance_payload(values) -> dict:
    return {"n": len(values), "m": len(values[0]), "values": [[str(v) for v in row] for row in values]}


def random_values(rng: random.Random, n: int, m: int, max_den: int, unit_good: bool) -> tuple:
    """n x m values in [0, 1) with denominators up to ``max_den``.

    With ``unit_good`` each agent gets one good worth exactly 1, so all-ones
    predictions are perfect and the MIV rule's contract holds.
    """
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            q = rng.randint(1, max_den)
            row.append(Fraction(rng.randint(0, q - 1), q))
        if unit_good:
            row[rng.randrange(m)] = Fraction(1)
        rows.append(tuple(row))
    return tuple(rows)


class _Builder:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"perfbench/{workload}/{seed}")
        self.inputs = workdir / "in"
        self.outputs = workdir / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)
        self.units: list[list[Job]] = []

    def write(self, name: str, text: str) -> str:
        path = self.inputs / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def instance(self, name: str, values) -> str:
        return self.write(name, canonical_json(instance_payload(values)))

    def out(self, name: str) -> str:
        return str(self.outputs / name)

    def add(self, *jobs: Job) -> None:
        self.units.append(list(jobs))

    def error_jobs(self) -> None:
        """Malformed inputs that must end with exit 1 and a one-line message."""
        bad_literal = self.write(
            "err-bad-literal.json", canonical_json({"n": 2, "m": 2, "values": [["1", "1/0"], ["1", "x"]]})
        )
        ragged = self.write("err-ragged.json", canonical_json({"values": [["1", "1/2"], ["1"]]}))
        above_one = self.write(
            "err-above-one.json", canonical_json({"n": 2, "m": 2, "values": [["1", "3/2"], ["1", "1/2"]]})
        )
        keyless = self.write(
            "err-keyless-config.json", canonical_json({"rows": [{"construction": "greedy1", "n": 2}]})
        )
        cases = {
            "bad-literal": ["run", "--algo", "greedy3", "--instance", bad_literal],
            "ragged-matrix": ["oracle", "--op", "best-alloc", "--instance", ragged],
            "miv-above-one": ["run", "--algo", "miv", "--instance", above_one],
            "campaign-missing-config": ["campaign", "--config", str(self.inputs / "absent.json")],
            "campaign-keyless-config": ["campaign", "--config", keyless],
        }
        for name, argv in cases.items():
            argv = argv + ["--out", self.out(f"err-{name}.out")]
            self.add(Job(f"error/{name}", argv, "error", spec={"known_defect": KNOWN_DEFECTS.get(name)},
                         expect_exit=1))

    def finish(self) -> list[list[Job]]:
        self.error_jobs()
        self.rng.shuffle(self.units)
        names = [job.name for unit in self.units for job in unit]
        if len(set(names)) != len(names):
            raise AssertionError("job names must be unique within a pass")
        timed = sum(job.timed for unit in self.units for job in unit)
        if timed < MIN_TIMED_JOBS:
            raise AssertionError(f"a pass has {timed} timed jobs, fewer than {MIN_TIMED_JOBS}")
        return self.units


# ---------------------------------------------------------------------------
# stream: every online rule over seeded instances, each followed by the
# linear fairness checks on the allocation it produced.
# ---------------------------------------------------------------------------

#: (n, m, denominators) per instance.  The sizes are spread so that job
#: latencies form a dense distribution instead of a few clusters.
STREAM_SHAPES = ((2, 100, "small"), (2, 240, "wide"), (2, 700, "small"), (2, 560, "wide"),
                 (3, 80, "small"), (3, 160, "wide"), (3, 640, "small"), (3, 800, "wide"),
                 (5, 60, "small"), (5, 140, "wide"), (5, 340, "small"), (5, 260, "wide"))
#: Largest denominator drawn: small ones keep Fraction arithmetic cheap, wide
#: ones make the allocators' state denominators grow.
DENOMINATORS = {"small": 12, "wide": 200}
EPSILONS = (Fraction(1, 10), Fraction(1, 8), Fraction(1, 5), Fraction(1, 4))


def _stream(b: _Builder) -> None:
    for n, m, label in STREAM_SHAPES:
        values = random_values(b.rng, n, m, DENOMINATORS[label], unit_good=True)
        stem = f"n{n}-m{m}-{label}"
        inst = b.instance(f"{stem}.json", values)
        rules = {
            "miv": ["--algo", "miv"],
            "miv_robust": ["--algo", "miv", "--epsilon", str(b.rng.choice(EPSILONS))],
            "greedy1": ["--algo", "greedy1"],
            "greedy2": ["--algo", "greedy2"],
            "greedy3": ["--algo", "greedy3"],
            "rand": ["--algo", "rand", "--seed", str(b.rng.randrange(2**32))],
        }
        for rule, flags in rules.items():
            run_out = b.out(f"{stem}-{rule}.json")
            alloc = run_out + ".alloc.json"
            epsilon = Fraction(flags[3]) if rule == "miv_robust" else None
            run_job = Job(
                f"run/{stem}/{rule}",
                ["run", *flags, "--instance", inst, "--out", run_out],
                "run",
                run_out,
                {"values": values, "rule": rule, "epsilon": epsilon, "allocation": alloc},
            )
            metrics_out = b.out(f"{stem}-{rule}-metrics.json")
            metrics_job = Job(
                f"metrics/{stem}/{rule}",
                ["metrics", "--instance", inst, "--allocation", alloc,
                 "--check", "prop1,ef1,propx", "--out", metrics_out],
                "metrics",
                metrics_out,
                {"values": values, "allocation": alloc, "checks": ("prop1", "ef1", "propx")},
            )
            b.add(run_job, metrics_job)


# ---------------------------------------------------------------------------
# adversary: adaptive and static lower-bound constructions, and campaigns.
# ---------------------------------------------------------------------------

#: Feasible greedy-3 targets: 1,896 to 13,851 steps at n=2.  Smaller targets
#: (n=3 at 1/4) need about a million steps and are left out for cost.
GREEDY3_TARGETS = ((2, Fraction(1, 3)), (2, Fraction(2, 7)), (2, Fraction(1, 4)),
                   (3, Fraction(3, 5)), (3, Fraction(1, 2)))
#: Static constructions: alpha = 1/k with k drawn from each band.
STATIC_BANDS = ((4, 6), (8, 10), (12, 14), (16, 18), (20, 22), (24, 26), (28, 30), (32, 34), (36, 38))
CAMPAIGNS = 48
IMPOSSIBILITY_ALLOCATORS = ("greedy1", "greedy2", "greedy3", "miv", "rand")


def _adversary(b: _Builder) -> None:
    for n, alpha in GREEDY3_TARGETS:
        out = b.out(f"greedy3-n{n}-{alpha.denominator}.json")
        b.add(Job(f"adversary/greedy3/n{n}/{alpha}",
                  ["adversary", "--target", "greedy3", "--n", str(n), "--alpha", str(alpha), "--out", out],
                  "adversary", out, {"target": "greedy3", "n": n, "alpha": alpha}))
    for target in ("greedy1", "greedy2"):
        for n in (2, 3, 5):
            for lo, hi in STATIC_BANDS:
                alpha = Fraction(1, b.rng.randint(lo, hi))
                out = b.out(f"{target}-n{n}-{alpha.denominator}.json")
                b.add(Job(f"adversary/{target}/n{n}/{alpha}",
                          ["adversary", "--target", target, "--n", str(n), "--alpha", str(alpha), "--out", out],
                          "adversary", out, {"target": target, "n": n, "alpha": alpha}))
    for c in range(CAMPAIGNS):
        # Sizes cycle with the campaign index so every seed runs the same mix;
        # the seed picks notions, random-rule seeds and the order.
        alpha = Fraction(1, 2 + c % 3)
        rows = []
        # MIV impossibility against every allocator; at n=2 the MMS oracle
        # behind each row stays a minor share of the campaign's time.
        for allocator in IMPOSSIBILITY_ALLOCATORS:
            row = {"construction": "miv-impossibility", "n": 2, "alpha": str(alpha),
                   "notion": b.rng.choice(("ef1", "mms", "propx")), "allocator": allocator}
            if allocator == "rand":
                # Whether the uniform rule lets the construction finish depends
                # on its draws, so keep these rows small (m=8) to keep the
                # campaign's cost from depending on the seed.
                row.update(alpha="1/2", seed=b.rng.randrange(2**32), repetitions=2)
            rows.append(row)
        if c % 4 == 0:  # one n=3 row in every fourth campaign keeps the n=3 MMS path in
            rows.append({"construction": "miv-impossibility", "n": 3, "alpha": "1/2", "allocator": "miv"})
        rows.append({"construction": "greedy3", "n": 2, "alpha": str(Fraction(50 + c % 11, 100)),
                     "max_steps": 100000})
        rows.append({"construction": "greedy1", "n": 2 + c % 2, "alpha": str(Fraction(1, 4 + c % 7))})
        rows.append({"construction": "greedy2", "n": 3 - c % 2, "alpha": str(Fraction(1, 4 + c % 5))})
        config = b.write(f"campaign-{c}.json", canonical_json({"rows": rows}))
        out = b.out(f"campaign-{c}.csv")
        b.add(Job(f"campaign/{c}", ["campaign", "--config", config, "--out", out],
                  "campaign", out, {"rows": rows}))


# ---------------------------------------------------------------------------
# verify: exponential searches on integer-scaled values, Monte Carlo, and
# the closed-form oracles.
# ---------------------------------------------------------------------------

#: Job counts put each latency percentile inside a block of jobs of one
#: shape and near-equal cost, so that p50 and p90 do not jump between job
#: kinds from seed to seed.  From the slowest down:
#:   the largest searches (n=2, m=20; n=3, m=13) and one 2,000-trial run;
#:   12 Monte Carlo runs of 1,500 trials, holding p90;
#:   mid-size searches and 400-trial runs;
#:   45 MMS checks at n=2, m=14 (a full subset scan, so value-independent), holding p50;
#:   small n=3 best-allocation searches and the closed-form oracles.
#: (n, m, copies); copies alternate wide and small denominators, a single copy is wide.
MMS_SHAPES = ((2, 20, 1), (3, 13, 2), (3, 12, 2), (3, 11, 2), (2, 14, 45))
BEST_ALLOC_SHAPES = ((2, 20, 1), (2, 16, 4), (3, 12, 2), (3, 11, 2), (3, 10, 2))
MONTECARLO_RUNS = ((3, 2000), *((n, 1500) for n in (2, 3) for _ in range(6)), *((n, 400) for n in (2, 3) for _ in range(2)))
DELTAS = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 50), Fraction(1, 100), Fraction(1, 5))
SMALL_ORACLES = 8  # of each of rand-alpha, bernstein and moments


def _shapes(shapes):
    """(n, m, denominators, copy index) per instance."""
    for n, m, copies in shapes:
        for k in range(copies):
            yield n, m, ("wide", "small")[k % 2], k


def _verify(b: _Builder) -> None:
    instances = []
    for n, m, label, k in _shapes(MMS_SHAPES):
        values = random_values(b.rng, n, m, DENOMINATORS[label], unit_good=False)
        stem = f"mms-n{n}-m{m}-{label}-{k}"
        inst = b.instance(f"{stem}.json", values)
        owner = [b.rng.randint(1, n) for _ in range(m)]
        alloc = b.write(f"{stem}-alloc.json", canonical_json({"owner": owner}))
        out = b.out(f"{stem}.json")
        b.add(Job(f"metrics/{stem}",
                  ["metrics", "--instance", inst, "--allocation", alloc, "--check", "mms,prop1", "--out", out],
                  "metrics", out, {"values": values, "allocation": alloc, "checks": ("prop1", "mms")}))
        instances.append((inst, values))
    for n, m, label, k in _shapes(BEST_ALLOC_SHAPES):
        values = random_values(b.rng, n, m, DENOMINATORS[label], unit_good=False)
        stem = f"best-n{n}-m{m}-{label}-{k}"
        inst = b.instance(f"{stem}.json", values)
        out = b.out(f"{stem}.json")
        b.add(Job(f"best-alloc/{stem}", ["oracle", "--op", "best-alloc", "--instance", inst, "--out", out],
                  "best-alloc", out, {"values": values}))
    for k, (n, trials) in enumerate(MONTECARLO_RUNS):
        values = random_values(b.rng, n, 200, DENOMINATORS[("small", "wide")[k % 2]], unit_good=False)
        inst = b.instance(f"mc-{k}.json", values)
        delta = b.rng.choice(DELTAS)
        out = b.out(f"mc-{k}.json")
        b.add(Job(f"montecarlo/{k}",
                  ["montecarlo", "--n", str(n), "--delta", str(delta), "--instance", inst,
                   "--trials", str(trials), "--seed", str(b.rng.randrange(2**32)), "--out", out],
                  "montecarlo", out,
                  {"values": values, "delta": delta, "trials": trials, "instance_path": inst}))
    for k in range(SMALL_ORACLES):
        n, delta = b.rng.randint(2, 6), b.rng.choice(DELTAS)
        out = b.out(f"rand-alpha-{k}.json")
        b.add(Job(f"oracle/rand-alpha/{k}",
                  ["oracle", "--op", "rand-alpha", "--n", str(n), "--delta", str(delta), "--out", out],
                  "rand-alpha", out, {"n": n, "delta": delta}))
        out = b.out(f"bernstein-{k}.json")
        if k % 2:
            params = {"variance_bound": Fraction(b.rng.randint(1, 30), 100),
                      "term_bound": Fraction(b.rng.randint(1, 30), 100),
                      "deviation": Fraction(b.rng.randint(1, 50), 100)}
            flags = [x for key, v in params.items() for x in ("--" + key.replace("_", "-"), str(v))]
        else:
            params = {"n": b.rng.randint(2, 6), "delta": b.rng.choice(DELTAS)}
            flags = ["--n", str(params["n"]), "--delta", str(params["delta"])]
        b.add(Job(f"oracle/bernstein/{k}", ["oracle", "--op", "bernstein", *flags, "--out", out],
                  "bernstein", out, params))
        inst, values = instances[k % len(instances)]
        agent = b.rng.randint(1, len(values))
        alpha = Fraction(1, b.rng.randint(2, 8))
        out = b.out(f"moments-{k}.json")
        b.add(Job(f"oracle/moments/{k}",
                  ["oracle", "--op", "moments", "--instance", inst, "--agent", str(agent),
                   "--alpha", str(alpha), "--out", out],
                  "moments", out, {"values": values, "agent": agent, "alpha": alpha}))


_BUILDERS = {"stream": _stream, "adversary": _adversary, "verify": _verify}


def build(workload: str, seed: int, workdir: Path) -> list[list[Job]]:
    """Write the workload's inputs for ``seed`` and return one pass of jobs."""
    b = _Builder(workload, seed, workdir)
    _BUILDERS[workload](b)
    return b.finish()
