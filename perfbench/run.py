"""fairdiv benchmark: seeded closed-loop workloads of ``fairdiv`` jobs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Each job is one ``fairdiv`` command driven in-process through
``fairdiv.cli.main(argv)``, one after another from this single thread.  A
pass runs the workload's job list once; passes repeat while another one
still fits in ``--seconds``.  Every output is checked by ``checks.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable summary, including the raw wall times.

Calibrated time.  On a shared host the same code runs up to a fifth slower
for seconds to tens of seconds at a time, which no run length averages out.
So a fixed loop of stdlib exact arithmetic, which runs no fairdiv code, is
timed after every job, and each job's time is scaled by
``CALIBRATION_SLICE_S / median slice time around the job``.  A slowdown of
the host hits the loop and the jobs alike and cancels; a change to fairdiv
moves only the jobs.  Times are therefore seconds at the host speed where
one slice takes ``CALIBRATION_SLICE_S``, and rates are per such second.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = (
    ("goods_per_s", "1/s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Duration of one calibration slice at the reference host speed.
CALIBRATION_SLICE_S = 0.002
#: Jobs on each side whose calibration slices set a job's host speed.
CALIBRATION_WINDOW = 3

#: Fresh interpreters timed for setup_s, one after another, after one warm-up.
SETUP_SAMPLES = 9
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fairdiv.cli; fairdiv.cli.build_parser(); print(time.perf_counter() - t)"
)


def calibration_slice() -> float:
    """Wall time of a fixed loop of stdlib Fraction arithmetic."""
    start = perf_counter()
    acc = 0
    for k in range(1, 300):
        f = Fraction(k, k % 17 + 1) + Fraction(k % 5, 7)
        acc += (f * f).numerator % 11
    return perf_counter() - start


@dataclass
class PassResult:
    times: dict[str, float] = field(default_factory=dict)  # calibrated seconds per timed job
    goods: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    known_defects: list[str] = field(default_factory=list)
    bytes_out: int = 0
    wall: float = 0.0
    digest: str = ""
    raw: list[tuple[str | None, float]] = field(default_factory=list)  # (timed job or None, wall s) in order
    slices: list[float] = field(default_factory=list)  # calibration slices: one first, then one after each job

    def calibrate(self) -> None:
        """Scale each timed job by the host speed around it: the median of
        the calibration slices up to CALIBRATION_WINDOW jobs before and after."""
        for i, (name, elapsed) in enumerate(self.raw):
            if name is not None:
                window = self.slices[max(0, i - CALIBRATION_WINDOW):i + 2 + CALIBRATION_WINDOW]
                self.times[name] = elapsed * CALIBRATION_SLICE_S / statistics.median(window)

    @property
    def speed(self) -> float:
        """Calibrated seconds per raw second over the pass."""
        return CALIBRATION_SLICE_S / statistics.median(self.slices)

    @property
    def raw_time(self) -> float:
        return sum(elapsed for name, elapsed in self.raw if name is not None)


def execute(cli, job: workloads.Job, result: PassResult, sha) -> None:
    """Run one job, time it, check its output and record the outcome."""
    gc.collect()  # start each job from a settled heap, as a fresh process would
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(job.argv)
        except Exception as caught:  # an escaping exception is a failed job, not a failed benchmark
            code, exc = None, caught
        elapsed = perf_counter() - start
    result.slices.append(calibration_slice())
    result.attempted += 1
    try:
        if exc is not None:
            raise checks.CheckFailed(f"uncaught {type(exc).__name__}: {exc}")
        goods = checks.check(job, code, err.getvalue())
    except checks.CheckFailed as failure:
        reason = f"{job.name}: {failure}".splitlines()[0]
        (result.known_defects if job.spec.get("known_defect") else result.failures).append(reason)
        result.raw.append((None, elapsed))
        return
    sha.update(f"{job.name}\0{code}\0".encode())
    if job.timed:
        with open(job.out, "rb") as fh:
            data = fh.read()
        sha.update(data)
        result.bytes_out += len(data)
        result.goods += goods
    result.raw.append((job.name if job.timed else None, elapsed))


def run_pass(cli, units) -> PassResult:
    result, sha = PassResult(), hashlib.sha256()
    start = perf_counter()
    result.slices.append(calibration_slice())
    for unit in units:
        for job in unit:
            execute(cli, job, result, sha)
    result.wall = perf_counter() - start
    result.digest = sha.hexdigest()
    result.calibrate()
    return result


def setup_seconds() -> float:
    """Median calibrated time for a fresh interpreter to import fairdiv.cli
    and build its parser; the interpreters run one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        slices = [calibration_slice() for _ in range(10)]
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout) * CALIBRATION_SLICE_S / statistics.median(slices))
    return statistics.median(samples[1:])


def scaled(value: float, unit: str, speed: float) -> float:
    """Convert a raw-time figure to calibrated time."""
    if unit in ("s", "us"):
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "fairdiv" / "cli.py").is_file():
        print(f"perfbench: no fairdiv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from fairdiv import cli

    if Path(cli.__file__).resolve().parent != SRC / "fairdiv":
        print(f"perfbench: imported fairdiv from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        units = workloads.build(args.workload, args.seed, workdir)
        gc.collect()
        gc.freeze()  # the inputs live all run; keep the per-job collections from rescanning them
        result = (traced_run if args.trace else untraced_run)(cli, units, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def untraced_run(cli, units, args) -> dict:
    passes: list[PassResult] = []
    elapsed = 0.0
    while not passes or elapsed + passes[-1].wall <= args.seconds:
        passes.append(run_pass(cli, units))
        elapsed += passes[-1].wall
    # a job's latency is its median over the passes
    latency = [statistics.median(p.times[name] for p in passes if name in p.times) for name in passes[0].times]
    metrics = {
        "goods_per_s": sum(p.goods for p in passes) / sum(sum(p.times.values()) for p in passes),
        "job_s.p50": statistics.median(latency),
        "job_s.p90": statistics.quantiles(latency, n=10)[-1],
        "setup_s": setup_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return report(args, passes, {name: (metrics[name], unit) for name, unit in END_TO_END})


def traced_run(cli, units, args) -> dict:
    import tracer

    plain = run_pass(cli, units)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = run_pass(cli, units)
    finally:
        spans.uninstall()
    overhead = sum(traced.times.values()) / sum(plain.times.values()) - 1
    layer = spans.layer_metrics(traced.bytes_out, overhead)
    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"spans-{args.workload}-{args.seed}.tsv"
    spans.write(span_file)
    print(f"# {len(spans.spans)} spans written to {span_file.relative_to(ROOT)}")
    metrics = {name: (scaled(layer[name], unit, traced.speed), unit) for name, unit in tracer.PER_LAYER}
    return report(args, [plain, traced], metrics)


def report(args, passes: list[PassResult], metrics: dict) -> dict:
    """Print the summary lines and return the result line.

    Failures of error-path jobs whose defect the project already tracks are
    printed as known defects and counted in ``failed_frac``, not in the
    result line's ``failed``.
    """
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    known = sum(len(p.known_defects) for p in passes)
    same = len({p.digest for p in passes}) == 1

    def each(values, fmt=".2f"):
        return ", ".join(format(v, fmt) for v in values)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(passes)} passes of "
          f"{len(passes[0].times)} timed jobs, {attempted} jobs attempted")
    print(f"#   raw wall s per pass {each(p.wall for p in passes)}, in timed jobs "
          f"{each(p.raw_time for p in passes)}; calibrated s per raw s {each((p.speed for p in passes), '.4f')}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:34s} {value:.6g} {unit}")
    print(f"#   {'failed_frac':34s} {(failed + known) / attempted:.6g} ratio ({failed + known} of {attempted})")
    print(f"#   output sha256 {passes[0].digest}" + ("" if same else " (passes differ)"))
    for reason in sorted({r for p in passes for r in p.known_defects}):
        print(f"# known defect: {reason}")
    for reason in sorted({r for p in passes for r in p.failures}):
        print(f"# FAILED: {reason}")
    if not same:
        print("# FAILED: passes produced different outputs")
    return {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
