"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fairdiv import cli  # noqa: E402

#: Per-layer metrics each workload must exercise (nonzero in a traced pass).
EXERCISED = {
    "stream": [
        "core.load.calls", "core.load.self_s", "core.load.cells_per_s",
        "algorithms.observe.calls", *(f"algorithms.observe_us.{r}" for r in tracer.RULES),
        "algorithms.record_us", "algorithms.state_den_bits.max",
        "metrics.prop1_ratio.self_s", "metrics.check_prop1.self_s", "metrics.check_ef1.self_s",
        "metrics.check_propx.self_s", "cli.self_s", "cli.bytes_out",
    ],
    "adversary": [
        "core.instance_to_json.self_s", "algorithms.observe.calls",
        *(f"algorithms.observe_us.{r}" for r in ("miv", "greedy1", "greedy2", "greedy3", "rand")),
        "algorithms.record_us", "algorithms.state_den_bits.max",
        "metrics.prop1_ratio.self_s", "metrics.check_prop1.self_s", "metrics.check_ef1.self_s",
        "metrics.check_propx.self_s", "metrics.mms_exact.calls", "metrics.mms_exact.self_s",
        "adversaries.steps", "adversaries.next_column_us", "adversaries.greedy3.cycles",
        "adversaries.steps_per_s", "harness.campaign.row_s", "cli.self_s", "cli.bytes_out",
    ],
    "verify": [
        "core.load.calls", "core.load.self_s", "core.load.cells_per_s", "core.instance_to_json.self_s",
        "metrics.prop1_ratio.self_s", "metrics.check_prop1.self_s", "metrics.mms_exact.calls",
        "metrics.mms_exact.self_s", "oracles.best_alloc.calls", "oracles.best_alloc.self_s",
        "oracles.bounds.self_s", "harness.montecarlo.trials_per_s", "cli.self_s", "cli.bytes_out",
    ],
}


def cheap(workload: str, units):
    """A quick subset of a pass that still reaches every layer the workload uses."""
    def keep(job):
        name = job.name
        if workload == "stream":
            return any(f"-m{m}-" in name for m in (100, 80, 60)) or name.startswith("error/")
        if workload == "adversary":
            return (name in ("adversary/greedy3/n3/3/5", "campaign/0", "campaign/1")
                    or name.startswith(("adversary/greedy1/n2", "adversary/greedy2/n2", "error/")))
        if name.startswith("montecarlo/"):
            return int(name.split("/")[1]) >= 13  # the 400-trial runs
        if name.startswith("metrics/mms-n2-m14-"):
            return int(name.rsplit("-", 1)[1]) < 3
        return not any(f"-m{m}-" in name for m in (20, 16, 13, 12))
    return [unit for unit in units if all(keep(job) for job in unit)]


def digest_inputs(workdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((workdir / "in").iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path / "a")
    second = workloads.build(workload, 7, tmp_path / "b")
    other = workloads.build(workload, 8, tmp_path / "c")
    assert digest_inputs(tmp_path / "a") == digest_inputs(tmp_path / "b")
    assert digest_inputs(tmp_path / "a") != digest_inputs(tmp_path / "c")
    assert [j.name for u in first for j in u] == [j.name for u in second for j in u]
    assert [j.name for u in first for j in u] != [j.name for u in other for j in u]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_has_enough_timed_jobs(workload, tmp_path):
    units = workloads.build(workload, 1, tmp_path)
    assert sum(job.timed for unit in units for job in unit) >= workloads.MIN_TIMED_JOBS


def test_flipped_owner_counts_as_failed(tmp_path, monkeypatch):
    units = [u for u in workloads.build("stream", 3, tmp_path) if u[0].name == "run/n3-m80-small/greedy3"]
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[0] == "run":
            out = argv[argv.index("--out") + 1]
            data = json.loads(Path(out).read_text(encoding="utf-8"))
            data["owners"][5] = data["owners"][5] % 3 + 1
            Path(out).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return code

    assert run.run_pass(cli, units).failures == []
    monkeypatch.setattr(cli, "main", corrupting_main)
    result = run.run_pass(cli, units)
    assert len(result.failures) >= 1 and result.failures[0].startswith("run/n3-m80-small/greedy3")
    assert len(result.times) < 2


def test_error_jobs_need_a_one_line_message(tmp_path):
    job = workloads.Job("error/x", [], "error", expect_exit=1)
    checks.check(job, 1, "fairdiv: error: bad input\n")
    with pytest.raises(checks.CheckFailed):
        checks.check(job, 1, "Traceback (most recent call last):\n  ...\n")
    with pytest.raises(checks.CheckFailed):
        checks.check(job, 0, "fairdiv: error: bad input\n")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_matches_untraced_and_reaches_its_layers(workload, tmp_path):
    units = cheap(workload, workloads.build(workload, 5, tmp_path))
    plain = run.run_pass(cli, units)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = run.run_pass(cli, units)
    finally:
        spans.uninstall()
    assert plain.failures == [] and traced.failures == []
    assert plain.digest == traced.digest
    assert cli.main.__module__ == "fairdiv.cli" and not hasattr(cli.main, "__wrapped__")
    layer = spans.layer_metrics(traced.bytes_out, 0.0)
    assert list(layer) == [name for name, _ in tracer.PER_LAYER]
    missing = [name for name in EXERCISED[workload] if not layer[name] > 0]
    assert missing == []


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
