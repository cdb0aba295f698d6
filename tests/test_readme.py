"""README drift guard: every flag the README's CLI synopsis shows exists,
and the greedy3 depth table's fast rows still come out as printed.

Reads the first ``sh`` block under the README's ``## CLI`` heading, joins
lines continued with ``\\``, and checks each ``fairdiv <command>`` line's
``--flags`` against that subcommand's parser in ``cli.build_parser()``.
Every row of the "Reproducing the paper" tables is rerun as well, the
MIV and uniform-rule rows on the files of the README's JSON block, and
each row of the EF1/MMS/PROPX table through ``main``.
"""

import argparse
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from fairdiv import run_construction
from fairdiv.cli import build_parser, main
from conftest import robust_beta

README = Path(__file__).resolve().parent.parent / "README.md"


def synopses() -> list[str]:
    """The ``fairdiv ...`` command lines of the README's CLI block, continuations joined."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    joined = re.sub(r"\\\n\s*", " ", block)
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("fairdiv ")]


def subparsers() -> dict:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_the_cli_block_shows_every_subcommand():
    shown = {line.split()[1] for line in synopses()}
    assert shown == set(subparsers())


def test_every_readme_flag_exists_on_its_subcommand():
    commands = subparsers()
    for line in synopses():
        command = line.split()[1]
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
        missing = flags - set(commands[command]._option_string_actions)
        assert not missing, f"README `{line}` shows flags {sorted(missing)} that do not exist"


def test_continued_lines_are_joined():
    metrics = next(line for line in synopses() if line.startswith("fairdiv metrics "))
    assert "--check" in metrics and "--alpha" in metrics


def greedy3_depth_rows() -> dict:
    """(n, alpha) -> (steps, cycles, certified bound) from the README's greedy3 table."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## How deep the greedy3 construction goes\n"):]
    rows = re.findall(r"^\| (\d+) \| (\d+/\d+) \| ([\d,]+) \| ([\d,]+) \| ([\d,]+) \|$", section, re.M)
    return {(int(n), Fraction(alpha)): tuple(int(cell.replace(",", "")) for cell in cells)
            for n, alpha, *cells in rows}


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1, 4)], ids=str)
def test_the_greedy3_depth_rows_rerun(alpha):
    rows = greedy3_depth_rows()
    assert len(rows) == 11
    result = run_construction("greedy3", 2, alpha)
    assert result.target_reached
    rerun = (result.trace.instance.m, result.fields["cycles"], result.fields["certified_cycles_bound"])
    assert rows[2, alpha] == rerun


def greedy_failure_rows() -> dict:
    """(rule, alpha) -> (steps, achieved ratio, target_reached) from the
    README's table of greedy failures."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Reproducing the paper\n"):text.index("\n## How deep")]
    rows = re.findall(r"^\| (greedy\d) \| (\d+/\d+) \| ([\d,]+) \| (\d+/\d+) \| (true|false) \|$",
                      section, re.M)
    return {(rule, Fraction(alpha)): (int(steps.replace(",", "")), Fraction(ratio), reached == "true")
            for rule, alpha, steps, ratio, reached in rows}


@pytest.mark.parametrize("rule", ["greedy1", "greedy2", "greedy3"])
@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)], ids=str)
def test_the_greedy_failure_rows_rerun(rule, alpha):
    rows = greedy_failure_rows()
    assert len(rows) == 9
    result = run_construction(rule, 2, alpha)
    assert rows[rule, alpha] == (result.trace.instance.m, result.achieved_ratio, result.target_reached)


def miv_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("\n**MIV keeps 1/n-PROP1"):text.index("\n## How deep")]


def miv_rows() -> list[tuple]:
    """(instance, n, flags, prop1_ratio, bound, contract met) per row of the
    README's MIV table; flags is the list of command-line words shown."""
    rows = re.findall(r"^\| ([a-f][23]) \| (\d) \| (none|`[^`]+`) \| (\d+(?:/\d+)?) \| "
                      r"(\d+/\d+) \| (true|false) \|$", miv_section(), re.M)
    return [(name, int(n), [] if flags == "none" else flags.strip("`").split(), Fraction(ratio),
             Fraction(bound), met == "true")
            for name, n, flags, ratio, bound, met in rows]


def readme_files(tmp_path) -> dict:
    """Each file of the README's JSON block written under ``tmp_path``, by name."""
    files = json.loads(re.search(r"```json\n(.*?)```", miv_section(), re.S).group(1))
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content), encoding="utf-8")
    return files


def test_the_miv_rows_rerun(tmp_path, capsys):
    files = readme_files(tmp_path)
    rows = miv_rows()
    assert len(rows) == 12
    assert sum("--predictions" in flags for _, _, flags, *_ in rows) == 4
    for name, n, flags, ratio, bound, met in rows:
        argv = [str(tmp_path / flag) if flag.endswith(".json") else flag for flag in flags]
        assert main(["run", "--algo", "miv", "--instance", str(tmp_path / f"{name}.json"), *argv]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(files[name]["values"]) == n
        assert (Fraction(out["prop1_ratio"]), out["prediction_contract_met"]) == (ratio, met)
        epsilon = flags[flags.index("--epsilon") + 1] if "--epsilon" in flags else 0
        assert bound == robust_beta(Fraction(1, n), Fraction(epsilon), n)


def rand_rows() -> list[list[str]]:
    """The cells of each row of the README's uniform-rule table."""
    return [line.strip("| ").split(" | ") for line in miv_section().splitlines()
            if re.match(r"\| \d \| \d+/\d+ \| 0\.\d+ \| ", line)]


def test_the_uniform_rule_rows_rerun(tmp_path, capsys):
    readme_files(tmp_path)
    rows = rand_rows()
    assert {(n, delta) for n, delta, *_ in rows} == {(n, delta) for n in "23" for delta in ("1/10", "1/2")}
    assert len(rows) == 4
    for n, delta, alpha, instance, trials, failures, within in rows:
        assert main(["oracle", "--op", "rand-alpha", "--n", n, "--delta", delta]) == 0
        assert json.loads(capsys.readouterr().out)["alpha"] == alpha
        assert int(trials) <= 400
        argv = ["montecarlo", "--n", n, "--delta", delta, "--instance", str(tmp_path / f"{instance}.json"),
                "--trials", trials, "--seed", "12345"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert [out["alpha_used"], str(out["trials"]), str(out["failures"]), json.dumps(out["within_delta"])] == [
            alpha, trials, failures, within]


def impossibility_rows() -> list[list[str]]:
    """The cells of each row of the README's EF1/MMS/PROPX table."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n**EF1, MMS and PROPX stay inapproximable"):text.index("\n## How deep")]
    return [line.strip("| ").split(" | ") for line in section.splitlines()
            if re.match(r"\| (miv|greedy\d) \| ", line)]


def test_the_impossibility_rows_rerun(capsys):
    rows = impossibility_rows()
    assert len(rows) == 16
    assert {(rule, n, alpha) for rule, n, alpha, *_ in rows} == {
        (rule, n, alpha) for rule in ("miv", "greedy1", "greedy2", "greedy3") for n in "23" for alpha in ("1/2", "1/3")
    }
    for rule, n, alpha, *shown in rows:
        argv = ["adversary", "--target", "miv-impossibility", "--n", n, "--alpha", alpha, "--allocator", rule]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        fields = ("steps", "achieved_prop1_ratio", "alpha_ef1", "alpha_mms", "alpha_propx", "prop1_at_inv_n")
        assert shown == [json.dumps(out[f]).strip('"') for f in fields], f"{rule} n={n} alpha={alpha}"
