"""Bounded fuzz test of the ``fairdiv`` command line.

Draws argv from each subcommand's grammar (n <= 4, rational denominators
<= 12 but for a rare literal past Python's int-to-str digit limit,
``--max-steps`` <= 200, instances with m <= 6) together with input
files that are well formed, malformed JSON, of the wrong types or ragged.
Every case must end with exit 0, 1 or 2 and never raise; exit 1 must print
exactly one ``fairdiv: error:`` line.  Every malformed file is also given
to ``campaign`` on its own, which must exit 1 with that one line.  A last
test mangles such argv so that argparse rejects it (a bad rational or
integer, a bad choice, an unknown or a missing flag), which must exit 1
with that one line too.  Files nested to any depth, a full standard
output and an address-space limit must each end in that one line as well.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairdiv.adversaries import CONSTRUCTIONS
from fairdiv.algorithms import ALLOCATORS
from fairdiv.cli import main
from fairdiv.harness import NOTIONS

RULES = tuple(ALLOCATORS)

units = st.fractions(0, 1, max_denominator=12).map(str)
#: Literals past Python's 4,300-digit int-to-str limit: tiny (1/10^4400),
#: huge (10^4400) and wide but in range ((10^4400 + 1) / (3 * 10^4400)).
LONG_LITERALS = ["1/1" + "0" * 4400, "1" + "0" * 4400, "1" + "0" * 4399 + "1/3" + "0" * 4400]
short = st.one_of(units, st.builds("{}/{}".format, st.integers(0, 24), st.integers(1, 12)))
#: Mostly in [0, 1], the range of every ratio, value and probability here;
#: one draw in sixteen is a long literal.
rationals = st.integers(0, 15).flatmap(lambda k: st.sampled_from(LONG_LITERALS) if k == 0 else short)
small_ints = st.integers(0, 4)

#: Contents that no loader accepts: not JSON, or JSON of the wrong shape.
MALFORMED = [
    "",
    "not json",
    '{"values": [["1", "1/2"]',
    "[]",
    '"values"',
    '{"values": "abc"}',
    '{"values": [["1", "1/2"], ["1"]]}',
    '{"values": [["1", true], ["1", "1"]]}',
    '{"values": [["1", null], ["1", "1"]]}',
    '{"values": [["1", {}], ["1", "1"]]}',
    '{"values": [["1", "1/0"], ["1", "1"]]}',
    '{"values": [["1", "-1/2"], ["1", "1"]]}',
    '{"values": [["1", "1"]]}',
    '{"n": "two", "values": [["1"], ["1"]]}',
    '{"n": 2.5, "values": [["1"], ["1"]]}',
    '{"m": 3, "values": [["1"], ["1"]]}',
    '{"owner": "1,2"}',
    '{"owner": [1.5, 2]}',
    '{"owner": [true]}',
    '{"p": "1"}',
    '{"p": ["1", "x"]}',
    '{"p": ["1", "1"], "epsilon": [1]}',
    '{"rows": 5}',
    '{"rows": [5]}',
    '[{"construction": "greedy1"}]',
    '[{"construction": "greedy1", "alpha": {}}]',
    '[{"construction": ["greedy1"], "alpha": "1/2"}]',
    '[{"construction": "greedy1", "alpha": "1/2", "n": [2]}]',
    '[{"construction": "miv-impossibility", "alpha": "1/2", "allocator": [1]}]',
    '[{"construction": "miv-impossibility", "alpha": "1/2", "notion": ["ef1"]}]',
    '{"rows": [{"construction": "greedy1"}]}',
    '{"rows": [{"construction": "greedy1", "alpha": {}}]}',
    '{"rows": [{"construction": ["greedy1"], "alpha": "1/2"}]}',
    '{"rows": [{"construction": "greedy1", "alpha": "1/2", "n": [2]}]}',
    '{"rows": [{"construction": "miv-impossibility", "alpha": "1/2", "allocator": [1]}]}',
    '{"rows": [{"construction": "miv-impossibility", "alpha": "1/2", "notion": ["ef1"]}]}',
]


@st.composite
def instances(draw):
    """(n, m, text) of a well-formed instance file, numbers or strings in its cells."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(0, 6))
    cell = st.one_of(units, st.integers(0, 1))
    payload = {"values": [[draw(cell) for _ in range(m)] for _ in range(n)]}
    if draw(st.booleans()):
        payload.update(n=n, m=m)
    return n, m, json.dumps(payload)


#: Values of the wrong type for any campaign key.
JUNK = st.sampled_from([None, True, 2.5, "x", [1], {}])


@st.composite
def campaigns(draw):
    """A campaign config; one value in eight is of the wrong type."""
    keys = {
        "construction": st.sampled_from(CONSTRUCTIONS + ("nope",)),
        "alpha": rationals,
        "n": small_ints,
        "notion": st.sampled_from(NOTIONS + ("bogus",)),
        "allocator": st.sampled_from(RULES + ("nope",)),
        "repetitions": st.integers(0, 2),
        "max_steps": st.integers(0, 200),
        "seed": st.integers(0, 99),
    }
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        row = {}
        for key, values in keys.items():
            if key in ("construction", "alpha") or draw(st.booleans()):
                row[key] = draw(JUNK) if draw(st.integers(0, 7)) == 0 else draw(values)
        rows.append(row)
    return json.dumps({"rows": rows})


@st.composite
def invocations(draw, command=None):
    """(argv, files): argv with ``{name}`` placeholders for the files to write."""
    files = {}

    def file(name, text):
        """A placeholder for ``text``; one file in ten is missing, one in five malformed."""
        roll = draw(st.integers(0, 9))
        if roll == 0:
            return "{missing}"
        files[name] = draw(st.sampled_from(MALFORMED)) if roll < 3 else text
        return "{%s}" % name

    def opt(flag, values):
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    n, m, inst_text = draw(instances())
    inst = file("inst", inst_text)
    command = command or draw(st.sampled_from(
        ["metrics", "run", "adversary", "oracle", "montecarlo", "campaign"]
    ))
    if command == "metrics":
        owners = st.lists(st.integers(1, n), min_size=m, max_size=m)
        owners = st.one_of(owners, st.lists(st.integers(0, 5), max_size=7))
        checks = st.lists(st.sampled_from(["prop1", "ef1", "propx", "mms", "bogus"]), min_size=1)
        argv = ["--instance", inst, "--allocation", file("alloc", json.dumps({"owner": draw(owners)})),
                *opt("--check", checks.map(",".join)), *opt("--alpha", rationals)]
    elif command == "run":
        argv = ["--algo", draw(st.sampled_from(RULES)), "--instance", inst,
                *opt("--epsilon", rationals), *opt("--seed", st.integers(0, 99))]
        if draw(st.booleans()):
            p = draw(st.lists(st.one_of(units, st.just("1")), min_size=n - 1, max_size=n + 1))
            argv += ["--predictions", file("pred", json.dumps({"p": p}))]
    elif command == "adversary":
        argv = ["--target", draw(st.sampled_from(CONSTRUCTIONS)), f"--alpha={draw(rationals)}",
                f"--max-steps={draw(st.integers(0, 200))}", *opt("--n", small_ints),
                *opt("--allocator", st.sampled_from(RULES))]
    elif command == "oracle":
        argv = ["--op", draw(st.sampled_from(["rand-alpha", "bernstein", "moments", "best-alloc"])),
                *opt("--n", small_ints), *opt("--delta", rationals),
                *opt("--variance-bound", rationals), *opt("--term-bound", rationals),
                *opt("--deviation", rationals), *opt("--agent", small_ints), *opt("--alpha", rationals)]
        if draw(st.booleans()):
            argv += ["--instance", inst]
    elif command == "montecarlo":
        argv = [f"--n={draw(st.sampled_from([n, n, n, 0, 1]))}", f"--delta={draw(rationals)}",
                "--instance", inst, f"--trials={draw(st.integers(0, 20))}",
                f"--seed={draw(st.integers(0, 99))}"]
    else:
        argv = ["--config", file("config", draw(campaigns()))]
    return [command, *argv, "--out", "{out}"], files


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_invocation_exits_cleanly(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"missing": os.path.join(tmp, "missing.json"), "out": os.path.join(tmp, "out")}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, files, code)
    if code == 1:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("fairdiv: error: "), (argv, files, lines)



@pytest.mark.parametrize("text", MALFORMED)
def test_every_malformed_config_exits_one_with_one_line(text, tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "rows.csv"
    config.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["campaign", "--config", str(config), "--out", str(out)])
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("fairdiv: error: "), (text, lines)
    assert not out.exists()


#: Depths below, at and past Python's recursion limit (1000 by default).
DEPTHS = [2, 500, 990, 1001, 2000, 100_000]
#: Per file kind: a command reading it from ``{file}``, with its other files
#: well formed, and that kind's texts with ``{deep}`` for a nested value.
NESTED = {
    "instance": (["run", "--algo", "greedy1", "--instance", "{file}"],
                 ['{"values": {deep}}', '{"values": [{deep}, ["1"]]}', '{"values": [["1", {deep}], ["1", "1"]]}',
                  '{"n": {deep}, "values": [["1"], ["1"]]}']),
    "allocation": (["metrics", "--instance", "{ok}", "--allocation", "{file}"],
                   ['{"owner": {deep}}', '{"owner": [1, {deep}]}']),
    "predictions": (["run", "--algo", "miv", "--instance", "{ok}", "--predictions", "{file}"],
                    ['{"p": {deep}}', '{"p": ["1", {deep}]}', '{"p": ["1", "1"], "epsilon": {deep}}']),
    "config": (["campaign", "--config", "{file}"],
               ['{"rows": {deep}}', '{"rows": [{deep}]}', '{"rows": [{"construction": {deep}, "alpha": "1/2"}]}',
                '{"rows": [{"construction": "greedy1", "alpha": {deep}}]}']),
}


@pytest.mark.parametrize("shape", ["array", "object"])
@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("kind", NESTED)
def test_a_nested_file_of_every_kind_exits_one_with_one_line(kind, depth, shape, tmp_path):
    """Arrays or objects nested to any depth, where a file holds a value,
    give exit 1 and one line; past the recursion limit the line names the
    file as nested too deeply."""
    deep = "[" * depth + "]" * depth if shape == "array" else '{"a": ' * depth + "1" + "}" * depth
    ok = tmp_path / "ok.json"
    ok.write_text('{"values": [["1", "1/2"], ["1/3", "1"]]}', encoding="utf-8")
    argv, texts = NESTED[kind]
    for k, text in enumerate(texts):
        path = tmp_path / f"{kind}-{k}.json"
        path.write_text(text.replace("{deep}", deep), encoding="utf-8")
        args = [a.format(file=path, ok=ok) for a in argv] + ["--out", str(tmp_path / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("fairdiv: error: "), (text, depth, lines)
        assert len(lines[0].replace(str(path), "")) < 200, lines[0]  # a quoted value is cut
        if depth > 1000:
            assert lines[0] == f"fairdiv: error: {path}: nested too deeply", (text, depth, lines)


SRC = Path(__file__).resolve().parent.parent / "src"
#: A child that runs ``fairdiv`` on its argv with ``sys.path`` from argv[1].
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); from fairdiv import cli; sys.exit(cli.main(sys.argv[2:]))"
#: As ``CHILD``, under an address-space limit of 64 MiB over what it has mapped
#: once ``fairdiv`` is imported; the limit acts on the child alone.
LIMITED_CHILD = (
    "import resource, sys; sys.path.insert(0, sys.argv[1]); from fairdiv import cli; cli.build_parser(); "
    "pages = int(open('/proc/self/statm').read().split()[0]); "
    "size = pages * resource.getpagesize() + (64 << 20); "
    "resource.setrlimit(resource.RLIMIT_AS, (size, size)); "
    "sys.exit(cli.main(sys.argv[2:]))"
)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux's /dev/full")
@pytest.mark.parametrize("algo", ["greedy1", "miv"])
def test_a_full_standard_output_exits_one_with_one_line(algo, tmp_path):
    """Every write to /dev/full fails with ENOSPC: the command says so in
    one line, and the flush at exit adds no "Exception ignored" report."""
    inst = tmp_path / "i.json"
    inst.write_text('{"values": [["1", "1/2", "1"], ["1/3", "1", "1"]]}', encoding="utf-8")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), "run", "--algo", algo, "--instance", str(inst)],
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "fairdiv: error: cannot write standard output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not (sys.platform.startswith("linux") and os.path.exists("/proc/self/statm")),
                    reason="sizes the address-space limit from Linux's /proc")
@pytest.mark.parametrize("command", ["run", "metrics"])
def test_running_out_of_memory_exits_one_with_one_line(command, tmp_path):
    """A child whose address space is capped loads an instance that needs more."""
    inst, alloc, m = tmp_path / "big.json", tmp_path / "a.json", 400_000
    inst.write_text(json.dumps({"values": [["1/2"] * m, ["1/3"] * m]}), encoding="utf-8")
    alloc.write_text(json.dumps({"owner": [1, 2] * (m // 2)}), encoding="utf-8")
    argv = (["run", "--algo", "greedy1", "--instance", str(inst)] if command == "run"
            else ["metrics", "--instance", str(inst), "--allocation", str(alloc)])
    proc = subprocess.run([sys.executable, "-c", LIMITED_CHILD, str(SRC), *argv],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "fairdiv: error: out of memory\n")


#: Per subcommand: its required flags, and its flags taking a rational, an
#: integer or one of fixed choices.
GRAMMAR = {
    "metrics": {"required": ("--instance", "--allocation"), "rational": ("--alpha",)},
    "run": {"required": ("--algo", "--instance"), "rational": ("--epsilon",),
            "integer": ("--seed",), "choice": ("--algo",)},
    "adversary": {"required": ("--target", "--alpha"), "rational": ("--alpha",),
                  "integer": ("--n", "--max-steps"),
                  "choice": ("--target", "--allocator")},
    "oracle": {"required": ("--op",), "integer": ("--n", "--agent"), "choice": ("--op",),
               "rational": ("--delta", "--variance-bound", "--term-bound", "--deviation",
                            "--alpha")},
    "montecarlo": {"required": ("--n", "--delta", "--instance", "--trials", "--seed"),
                   "rational": ("--delta",), "integer": ("--n", "--trials", "--seed")},
    "campaign": {"required": ("--config", "--out")},
}
BAD = {"rational": ["1/0", "x", "1//2", ""], "integer": ["two", "1.5", "1/2", ""],
       "choice": ["nope"]}


def kinds(command):
    """The ways argparse can be made to reject an argv of ``command``: an
    unknown flag, a required flag left out, or a flag given a bad value."""
    return ["unknown", *GRAMMAR[command]]


@st.composite
def rejected_invocations(draw, command, kind):
    """argv as from ``invocations``, changed so that argparse rejects it."""
    argv, _ = draw(invocations(command))
    if kind == "unknown":
        return argv + [draw(st.sampled_from(["--bogus", "--bogus=1", "-x"]))]
    flag = draw(st.sampled_from(GRAMMAR[command][kind]))
    if kind == "required":
        kept = []
        for arg in argv:
            if kept and kept[-1] == flag:
                kept.pop()  # the flag and its separate value
            elif not arg.startswith(flag + "="):
                kept.append(arg)
        return kept
    return argv + [f"{flag}={draw(st.sampled_from(BAD[kind]))}"]


@pytest.mark.parametrize("command, kind", [(c, k) for c in GRAMMAR for k in kinds(c)])
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_rejected_argv_exits_one_with_one_line(command, kind, data):
    argv = data.draw(rejected_invocations(command, kind))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # argparse rejects before any file is opened
    lines = err.getvalue().splitlines()
    assert code == 1 and out.getvalue() == "", (argv, code)
    assert len(lines) == 1 and lines[0].startswith("fairdiv: error: "), (argv, lines)
