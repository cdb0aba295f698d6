import csv
import json
import random
import sys
import tempfile
import time
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import MivAllocator, Predictions, cli, core, harness, instance_from_rows, load_instance, metrics, run
from fairdiv.cli import main
from fairdiv.errors import DomainError, InvariantError
from conftest import check_predictions

F = Fraction

INSTANCE = '{"n": 2, "m": 3, "values": [["1", "1/2", "0.25"], ["1", "1", "0"]]}\n'
ALLOCATION = '{"owner": [1, 2, 1]}\n'


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(INSTANCE, encoding="utf-8")
    return str(path)


@pytest.fixture
def alloc_file(tmp_path):
    path = tmp_path / "alloc.json"
    path.write_text(ALLOCATION, encoding="utf-8")
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestMetricsCommand:
    def test_all_four_checks_share_one_ownership_pass(self, inst_file, alloc_file, tmp_path, monkeypatch):
        calls, check = [], metrics.check_allocation

        def counting(inst, alloc):
            calls.append(alloc)
            return check(inst, alloc)

        monkeypatch.setattr(metrics, "check_allocation", counting)
        out = tmp_path / "report.json"
        argv = ["metrics", "--instance", inst_file, "--allocation", alloc_file,
                "--check", "prop1,ef1,propx,mms", "--out", str(out)]
        assert main(argv) == 0
        assert len(calls) == 1
        assert set(read_json(out)) == {"alpha", "prop1", "ef1", "propx", "mms"}

    def test_full_report(self, inst_file, alloc_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "metrics",
                "--instance",
                inst_file,
                "--allocation",
                alloc_file,
                "--check",
                "prop1,ef1,mms,propx",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_json(str(out))
        assert report["prop1"]["ratio"] == "1"
        assert report["ef1"]["satisfied"] is True
        assert report["mms"]["per_agent"] == ["3/4", "1"]

    def test_report_replays_the_allocation_once(self, inst_file, alloc_file, monkeypatch, capsys):
        from fairdiv import metrics

        replays = []

        class Counted(metrics.Prop1State):
            def __init__(self, n):
                super().__init__(n)
                replays.append(n)

        monkeypatch.setattr(metrics, "Prop1State", Counted)
        argv = ["metrics", "--instance", inst_file, "--allocation", alloc_file]
        assert main([*argv, "--check", "prop1,ef1,propx,mms"]) == 0
        assert replays == []  # the offline checks build no running state

    def test_alpha_flag_parses_exactly(self, inst_file, alloc_file, capsys):
        code = main(
            ["metrics", "--instance", inst_file, "--allocation", alloc_file, "--alpha", "1/3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha"] == "1/3"

    @pytest.mark.parametrize(
        "values, message",
        [
            ([["-1"], ["1"]], "negative valuation -1"),
            ([["1", "2"], ["-1"]], "negative valuation -1"),  # the bad cell before the ragged row
            ([["-1"]], "negative valuation -1"),
            ([["1", "2"], ["1"]], "ragged valuation matrix"),
            ([["1"]], "an instance needs at least 2 agents"),
            ([[1, True], [1, 1]], "not a rational literal: True"),
            ([["1", True], ["1", "1"]], "not a rational literal: True"),  # "1" parsed first
            # a repeated bad literal: the first bad cell in file order is reported
            ([["1", "x"], ["1/0", "x"]], "bad rational literal 'x': Invalid literal for Fraction: 'x'"),
            ([["1/0", "x"], ["x", "1/0"]], "bad rational literal '1/0': Fraction(1, 0)"),
        ],
    )
    def test_bad_instance_file_is_a_domain_error(self, values, message, tmp_path, alloc_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"values": values}), encoding="utf-8")
        assert main(["metrics", "--instance", str(bad), "--allocation", alloc_file]) == 1
        assert capsys.readouterr().err == f"fairdiv: error: {bad}: {message}\n"

    @pytest.mark.parametrize(
        "values", [json.loads(INSTANCE)["values"], [["1", "x"], ["1", "1"]]], ids=["good", "bad"]
    )
    def test_unknown_check_exits_one_with_one_line(self, values, tmp_path, alloc_file, capsys):
        # the names are checked before any file is read
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"values": values}), encoding="utf-8")
        argv = ["metrics", "--instance", str(inst), "--allocation", alloc_file]
        assert main([*argv, "--check", "prop1,bogus"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fairdiv: error: unknown checks: ['bogus']\n"

    @pytest.mark.parametrize("names", [",", "", " , "])
    def test_an_empty_check_list_exits_one_with_one_line(self, names, inst_file, alloc_file, capsys):
        argv = ["metrics", "--instance", inst_file, "--allocation", alloc_file]
        assert main([*argv, f"--check={names}"]) == 1
        assert capsys.readouterr() == (
            "", "fairdiv: error: --check names no check; choose from prop1, ef1, propx, mms\n"
        )


@pytest.mark.parametrize(
    "argv, bad, content, message",
    [
        (["run", "--algo", "miv", "--instance", "{bad}"], "i.json",
         {"values": [["1", "x"], ["1", "1"]]},
         "bad rational literal 'x': Invalid literal for Fraction: 'x'"),
        (["run", "--algo", "miv", "--instance", "{inst}", "--predictions", "{bad}"], "p.json",
         {"p": ["1", "x"]}, "bad rational literal 'x': Invalid literal for Fraction: 'x'"),
        (["metrics", "--instance", "{inst}", "--allocation", "{bad}"], "a.json",
         {"owner": [1, "x", 1]}, "owner entry must be an integer, got 'x'"),
    ],
    ids=["instance", "predictions", "allocation"],
)
def test_an_error_in_a_file_names_the_file(argv, bad, content, message, inst_file, tmp_path, capsys):
    path = tmp_path / bad
    path.write_text(json.dumps(content), encoding="utf-8")
    assert main([arg.format(bad=path, inst=inst_file) for arg in argv]) == 1
    assert capsys.readouterr().err == f"fairdiv: error: {path}: {message}\n"


LONG_INTEGER = "1" * 5000  # past Python's 4,300-digit int-to-str limit


@pytest.mark.parametrize(
    "argv, content",
    [
        (["montecarlo", "--n", "2", "--delta", "1/20", "--trials", "3", "--seed", "1",
          "--instance", "{bad}"], f'{{"values": [[{LONG_INTEGER}, 1], [1, 1]]}}'),
        (["oracle", "--op", "best-alloc", "--instance", "{bad}"],
         f'{{"values": [[{LONG_INTEGER}, 1], [1, 1]]}}'),
        (["campaign", "--config", "{bad}", "--out", "{out}"],
         f'{{"rows": [{{"construction": "greedy1", "alpha": "1/2", "n": {LONG_INTEGER}}}]}}'),
    ],
    ids=["montecarlo-instance", "best-alloc-instance", "campaign-config"],
)
def test_an_oversized_json_integer_exits_one_naming_the_file(argv, content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(content, encoding="utf-8")
    assert main([arg.format(bad=path, out=tmp_path / "out") for arg in argv]) == 1
    assert capsys.readouterr() == (
        "", f"fairdiv: error: {path}: an integer past Python's int-to-str digit limit\n"
    )


def test_an_exponent_past_the_digit_limit_in_a_json_number_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"values": [[1e9999999, 1], [1, 1]]}', encoding="utf-8")
    started = time.perf_counter()
    assert main(["run", "--algo", "greedy1", "--instance", str(path),
                 "--out", str(tmp_path / "out.json")]) == 1
    assert time.perf_counter() - started < 1
    assert capsys.readouterr() == ("", f"fairdiv: error: {path}: bad rational literal "
                                       "'1e9999999': exponent magnitude over 4300\n")
    assert not (tmp_path / "out.json").exists()


def test_a_long_refused_literal_is_cut_in_its_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a short relative path, so the line's length is the message's
    Path("big.json").write_text(f'{{"values": [[1.{LONG_INTEGER}, 1], [1, 1]]}}', encoding="utf-8")
    assert main(["run", "--algo", "greedy1", "--instance", "big.json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err.encode()) < 200
    assert err == ("fairdiv: error: big.json: bad rational literal "
                   f"'1.{LONG_INTEGER[:38]}'… (5002 characters): "
                   "Exceeds the limit (4300 digits) for integer string conversion\n")


#: A target below 1/10**4999, and a number of 5,000 digits: each error text
#: about them writes a number past Python's int-to-str digit limit.
TINY, HUGE = f"1/{LONG_INTEGER}", f"{LONG_INTEGER}/1"
#: (10^4400 + 1) / (3 * 10^4400): just above 1/3, with terms past the limit.
WIDE = "1" + "0" * 4399 + "1/3" + "0" * 4400


@pytest.mark.parametrize(
    "argv",
    [
        ["adversary", "--target", "greedy1", "--alpha", TINY],
        ["campaign", "--config", "{config}", "--out", "{out}"],
        ["adversary", "--target", "greedy1", "--alpha", HUGE],
        ["adversary", "--target", "greedy3", "--alpha", HUGE],
        ["metrics", "--instance", "{inst}", "--allocation", "{alloc}", "--alpha", HUGE],
        ["oracle", "--op", "moments", "--instance", "{inst}", "--agent", "1", "--alpha", HUGE],
        ["oracle", "--op", "rand-alpha", "--n", "2", "--delta", HUGE],
        ["montecarlo", "--n", "2", "--delta", HUGE, "--instance", "{inst}", "--trials", "1", "--seed", "1"],
        ["run", "--algo", "miv", "--instance", "{inst}", "--epsilon", HUGE],
        ["run", "--algo", "greedy1", "--instance", "{declared}"],
        ["metrics", "--instance", "{one_good}", "--allocation", "{owner}"],
    ],
    ids=["horizon", "campaign-horizon", "target", "greedy3-target", "metrics-alpha", "moments-alpha",
         "rand-alpha-delta", "montecarlo-delta", "run-epsilon", "declared-n", "owner"],
)
def test_a_number_past_the_digit_limit_is_cut_in_its_one_line(argv, inst_file, alloc_file, tmp_path, capsys):
    files = {"config": json.dumps({"rows": [{"construction": "greedy1", "alpha": TINY}]}),
             # a JSON number of 5,000 digits, read as an exact integer
             "declared": f'{{"n": {LONG_INTEGER[:4000]}e1000, "values": [["1"], ["1"]]}}',
             "one_good": '{"values": [["1"], ["1"]]}', "owner": f'{{"owner": [{LONG_INTEGER[:4000]}e1000]}}'}
    for name, text in files.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = [arg.format(inst=inst_file, alloc=alloc_file, out=out, **files) for arg in argv]
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1 and err.startswith("fairdiv: error: ")
    assert "… (5000 characters)" in err and len(err) < 300
    assert not out.exists()


CAMPAIGN = ["campaign", "--config", "c.json", "--out", "out"]


def _row(**fields):
    """A campaign config of one row, alpha 1/2 unless ``fields`` give one."""
    return json.dumps({"rows": [{"alpha": "1/2", **fields}]})


@pytest.mark.parametrize(
    "argv, files",
    [
        (["run", "--algo", "miv", "--instance", "big.json"], {}),
        (["run", "--algo", "miv", "--instance", "big.json", "--epsilon", "1/2"], {}),
        (["run", "--algo", "miv", "--instance", "ones.json", "--predictions", "p.json"],
         {"p.json": json.dumps({"p": [TINY, "1"]})}),
        (["adversary", "--target", "greedy3", "--n", str(10**30), "--alpha", "1/3", "--max-steps", "20"], {}),
        (CAMPAIGN, {"c.json": _row(construction="greedy3", alpha="1/3", n=LONG_INTEGER, max_steps=20)}),
        (["adversary", "--target", "greedy1", "--n", str(10**30), "--alpha", "1", "--max-steps", str(10**32)], {}),
        (["adversary", "--target", "greedy1", "--n", "4" + "0" * 18, "--alpha", "1", "--max-steps", str(10**32)], {}),
        (CAMPAIGN, {"c.json": _row(construction="greedy1", n="1.5" + LONG_INTEGER)}),
        (CAMPAIGN, {"c.json": _row(construction=LONG_INTEGER)}),
        (CAMPAIGN, {"c.json": _row(construction="greedy1", allocator=LONG_INTEGER)}),
        (CAMPAIGN, {"c.json": _row(construction="miv-impossibility", notion=LONG_INTEGER)}),
        (CAMPAIGN, {"c.json": _row(construction="greedy1", notion=LONG_INTEGER)}),
        (CAMPAIGN, {"c.json": _row(construction="greedy1", max_steps="-" + LONG_INTEGER)}),
    ],
    ids=["miv-huge-cell", "miv-huge-cell-epsilon", "tiny-prediction", "greedy3-agents", "campaign-greedy3-agents",
         "budget-past-maxsize", "budget-past-maxsize-memory", "campaign-integer", "campaign-construction",
         "campaign-allocator", "campaign-notion", "campaign-notion-on-greedy1", "campaign-negative-budget"],
)
def test_a_refused_value_gives_one_short_error_line(argv, files, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # short relative paths, so the line's length is the message's
    files = {"big.json": '{"values": [["1' + "0" * 5000 + '", "1"], ["1", "1"]]}',
             "ones.json": '{"values": [["1", "1"], ["1", "1"]]}', **files}
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("fairdiv: error: ") and len(err) < 250
    assert not Path("out").exists()


def test_a_campaign_writes_a_wide_alpha_as_the_adversary_command_does(tmp_path):
    config, rows, out = (tmp_path / name for name in ("config.json", "rows.csv", "adv.json"))
    config.write_text(json.dumps({"rows": [{"construction": "greedy1", "alpha": WIDE}]}), encoding="utf-8")
    assert main(["campaign", "--config", str(config), "--out", str(rows)]) == 0
    with open(rows, encoding="utf-8", newline="") as fh:
        (cells,) = csv.DictReader(fh)
    assert main(["adversary", "--target", "greedy1", "--alpha", WIDE, "--out", str(out)]) == 0
    payload = read_json(str(out))
    assert cells["alpha"] == payload["alpha"] == WIDE
    assert cells["prop1_ratio"] == payload["achieved_prop1_ratio"]


def test_a_file_that_is_not_utf8_exits_one_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"values": [["\xff"]]}')
    assert main(["oracle", "--op", "best-alloc", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"fairdiv: error: cannot read {path}: 'utf-8' codec can't decode byte 0xff"
        " in position 14: invalid start byte\n"
    )


class TestRunCommand:
    def test_miv_run_writes_a_trace(self, inst_file, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["run", "--algo", "miv", "--instance", inst_file, "--out", str(out)]) == 0
        trace = read_json(str(out))
        assert trace["owners"] == [1, 2, 1]
        assert len(trace["phi_total"]) == 4  # includes the starting value

    def test_rand_requires_seed(self, inst_file, capsys):
        assert main(["run", "--algo", "rand", "--instance", inst_file]) == 1
        assert capsys.readouterr().err == "fairdiv: error: allocator 'rand' needs a seed\n"

    def test_rand_with_seed_is_reproducible(self, inst_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "run",
                        "--algo",
                        "rand",
                        "--instance",
                        inst_file,
                        "--seed",
                        "7",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_predictions_for_another_number_of_agents_exit_one(self, inst_file, tmp_path, capsys):
        pred = tmp_path / "p.json"
        pred.write_text('{"p": ["1", "1", "1"]}', encoding="utf-8")
        assert main(["run", "--algo", "miv", "--instance", inst_file, "--predictions", str(pred)]) == 1
        assert capsys.readouterr() == ("", "fairdiv: error: allocator handles 2 agents, predictions cover 3\n")

    def test_predictions_only_for_miv(self, inst_file, capsys):
        assert (
            main(
                ["run", "--algo", "greedy1", "--instance", inst_file, "--epsilon", "1/4"]
            )
            == 1
        )

    def test_epsilon_run(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text(
            '{"values": [["0.9", "0.5"], ["1", "0.25"]]}', encoding="utf-8"
        )
        assert (
            main(
                ["run", "--algo", "miv", "--instance", str(inst), "--epsilon", "1/10"]
            )
            == 0
        )

    def test_contract_violation_is_a_domain_error(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_text('{"values": [["2"], ["1"]]}', encoding="utf-8")
        assert main(["run", "--algo", "miv", "--instance", str(inst)]) == 1

    def test_raw_value_above_its_prediction_exits_one(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_text('{"values": [["3/2"], ["1/2"]]}', encoding="utf-8")
        out = tmp_path / "trace.json"
        argv = ["run", "--algo", "miv", "--instance", str(inst), "--epsilon", "1/10"]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fairdiv: error:") and err.count("\n") == 1
        assert "exceeds its predicted maximum 1" in err and not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--epsilon", "1/4"]])
    def test_a_potential_too_long_to_write_exits_one(self, flags, tmp_path, capsys, monkeypatch):
        # under a 4300-digit budget every alpha cell fits; the summed potential does not
        monkeypatch.setattr(core, "WRITE_DIGITS", 4300)
        p, q = 10**2200 + 1, 10**2200 + 3
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"values": [["1", f"1/{p}"], [f"1/{q}", "1"]]}), encoding="utf-8")
        assert main(["run", "--algo", "greedy3", "--instance", str(inst)]) == 0
        capsys.readouterr()
        assert main(["run", "--algo", "miv", "--instance", str(inst), *flags]) == 1
        assert capsys.readouterr() == (
            "", "fairdiv: error: rational too long to write: an integer over 4300 digits\n"
        )

    def test_a_potential_past_the_digit_limit_is_written(self, tmp_path):
        """Wide denominators: MIV's summed potential outgrows Python's
        int-to-str digit limit (4300 digits) and is written in pieces."""
        rng, rows = random.Random(5), []
        for _ in range(3):
            row = [F(rng.randint(0, q - 1), q) for q in (rng.randint(1, 10**6) for _ in range(500))]
            row[rng.randrange(500)] = F(1)
            rows.append([str(v) for v in row])
        inst, out = tmp_path / "i.json", tmp_path / "trace.json"
        inst.write_text(json.dumps({"values": rows}), encoding="utf-8")
        assert main(["run", "--algo", "miv", "--instance", str(inst), "--out", str(out)]) == 0
        last = json.loads(out.read_text(encoding="utf-8"))["phi_total"][-1]
        potential = run(MivAllocator(3), load_instance(str(inst))).potential[-1]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(potential.denominator)) > 4300 and last == str(potential)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_an_instance_past_the_digit_limit_is_read_back(self, tmp_path):
        """Cells with a 5,000-digit denominator, past Python's int-to-str
        digit limit, as ``adversary`` writes them for small targets."""
        den = "1" + "0" * 4998 + "9"
        inst, alloc = tmp_path / "i.json", tmp_path / "a.json"
        inst.write_text(json.dumps({"values": [["1", f"1/{den}"], [f"2/{den}", "1"]]}), encoding="utf-8")
        alloc.write_text(json.dumps({"owner": [1, 2]}), encoding="utf-8")
        trace, report = tmp_path / "trace.json", tmp_path / "report.json"
        assert main(["run", "--algo", "greedy1", "--instance", str(inst), "--out", str(trace)]) == 0
        assert read_json(trace)["owners"] == [1, 2]
        assert main(["metrics", "--instance", str(inst), "--allocation", str(alloc), "--out", str(report)]) == 0
        assert read_json(report)["prop1"]["ratio"] == "1"

    def test_tampered_miv_state_exits_two(self, inst_file, monkeypatch, capsys):
        from fairdiv import algorithms

        class Tampered(algorithms.MivAllocator):
            def __init__(self, n):
                super().__init__(n)
                self.N[0] = 0  # D = N / L

        monkeypatch.setitem(algorithms.ALLOCATORS, "miv", Tampered)
        assert main(["run", "--algo", "miv", "--instance", inst_file]) == 2
        assert "invariant breach: non-positive potential denominator" in capsys.readouterr().err

    def test_prop1_ratio_comes_from_the_running_state(self, inst_file, monkeypatch, capsys):
        from fairdiv import metrics

        def no_replay(*args):
            raise AssertionError("run replayed the allocation")

        monkeypatch.setattr(metrics, "prop1_ratio", no_replay)
        monkeypatch.setattr(metrics, "check_alpha_prop1", no_replay)
        for flags in (["--algo", "greedy3"], ["--algo", "miv", "--epsilon", "1/4"]):
            assert main(["run", *flags, "--instance", inst_file]) == 0
            assert json.loads(capsys.readouterr().out)["prop1_ratio"] == "1"

    @pytest.mark.parametrize(
        "values, flags, met",
        [
            # agent 1 never sees a good worth its prediction 1
            ([["1/2", "1/2"], ["1", "1"]], [], False),
            ([["1", "1/2"], ["1/4", "1"]], [], True),
            ([["1/2", "1/2"], ["1", "1"]], ["--epsilon", "1/2"], True),
            ([["1/2", "1/2"], ["1", "1"]], ["--predictions", "{pred}"], True),
        ],
    )
    def test_miv_run_reports_the_prediction_contract(self, values, flags, met, tmp_path, capsys):
        inst, pred = tmp_path / "i.json", tmp_path / "p.json"
        inst.write_text(json.dumps({"values": values}), encoding="utf-8")
        pred.write_text('{"p": ["1/2", "1"]}', encoding="utf-8")
        argv = ["run", "--algo", "miv", "--instance", str(inst)]
        assert main([*argv, *(flag.format(pred=pred) for flag in flags)]) == 0
        assert json.loads(capsys.readouterr().out)["prediction_contract_met"] is met

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epsilon", "3/2"], "one-sided error 3/2 must lie in [0, 1)"),
            (["--predictions", "{pred}"], "{pred}: prediction 0 must be a positive rational"),
        ],
        ids=["epsilon", "prediction"],
    )
    def test_a_prediction_refusal_quotes_the_value(self, flags, message, inst_file, tmp_path, capsys):
        pred = tmp_path / "p.json"
        pred.write_text('{"p": ["0", "1"]}', encoding="utf-8")
        argv = ["run", "--algo", "miv", "--instance", inst_file, *(f.format(pred=pred) for f in flags)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"fairdiv: error: {message.format(pred=pred)}\n")

    def test_greedy_runs_report_no_prediction_contract(self, inst_file, capsys):
        for flags in (["--algo", "greedy1"], ["--algo", "greedy2"], ["--algo", "greedy3"],
                      ["--algo", "rand", "--seed", "3"]):
            assert main(["run", *flags, "--instance", inst_file]) == 0
            assert "prediction_contract_met" not in json.loads(capsys.readouterr().out)


class TestAdversaryCommand:
    def test_greedy1_instance_and_trace(self, tmp_path):
        out = tmp_path / "adv.json"
        code = main(
            ["adversary", "--target", "greedy1", "--n", "2", "--alpha", "1/10", "--out", str(out)]
        )
        assert code == 0
        payload = read_json(str(out))
        assert payload["steps"] == 40
        assert payload["achieved_prop1_ratio"] == "4/41"
        assert payload["target_reached"] is True
        assert payload["instance"]["m"] == 40

    def test_greedy2_instance_and_trace(self, tmp_path):
        out = tmp_path / "adv.json"
        code = main(
            ["adversary", "--target", "greedy2", "--n", "2", "--alpha", "1/2", "--out", str(out)]
        )
        assert code == 0
        payload = read_json(str(out))
        assert payload["steps"] == 9
        assert F(payload["achieved_prop1_ratio"]) < F(1, 2)

    def test_greedy3_infeasible_target(self, capsys):
        assert main(["adversary", "--target", "greedy3", "--alpha", "9/10"]) == 1
        assert "infeasible" in capsys.readouterr().err

    def test_greedy3_reaches_target(self, tmp_path):
        out = tmp_path / "adv.json"
        code = main(
            [
                "adversary",
                "--target",
                "greedy3",
                "--alpha",
                "3/5",
                "--max-steps",
                "100000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = read_json(str(out))
        assert payload["target_reached"] is True
        assert F(payload["achieved_prop1_ratio"]) < F(3, 5)

    def test_impossibility_separation(self, tmp_path):
        out = tmp_path / "adv.json"
        code = main(
            [
                "adversary",
                "--target",
                "miv-impossibility",
                "--n",
                "2",
                "--alpha",
                "1/2",
                "--allocator",
                "miv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = read_json(str(out))
        assert payload["prop1_at_inv_n"] is True
        assert payload["alpha_ef1"] is False
        assert payload["alpha_mms"] is False
        assert payload["alpha_propx"] is False

    @pytest.mark.parametrize("target, m", [("greedy2", 9), ("miv-impossibility", 8)])
    def test_the_step_budget_bounds_a_fixed_horizon(self, target, m, tmp_path, capsys):
        argv = ["adversary", "--target", target, "--n", "2", "--alpha", "1/2"]
        out = tmp_path / "adv.json"
        assert main([*argv, "--max-steps", str(m), "--out", str(out)]) == 0
        assert read_json(str(out))["steps"] == m
        capsys.readouterr()
        assert main([*argv, "--max-steps", str(m - 1)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"fairdiv: error: {target} needs {m} goods, over the step budget of {m - 1}"]

    def test_a_huge_static_horizon_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["adversary", "--target", "greedy1", "--alpha", "1/100000000"])
        assert code == 1 and time.perf_counter() - start < 5
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("fairdiv: error: greedy1 needs ")

    def test_impossibility_just_under_the_mms_guard_gets_a_verdict(self, tmp_path):
        out = tmp_path / "adv.json"
        argv = ["adversary", "--target", "miv-impossibility", "--n", "2", "--alpha", "1/9"]
        assert main([*argv, "--out", str(out)]) == 0
        payload = read_json(str(out))
        assert payload["steps"] == 22  # 2^22 labeled partitions, under the MMS guard
        assert payload["alpha_mms"] is False

    def test_impossibility_above_the_mms_guard_reports_null(self, tmp_path):
        out = tmp_path / "adv.json"
        argv = ["adversary", "--target", "miv-impossibility", "--n", "2", "--alpha", "1/20"]
        assert main([*argv, "--out", str(out)]) == 0
        payload = read_json(str(out))
        assert payload["steps"] == 44  # 2^44 labeled partitions exceed the MMS guard
        assert payload["alpha_mms"] is None
        assert payload["alpha_ef1"] is False and payload["prop1_at_inv_n"] is True

    def test_greedy3_budget_shortfall_returns_quickly(self, tmp_path):
        out = tmp_path / "adv.json"
        start = time.perf_counter()
        code = main(["adversary", "--target", "greedy3", "--alpha", "1/10", "--max-steps", "20",
                     "--out", str(out)])
        assert code == 0 and time.perf_counter() - start < 5
        payload = read_json(str(out))
        assert payload["target_reached"] is False and payload["steps"] == 20
        assert payload["certified_cycles_bound"] > 10**16

    @pytest.mark.parametrize(
        "row",
        [
            {"construction": "greedy1", "n": 3, "alpha": "1/5"},
            {"construction": "greedy2", "n": 2, "alpha": "1/3"},
            {"construction": "greedy3", "n": 2, "alpha": "1/10", "max_steps": 50},
            {"construction": "miv-impossibility", "n": 2, "alpha": "1/3", "allocator": "greedy2",
             "notion": "propx"},
            {"construction": "miv-impossibility", "n": 2, "alpha": "1/20"},
        ],
        ids=lambda row: row["construction"],
    )
    def test_campaign_row_matches_the_adversary_command(self, row, tmp_path):
        config, rows, out = (tmp_path / name for name in ("config.json", "rows.csv", "adv.json"))
        config.write_text(json.dumps({"rows": [row]}), encoding="utf-8")
        assert main(["campaign", "--config", str(config), "--out", str(rows)]) == 0
        with open(rows, encoding="utf-8", newline="") as fh:
            (cells,) = csv.DictReader(fh)
        argv = ["adversary", "--target", row["construction"], "--n", str(row["n"]),
                "--alpha", row["alpha"], "--out", str(out)]
        if "allocator" in row:
            argv += ["--allocator", row["allocator"]]
        if "max_steps" in row:
            argv += ["--max-steps", str(row["max_steps"])]
        assert main(argv) == 0
        payload = read_json(str(out))
        assert cells["steps"] == str(payload["steps"])
        assert cells["prop1_ratio"] == payload["achieved_prop1_ratio"]
        assert cells["allocator"] == payload.get("allocator", row["construction"])
        for key in ("prop1_at_inv_n", "alpha_ef1", "alpha_mms", "alpha_propx"):
            flag = payload.get(key)
            assert cells[key] == ("" if flag is None else str(flag).lower())

    def test_allocator_flag_restricted(self, capsys):
        assert (
            main(["adversary", "--target", "greedy1", "--alpha", "1/2", "--allocator", "miv"])
            == 1
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--target", "miv-impossibility", "--alpha", "1/2", "--notion", "ef1"],
            ["--target", "greedy3", "--alpha", "1/2", "--allocator", "greedy2"],
            # eps = 1/K^(m-2) has 4,656 digits, past the 4,300-digit budget set below
            ["--target", "miv-impossibility", "--n", "2", "--alpha", "1/700",
             "--allocator", "greedy1"],
        ],
        ids=["notion-flag", "greedy3-allocator", "too-long-to-write"],
    )
    def test_rejected_runs_exit_one_with_one_line(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(core, "WRITE_DIGITS", 4300)
        assert main(["adversary", *argv]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("fairdiv: error: ")

    def test_rand_is_not_an_adversary_allocator(self, capsys):
        # adversary has no --seed: a rand victim runs through a campaign row with a seed
        argv = ["adversary", "--target", "miv-impossibility", "--alpha", "1/2", "--allocator", "rand"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "fairdiv: error: argument --allocator: invalid choice: "
                                           "'rand' (choose from 'greedy1', 'greedy2', 'greedy3', 'miv')\n")

    def test_a_greedy_target_accepts_its_own_allocator(self, tmp_path):
        out = tmp_path / "adv.json"
        argv = ["adversary", "--target", "greedy2", "--alpha", "1/3", "--out", str(out)]
        assert main(argv) == 0
        plain = out.read_bytes()
        assert main([*argv, "--allocator", "greedy2"]) == 0
        assert out.read_bytes() == plain


class TestOracleCommand:
    def test_rand_alpha(self, capsys):
        assert main(["oracle", "--op", "rand-alpha", "--n", "2", "--delta", "1/20"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"].startswith("0.05718")

    def test_bernstein_certificate(self, capsys):
        assert main(["oracle", "--op", "bernstein", "--n", "2", "--delta", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True

    def test_bernstein_from_its_three_parameters(self, capsys):
        argv = ["oracle", "--op", "bernstein", "--variance-bound", "1/4", "--term-bound", "1/2",
                "--deviation", "1/3"]
        assert main(argv) == 0
        # exponent -(1/3)^2 / (2/4 + (2/3)(1/2)(1/3)) = -2/11; exp of it rounded up to 30 digits
        exact = Context(prec=80).exp(Context(prec=80).divide(Decimal(-2), Decimal(11)))
        tail = str(Context(prec=30, rounding=ROUND_CEILING).plus(exact))
        assert tail == "0.833752918075180549964956245516"
        assert json.loads(capsys.readouterr().out) == {"op": "bernstein", "tail_upper_bound": tail}

    @pytest.mark.parametrize(
        "flags, message",
        [(["--agent", "5"], "agent index 5 out of range 1..2"),
         ([], "moments needs --instance and --agent")],
        ids=["agent-out-of-range", "no-agent"],
    )
    def test_moments_refusals_exit_one_with_one_line(self, flags, message, inst_file, capsys):
        assert main(["oracle", "--op", "moments", "--instance", inst_file, *flags]) == 1
        assert capsys.readouterr() == ("", f"fairdiv: error: {message}\n")

    def test_moments(self, inst_file, capsys):
        assert (
            main(["oracle", "--op", "moments", "--instance", inst_file, "--agent", "1"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == "7/8"  # (1 + 1/2 + 1/4) / 2

    @pytest.mark.parametrize("alpha, code", [("5", 1), ("-1", 1), ("0", 0), ("1", 0)])
    def test_moments_takes_alpha_in_the_unit_interval(self, alpha, code, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text('{"values": [["1", "1/2", "1/3"], ["1", "1", "1"]]}', encoding="utf-8")
        argv = ["oracle", "--op", "moments", "--instance", str(path), "--agent", "1",
                "--alpha", alpha]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else f"fairdiv: error: alpha {alpha} outside [0, 1]\n")

    def test_best_alloc(self, inst_file, capsys):
        assert main(["oracle", "--op", "best-alloc", "--instance", inst_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prop1_ratio"] == "1"

    def test_missing_arguments(self, capsys):
        assert main(["oracle", "--op", "rand-alpha"]) == 1


class TestMonteCarloCommand:
    def test_small_run_and_byte_identity(self, tmp_path):
        inst = tmp_path / "mc.json"
        inst.write_text(
            json.dumps({"values": [["1"] * 30, ["1"] * 30]}) + "\n", encoding="utf-8"
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [
            "montecarlo",
            "--n",
            "2",
            "--delta",
            "0.05",
            "--instance",
            str(inst),
            "--trials",
            "25",
            "--seed",
            "11",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = read_json(str(out1))
        assert payload["within_delta"] in (True, False)
        assert payload["trials"] == 25

    def test_mismatched_n_rejected(self, inst_file):
        assert (
            main(
                [
                    "montecarlo",
                    "--n",
                    "3",
                    "--delta",
                    "0.05",
                    "--instance",
                    inst_file,
                    "--trials",
                    "2",
                    "--seed",
                    "1",
                ]
            )
            == 1
        )


    def test_more_than_255_agents_exits_one_with_one_line(self, tmp_path, capsys):
        inst = tmp_path / "wide.json"
        inst.write_text(json.dumps({"values": [["1"] * 3] * 256}), encoding="utf-8")
        argv = ["montecarlo", "--n", "256", "--delta", "1/20", "--instance", str(inst),
                "--trials", "2", "--seed", "1"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "fairdiv: error: montecarlo takes at most 255 agents, got 256\n")


class TestCampaignCommand:
    def test_campaign_csv(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "rows": [
                        {"construction": "greedy1", "n": 2, "alpha": "1/2"},
                        {
                            "construction": "miv-impossibility",
                            "n": 2,
                            "alpha": "1/2",
                            "allocator": "greedy1",
                        },
                    ]
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "rows.csv"
        assert main(["campaign", "--config", str(config), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "config",
        [
            None,  # no config file at all
            '{"rows": [',
            '{"rows": 5}',
            '{"rows": [{"n": 2, "alpha": "1/2"}]}',
            '{"rows": [{"construction": "greedy1", "n": 2}]}',
            '{"rows": [{"construction": "miv-impossibility", "alpha": "1/2", "allocator": "rand"}]}',
            '{"rows": [{"construction": "miv-impossibility", "alpha": "1/2", "allocator": "nope"}]}',
            '{"rows": [{"construction": "greedy1", "alpha": "1/2", "n": "x"}]}',
            '{"rows": [{"construction": "greedy1", "alpha": "1/2", "n": null}]}',
            '{"rows": [{"construction": "greedy1", "alpha": "1/2", "n": 2.5}]}',
            '{"rows": [{"construction": "greedy3", "alpha": "1/2", "max_steps": "lots"}]}',
            '{"rows": [{"construction": "miv-impossibility", "alpha": "1/2", "allocator": "rand",'
            ' "seed": "abc"}]}',
            '{"rows": [{"construction": "greedy1", "alpha": "1/2", "repetitions": [1]}]}',
            '{"rows": [{"construction": "greedy1", "alpha": "1/2", "repetitions": 1.9}]}',
            '{"rows": [{"construction": "greedy1", "alpha": "1/2", "repetitions": -3}]}',
            '{"rows": [{"construction": "greedy1", "alpha": "1/2", "notion": "bogus"}]}',
            '{"rows": [{"construction": "greedy2", "alpha": "1/2", "notion": "ef1"}]}',
            '{"rows": [{"construction": "greedy3", "alpha": "1/2", "allocator": "miv"}]}',
            '{"rows": [{"construction": "miv-impossibility", "alpha": "1/2", "notion": "efx"}]}',
            '{"rows": [{"construction": "miv-impossibility", "alpha": "1/2", "allocator": [1]}]}',
        ],
        ids=["missing", "malformed", "rows-not-a-list", "no-construction", "no-alpha",
             "rand-no-seed", "unknown-allocator", "n-text", "n-null", "n-fraction",
             "max-steps-text", "seed-text", "repetitions-list", "repetitions-fraction",
             "repetitions-negative", "greedy-notion-bogus", "greedy-notion", "greedy-allocator",
             "unknown-notion", "allocator-list"],
    )
    def test_config_errors_exit_one_with_one_line(self, config, tmp_path, capsys):
        path = tmp_path / "config.json"
        if config is not None:
            path.write_text(config, encoding="utf-8")
        code = main(["campaign", "--config", str(path), "--out", str(tmp_path / "rows.csv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("fairdiv: error: ")

    @pytest.mark.parametrize(
        "config",
        ['[{"construction": "greedy1", "alpha": "1/2"}]', "{}",
         '{"rowz": [{"construction": "greedy1", "alpha": "1/2"}]}', '{"rows": 5}'],
        ids=["bare-list", "empty-object", "misspelled-rows", "rows-not-a-list"],
    )
    def test_a_config_without_a_rows_list_exits_one(self, config, tmp_path, capsys):
        path, out = tmp_path / "config.json", tmp_path / "rows.csv"
        path.write_text(config, encoding="utf-8")
        assert main(["campaign", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"fairdiv: error: {path}: expected an object with a list under 'rows'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"n": 2, "alpha": "1/2"}, "campaign row 1 needs a 'construction' and an 'alpha'"),
            ({"construction": "greedy1", "alpha": "1/2", "repetition": 3, "max_step": 5},
             "campaign row 1: unknown keys ['max_step', 'repetition']"),
            ({"construction": ["greedy1"], "alpha": "1/2"}, "campaign row 1: unknown construction ['greedy1']; "
             "choose from ('greedy1', 'greedy2', 'greedy3', 'miv-impossibility')"),
            ({"construction": {}, "alpha": "1/2"}, "campaign row 1: unknown construction {}; "
             "choose from ('greedy1', 'greedy2', 'greedy3', 'miv-impossibility')"),
            ({"construction": 5, "alpha": "1/2"}, "campaign row 1: unknown construction 5; "
             "choose from ('greedy1', 'greedy2', 'greedy3', 'miv-impossibility')"),
            ({"construction": "miv-impossibility", "alpha": "1/2", "allocator": 5},
             "campaign row 1: unknown allocator 5; choose from greedy1, greedy2, greedy3, rand, miv"),
            ({"construction": "miv-impossibility", "alpha": "1/2", "notion": 5},
             "campaign row 1: unknown fairness notion 5; choose from ('ef1', 'mms', 'propx')"),
            ({"construction": "greedy1", "alpha": "1/2", "notion": 5},
             "campaign row 1: greedy1 reports no fairness notion, got 5"),
        ],
        ids=["no-construction", "unknown-keys", "construction-list", "construction-object",
             "construction-int", "allocator-int", "notion-int", "notion-on-greedy1"],
    )
    def test_a_row_error_names_the_file(self, row, message, tmp_path, capsys):
        path, out = tmp_path / "config.json", tmp_path / "rows.csv"
        path.write_text(json.dumps({"rows": [row]}), encoding="utf-8")
        assert main(["campaign", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"fairdiv: error: {path}: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, builder",
    [
        (["campaign", "--config", "{config}"], "campaign_csv"),
    ],
    ids=["campaign"],
)
def test_a_failing_csv_builder_leaves_no_file(argv, builder, tmp_path, monkeypatch, capsys):
    def refuse(_):
        raise DomainError("forced failure")

    monkeypatch.setattr(harness, builder, refuse)
    config, out = tmp_path / "config.json", tmp_path / "out.csv"
    config.write_text('{"rows": [{"construction": "greedy1", "alpha": "1/2"}]}', encoding="utf-8")
    assert main([arg.format(config=config) for arg in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "fairdiv: error: forced failure\n")
    assert not out.exists()


#: A valid argv of each subcommand that takes ``--out``.
OUT_COMMANDS = {
    "metrics": ["metrics", "--instance", "{inst}", "--allocation", "{alloc}"],
    "run": ["run", "--algo", "greedy1", "--instance", "{inst}"],
    "adversary": ["adversary", "--target", "greedy1", "--alpha", "1/2"],
    "oracle": ["oracle", "--op", "rand-alpha", "--n", "2", "--delta", "1/2"],
    "montecarlo": ["montecarlo", "--n", "2", "--delta", "1/2", "--instance", "{inst}",
                   "--trials", "1", "--seed", "0"],
    "campaign": ["campaign", "--config", "{config}"],
}


@pytest.mark.parametrize("command", OUT_COMMANDS)
@pytest.mark.parametrize(
    "where, reason",
    [
        ("out", "[Errno 21] Is a directory"),
        ("missing/out.json", "[Errno 2] No such file or directory"),
    ],
    ids=["directory", "missing-parent"],
)
def test_an_unwritable_out_exits_one_with_one_line(
    command, where, reason, inst_file, alloc_file, tmp_path, capsys
):
    config = tmp_path / "config.json"
    config.write_text('{"rows": [{"construction": "greedy1", "alpha": "1/2"}]}', encoding="utf-8")
    (tmp_path / "out").mkdir()
    out = tmp_path / where
    files = {"inst": inst_file, "alloc": alloc_file, "config": config}
    argv = [arg.format(**files) for arg in OUT_COMMANDS[command]]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"fairdiv: error: cannot write {out}: {reason}: '{out}'\n")


class TestExitCodes:
    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["metrics", "--nope"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_invariant_breach_maps_to_exit_two(self, monkeypatch, capsys):
        from fairdiv import cli as cli_module

        def boom(args):
            raise InvariantError("potential increased")

        monkeypatch.setitem(cli_module._COMMANDS, "campaign", boom)
        assert main(["campaign", "--config", "rows.json", "--out", "/dev/null"]) == 2
        assert "invariant breach" in capsys.readouterr().err

    def test_bad_seed_rejected(self, inst_file):
        assert (
            main(
                ["run", "--algo", "rand", "--instance", inst_file, "--seed", str(2**64)]
            )
            == 1
        )

    @pytest.mark.parametrize("command", ["run", "montecarlo"])
    @pytest.mark.parametrize(
        "seed, message",
        [
            ("x", "seed must be an integer, got 'x'"),
            ("1.5", "seed must be an integer, got '1.5'"),
            ("-1", "seed must fit in an unsigned 64-bit integer"),
        ],
    )
    def test_a_bad_seed_exits_one_with_a_plain_message(self, command, seed, message, inst_file, capsys):
        argv = {
            "run": ["run", "--algo", "rand", "--instance", inst_file],
            "montecarlo": ["montecarlo", "--n", "2", "--delta", "1/2", "--instance", inst_file,
                           "--trials", "1"],
        }[command]
        assert main([*argv, f"--seed={seed}"]) == 1
        assert capsys.readouterr() == ("", f"fairdiv: error: argument --seed: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--algo", "miv", "--instance", "{inst}"],  # with phi_total
        ["run", "--algo", "greedy3", "--instance", "{inst}"],
        ["run", "--algo", "miv", "--epsilon", "1/4", "--instance", "{inst}"],
        ["metrics", "--instance", "{inst}", "--allocation", "{alloc}", "--check", "prop1,ef1,propx,mms"],
        ["metrics", "--instance", "{inst}", "--allocation", "{alloc}", "--check", "prop1,ef1,propx,mms",
         "--alpha", "1"],
        ["adversary", "--target", "greedy1", "--alpha", "1/10"],
        ["oracle", "--op", "moments", "--instance", "{inst}", "--agent", "1", "--alpha", "1/2"],
        ["oracle", "--op", "best-alloc", "--instance", "{inst}"],
        ["montecarlo", "--n", "2", "--delta", "1/2", "--instance", "{inst}", "--trials", "5",
         "--seed", "3"],
    ],
    ids=["run-miv", "run-greedy3", "run-miv-robust", "metrics", "metrics-alpha", "adversary",
         "oracle-moments", "oracle-best-alloc", "montecarlo"],
)
def test_each_payload_is_written_as_json_dumps_writes_it(argv, inst_file, tmp_path, monkeypatch, capsys):
    # an allocation that fails every check, so each witness is an object
    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"owner": [1, 1, 1]}', encoding="utf-8")
    payloads = []

    def keep(payload):
        payloads.append(payload)
        return cli_dumps(payload)

    cli_dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", keep)
    assert main([arg.format(inst=inst_file, alloc=alloc) for arg in argv]) == 0
    (payload,) = payloads
    assert capsys.readouterr().out == json.dumps(_rationals_written(payload), indent=2, sort_keys=True) + "\n"


def _rationals_written(value):
    """``value`` with each Fraction, Decimal and infinity leaf as ``format_rational`` writes it."""
    if isinstance(value, (Fraction, Decimal)) or value == core.INF:
        return core.format_rational(value)
    if isinstance(value, dict):
        return {k: _rationals_written(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rationals_written(v) for v in value]
    return value


#: bernstein's refusal when flags of both its groups are given.
_BOTH_GROUPS = "--op bernstein takes --n/--delta or --variance-bound/--term-bound/--deviation, not both"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--algo", "greedy1", "--instance", "{inst}", "--seed", "5"],
         "--seed only applies to --algo rand"),
        (["run", "--algo", "miv", "--instance", "{inst}", "--seed", "5"],
         "--seed only applies to --algo rand"),
        (["oracle", "--op", "moments", "--instance", "{inst}", "--agent", "1", "--n", "3"],
         "--op moments does not take --n"),
        (["oracle", "--op", "moments", "--instance", "{inst}", "--agent", "1", "--delta", "1/2"],
         "--op moments does not take --delta"),
        (["oracle", "--op", "rand-alpha", "--n", "2", "--delta", "1/2", "--instance", "{inst}"],
         "--op rand-alpha does not take --instance"),
        (["oracle", "--op", "best-alloc", "--instance", "{inst}", "--alpha", "1/2", "--agent", "1"],
         "--op best-alloc does not take --agent/--alpha"),
        (["oracle", "--op", "bernstein", "--n", "2", "--delta", "1/2", "--variance-bound", "1/4"],
         _BOTH_GROUPS),
        (["oracle", "--op", "bernstein", "--n", "2", "--delta", "1/2", "--term-bound", "1/2"],
         _BOTH_GROUPS),
        (["oracle", "--op", "bernstein", "--n", "2", "--delta", "1/2", "--deviation", "1/3"],
         _BOTH_GROUPS),
        (["oracle", "--op", "bernstein", "--delta", "1/2", "--variance-bound", "1/4",
          "--term-bound", "1/2", "--deviation", "1/3"], _BOTH_GROUPS),
    ],
    ids=["run-greedy1-seed", "run-miv-seed", "moments-n", "moments-delta", "rand-alpha-instance",
         "best-alloc-agent-alpha", "bernstein-variance", "bernstein-term", "bernstein-deviation",
         "bernstein-delta-and-three"],
)
def test_a_flag_the_rule_or_op_never_reads_exits_one(argv, message, inst_file, capsys):
    assert main([arg.format(inst=inst_file) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"fairdiv: error: {message}\n")


@pytest.mark.parametrize("target", ["greedy1", "greedy2", "greedy3", "miv-impossibility"])
def test_a_negative_step_budget_is_refused_alike_by_every_construction(target, tmp_path, capsys):
    message = "the step budget must not be negative, got -1"
    assert main(["adversary", "--target", target, "--alpha", "1/2", "--max-steps=-1"]) == 1
    assert capsys.readouterr() == ("", f"fairdiv: error: {message}\n")
    path, out = tmp_path / "config.json", tmp_path / "rows.csv"
    row = {"construction": target, "alpha": "1/2", "max_steps": -1}
    path.write_text(json.dumps({"rows": [row]}), encoding="utf-8")
    assert main(["campaign", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"fairdiv: error: {path}: campaign row 1: {message}\n")
    assert not out.exists()


@st.composite
def contract_runs(draw):
    """(rows, predictions, whether the run is wrapped): n 2-4, m 0-6, and
    every value at most its agent's p_i, so the run completes.  Plain runs
    have p = 1 and eps = 0; a row may or may not hold a good worth p_i,
    (1 - eps) p_i, or a value between the two."""
    n, m, wrapped = draw(st.integers(2, 4)), draw(st.integers(0, 6)), draw(st.booleans())
    p, eps = [F(1)] * n, F(0)
    if wrapped:
        p = draw(st.lists(st.sampled_from([F(1), F(2), F(3, 7)]), min_size=n, max_size=n))
        eps = draw(st.sampled_from([F(0), F(1, 4), F(1, 2)]))
    rows = []
    for pi in p:
        low = (1 - eps) * pi
        below = st.integers(0, 11).map(lambda k: low * F(k, 12))
        value = st.one_of(st.sampled_from([pi, low, (low + pi) / 2]), below)
        rows.append(draw(st.lists(value, min_size=m, max_size=m)))
    return rows, Predictions(tuple(p), eps), wrapped


@settings(max_examples=150, deadline=None)
@given(contract_runs())
def test_prediction_contract_met_is_the_contract_by_definition(case):
    rows, pred, wrapped = case
    with tempfile.TemporaryDirectory() as tmp:
        inst, pred_file, out = Path(tmp, "i.json"), Path(tmp, "p.json"), Path(tmp, "out.json")
        inst.write_text(json.dumps({"values": [list(map(str, row)) for row in rows]}), encoding="utf-8")
        argv = ["run", "--algo", "miv", "--instance", str(inst), "--out", str(out)]
        if wrapped:
            pred_file.write_text(json.dumps({"p": list(map(str, pred.p)), "epsilon": str(pred.epsilon)}),
                                 encoding="utf-8")
            argv += ["--predictions", str(pred_file)]
        assert main(argv) == 0
        met = read_json(out)["prediction_contract_met"]
    assert met is check_predictions(instance_from_rows(rows), pred)


@pytest.mark.parametrize(
    "row, message",
    [
        ({"construction": "greedy1", "alpha": "1/2", "max_steps": -1},
         "the step budget must not be negative, got -1"),
        ({"construction": "greedy1", "alpha": "x"}, "bad rational literal 'x': Invalid literal for Fraction: 'x'"),
        ({"construction": "greedy1", "alpha": "2"}, "target ratio 2 outside (0, 1]"),
        ({"construction": "greedy1", "alpha": "1/2", "notion": "ef1"},
         "greedy1 reports no fairness notion, got 'ef1'"),
        ({"construction": "miv-impossibility", "alpha": "1/2", "notion": "efx"},
         "unknown fairness notion 'efx'; choose from ('ef1', 'mms', 'propx')"),
        ({"construction": "nope", "alpha": "1/2"},
         "unknown construction 'nope'; choose from ('greedy1', 'greedy2', 'greedy3', 'miv-impossibility')"),
    ],
    ids=["negative-budget", "alpha-literal", "alpha-range", "notion-on-greedy1", "unknown-notion",
         "unknown-construction"],
)
def test_every_refusal_of_a_campaign_row_names_its_row(row, message, tmp_path, capsys):
    path, out = tmp_path / "config.json", tmp_path / "rows.csv"
    path.write_text(json.dumps({"rows": [{"construction": "greedy1", "alpha": "1/2"}, row]}), encoding="utf-8")
    assert main(["campaign", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"fairdiv: error: {path}: campaign row 2: {message}\n")
    assert not out.exists()
