import json
from fractions import Fraction

import pytest

from fairdiv.cli import main
from fairdiv.errors import InvariantError

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

    def test_alpha_flag_parses_exactly(self, inst_file, alloc_file, capsys):
        code = main(
            ["metrics", "--instance", inst_file, "--allocation", alloc_file, "--alpha", "1/3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha"] == "1/3"

    def test_bad_instance_file_is_a_domain_error(self, tmp_path, alloc_file):
        bad = tmp_path / "bad.json"
        bad.write_text('{"values": [["-1"], ["1"]]}', encoding="utf-8")
        assert main(["metrics", "--instance", str(bad), "--allocation", alloc_file]) == 1


class TestRunCommand:
    def test_miv_run_writes_a_trace(self, inst_file, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["run", "--algo", "miv", "--instance", inst_file, "--out", str(out)]) == 0
        trace = read_json(str(out))
        assert trace["owners"] == [1, 2, 1]
        assert len(trace["phi_total"]) == 4  # includes the starting value

    def test_rand_requires_seed(self, inst_file, capsys):
        assert main(["run", "--algo", "rand", "--instance", inst_file]) == 1
        assert "--seed" in capsys.readouterr().err

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

    def test_allocator_flag_restricted(self, capsys):
        assert (
            main(["adversary", "--target", "greedy1", "--alpha", "1/2", "--allocator", "miv"])
            == 1
        )


class TestOracleCommand:
    def test_rand_alpha(self, capsys):
        assert main(["oracle", "--op", "rand-alpha", "--n", "2", "--delta", "1/20"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"].startswith("0.05718")

    def test_bernstein_certificate(self, capsys):
        assert main(["oracle", "--op", "bernstein", "--n", "2", "--delta", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True

    def test_moments(self, inst_file, capsys):
        assert (
            main(["oracle", "--op", "moments", "--instance", inst_file, "--agent", "1"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == "7/8"  # (1 + 1/2 + 1/4) / 2

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
        ],
        ids=["missing", "malformed", "rows-not-a-list", "no-construction", "no-alpha",
             "rand-no-seed", "unknown-allocator"],
    )
    def test_config_errors_exit_one_with_one_line(self, config, tmp_path, capsys):
        path = tmp_path / "config.json"
        if config is not None:
            path.write_text(config, encoding="utf-8")
        code = main(["campaign", "--config", str(path), "--out", str(tmp_path / "rows.csv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("fairdiv: error: ")


class TestPotentialGridCommand:
    def test_grid_export(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["potential-grid", "--n", "2", "--resolution", "5", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 26


class TestExitCodes:
    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["metrics", "--nope"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_invariant_breach_maps_to_exit_two(self, monkeypatch, capsys):
        from fairdiv import cli as cli_module

        def boom(args):
            raise InvariantError("potential increased")

        monkeypatch.setitem(cli_module._COMMANDS, "potential-grid", boom)
        assert main(["potential-grid", "--n", "2", "--out", "/dev/null"]) == 2
        assert "invariant breach" in capsys.readouterr().err

    def test_bad_seed_rejected(self, inst_file):
        assert (
            main(
                ["run", "--algo", "rand", "--instance", inst_file, "--seed", str(2**64)]
            )
            == 1
        )
