import json
import math

import pytest

from omegastar.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_omega_star(self, capsys):
        code, out, _ = run_cli(capsys, ["omega-star", "--n", "12"])
        assert code == 0
        assert out == "n,omega_star\n12,5\n"

    def test_moments_value(self, capsys):
        code, out, _ = run_cli(capsys, ["moments", "--x", "10", "--k", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,k,Mk,log_x,loglog_x"
        assert lines[1].split(",")[2] == "1.9"

    def test_moments_multiple_x(self, capsys):
        code, out, _ = run_cli(capsys, ["moments", "--x", "10,100", "--k", "2"])
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_champions(self, capsys):
        code, out, _ = run_cli(capsys, ["champions", "--max-n", "100"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,omega_star,score"
        assert lines[1].startswith("60,8,")

    def test_constants_document(self, capsys):
        code, out, _ = run_cli(capsys, ["constants"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["u_star"] - 1.2694) <= 1e-3
        assert abs(doc["f_max"] - 0.4669) <= 5e-4
        assert doc["f_over_log2"] > 0.6736
        assert doc["grh"]["residuals"]["ratio_identity"] <= 1e-12
        assert doc["grh"]["residuals"]["C_identity"] <= 1e-12

    def test_pairs_json(self, capsys):
        code, out, _ = run_cli(capsys, ["pairs", "--x", "100", "--k", "30"])
        assert code == 0
        doc = json.loads(out)
        assert sum(row["A_d"] for row in doc["per_d"]) <= doc["total_A"]
        assert [row["d"] for row in doc["per_d"]] == [1, 2, 3, 5]

    def test_smooth_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, ["smooth", "--x", "1000", "--y", "10"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,psi,pi_smooth,pi,lhs,rhs,quotient"
        assert lines[1].startswith("1000,10,141,")

    def test_smooth_scan(self, capsys):
        code, out, _ = run_cli(capsys, ["smooth-scan", "--x", "1000", "--v-list", "1,2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[1] == str(round(math.log(1000)))

    def test_sample_divisors_document(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["--seed", "9", "sample-divisors", "--log-x", "111", "--mode", "grh", "--trials", "4000"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["R"] == 24
        assert 0.0 <= doc["acceptance_rates"]["acceptance"] <= 1.0
        assert doc["entropy_bound"]["log_count_bound"] > 0
        assert doc["chebyshev_bounds"]["p_fail_omega"] <= 0.25 * 24 ** (-1 / 3)


class TestDeterminism:
    def test_sampling_byte_identical(self, capsys):
        argv = ["--seed", "3", "sample-divisors", "--log-x", "111", "--trials", "2000"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_worker_count_invariant(self, capsys):
        tail = ["sample-divisors", "--log-x", "111", "--trials", "5000"]
        _, one, _ = run_cli(capsys, ["--seed", "3", "--workers", "1"] + tail)
        _, four, _ = run_cli(capsys, ["--seed", "3", "--workers", "4"] + tail)
        assert one == four

    def test_report_small_byte_identical(self, capsys):
        argv = [
            "--seed",
            "12",
            "report",
            "--x",
            "2000",
            "--log-x",
            "111",
            "--trials",
            "1000",
            "--smooth-y",
            "20",
        ]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        doc = json.loads(first)
        assert doc["schema"] == "omegastar-report/1"
        assert doc["champion"]["omega_star"] >= 8
        assert doc["constants"]["grh"]["residuals"]["sqrt_identity"] <= 1e-12
        assert 0.0 <= doc["sampling"]["acceptance_rates"]["acceptance"] <= 1.0
        assert doc["smooth"]["psi"] >= 1

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, ["--out", str(path), "constants"])
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["schema"] == "omegastar/1"

    def test_report_defaults_meet_documented_bars(self, capsys):
        import time

        start = time.perf_counter()
        code, out, _ = run_cli(capsys, ["report"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 300.0  # documented budget: five minutes
        doc = json.loads(out)
        assert doc["parameters"]["x"] == 10**6
        assert doc["parameters"]["log_x"] == 1100.0
        assert doc["parameters"]["trials"] == 10**5
        assert doc["sampling"]["acceptance_rates"]["acceptance"] >= 0.9
        assert doc["constants"]["grh"]["residuals"]["ratio_identity"] <= 1e-12
        assert doc["constants"]["grh"]["residuals"]["sqrt_identity"] <= 1e-12
        assert doc["seed"] == 1 and doc["version"]


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["omega-star", "--n", "0"])
        assert code == 2
        assert "error" in err

    def test_sample_divisors_log_x_too_small_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["sample-divisors", "--log-x", "50"])
        assert code == 2
        assert "log_x" in err

    def test_resource_ceiling_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("OMEGASTAR_CEILING", "100")
        code, _, err = run_cli(capsys, ["moments", "--x", "100000", "--k", "1"])
        assert code == 3
        assert "ceiling" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--x", "10,abc"],
            ["smooth-scan", "--x", "1000", "--v-list", "1,zz"],
            ["smooth-scan", "--x", "1000", "--v-list", "1,inf"],
        ],
    )
    def test_bad_list_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "omegastar: error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("subcommand", ["sample-divisors", "report"])
    def test_non_finite_log_x_exit_2(self, capsys, subcommand, value):
        code, out, err = run_cli(capsys, [subcommand, "--log-x", value, "--trials", "10"])
        assert code == 2
        assert out == ""
        assert "omegastar: error" in err
        assert "Traceback" not in err

    def test_pairs_cap_checked_before_sieving(self, capsys, monkeypatch):
        from omegastar import construction

        def no_sieve(*args, **kwargs):
            raise AssertionError("sieve_primes called before the pair-space cap was checked")

        monkeypatch.setattr(construction, "sieve_primes", no_sieve)
        code, out, err = run_cli(capsys, ["pairs", "--x", "100001", "--k", "6"])
        assert code == 2
        assert out == ""
        assert "omegastar: error" in err
