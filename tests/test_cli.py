import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from omegastar import cli, construction, omega, sieve
from omegastar.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# One CLI run in a child process whose address space is capped at its size
# after import plus 16 MB, less than the first large array of each run below
# (44 to 48 MB), so that array cannot be mapped.
_CAPPED_CLI = """
import resource, sys
from omegastar.cli import main
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) * 1024
resource.setrlimit(resource.RLIMIT_AS, (size + (16 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


def _json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_SMOOTH_1000_10 = "1000,10,141,52,168,0.30952380952380953,0.141,2.1952043228638978\n"
_SMOOTH_HEADER = "x,y,psi,pi_smooth,pi,lhs,rhs,quotient\n"

# Exact stdout of each subcommand in every format it writes; the first
# format listed is the default.  The sampling commands are pinned by hash in
# PINNED_SHA256 below.
PINNED = {
    ("omega-star", "--n", "12"): {
        "csv": "n,omega_star\n12,5\n",
        "json": _json({"n": 12, "omega_star": 5, "schema": "omegastar/1"}),
    },
    ("moments", "--x", "1,10,100", "--k", "2"): {
        "csv": (
            "x,k,Mk,log_x,loglog_x\n"
            "1,2,1.0,0.0,nan\n"
            "10,2,4.5,2.302585092994046,0.834032445247956\n"
            "100,2,9.71,4.605170185988092,1.5271796258079011\n"
        ),
        "json": _json(
            {
                "k": 2,
                "points": [{"Mk": 1.0, "x": 1}, {"Mk": 4.5, "x": 10}, {"Mk": 9.71, "x": 100}],
                "schema": "omegastar/1",
            }
        ),
    },
    ("champions", "--max-n", "100"): {
        "csv": "n,omega_star,score\n60,8,0.7159130291715198\n",
        "json": _json({"n": 60, "omega_star": 8, "schema": "omegastar/1", "score": 0.7159130291715198}),
    },
    ("constants",): {
        "json": _json(
            {
                "apr_bound_at_theta": 0.44554085873125693,
                "apr_bound_limit": 0.6931471805599453,
                "f_max": 0.46694494531658054,
                "f_over_log2": 0.673659156976399,
                "grh": {
                    "C": 0.8705203694270068,
                    "golden": 1.618033988749895,
                    "inverse_golden_squared": 0.38196601125010515,
                    "log_golden": 0.48121182505960347,
                    "residuals": {
                        "C_first_form": 1.1102230246251565e-16,
                        "C_identity": 0.0,
                        "half_sum": 0.0,
                        "ratio_identity": 0.0,
                        "sqrt_identity": 0.0,
                    },
                    "u": 1.3090169943749475,
                },
                "schema": "omegastar/1",
                "theta": 0.4736,
                "u_star": 1.269414461829573,
            }
        ),
        "csv": (
            "theta,u_star,f_max,f_over_log2,grh_u,grh_C\n"
            "0.4736,1.269414461829573,0.46694494531658054,0.673659156976399,1.3090169943749475,0.8705203694270068\n"
        ),
    },
    ("pairs", "--x", "100", "--k", "30"): {
        "json": _json(
            {
                "k": 30,
                "per_d": [
                    {"A_d": 75, "d": 1},
                    {"A_d": 72, "d": 2},
                    {"A_d": 77, "d": 3},
                    {"A_d": 65, "d": 5},
                ],
                "schema": "omegastar/1",
                "total_A": 542,
                "x": 100,
            }
        ),
        "csv": "x,k,d,A_d,total_A\n100,30,1,75,542\n100,30,2,72,542\n100,30,3,77,542\n100,30,5,65,542\n",
    },
    ("smooth", "--x", "1000", "--y", "10"): {
        "csv": _SMOOTH_HEADER + _SMOOTH_1000_10,
        "json": _json(
            {
                "lhs": 0.30952380952380953,
                "pi": 168,
                "pi_smooth": 52,
                "psi": 141,
                "quotient": 2.1952043228638978,
                "rhs": 0.141,
                "schema": "omegastar/1",
                "x": 1000,
                "y": 10,
            }
        ),
    },
    ("smooth-scan", "--x", "1000", "--v-list", "1,2"): {
        "csv": (
            _SMOOTH_HEADER
            + "1000,7,141,52,168,0.30952380952380953,0.141,2.1952043228638978\n"
            + "1000,14,242,76,168,0.4523809523809524,0.242,1.8693427784336876\n"
        ),
    },
}


_REPORT_SMALL = ["--seed", "12", "report", "--x", "2000", "--log-x", "111", "--trials", "1000", "--smooth-y", "20"]

# SHA-256 of the exact stdout of the Monte Carlo commands.  Chunk and row-block
# boundaries of the sampler must not move a byte, whatever the worker count.
# The log x = 1100 run spans five 4096-sample chunks, the last one partial.
# At log x = 100, the smallest accepted, epsilon = 0.466 lies nearest theta.
PINNED_SHA256 = {
    ("--seed", "3", "--workers", "1", "sample-divisors", "--log-x", "111", "--trials", "5000"): (
        "fae9f06f1e9548c417ca81e9906f2651022f6fff297120273a9fc7ab9bf6b1e7"
    ),
    ("--seed", "3", "--workers", "2", "sample-divisors", "--log-x", "111", "--trials", "5000"): (
        "fae9f06f1e9548c417ca81e9906f2651022f6fff297120273a9fc7ab9bf6b1e7"
    ),
    ("--seed", "7", "--workers", "2", "sample-divisors", "--log-x", "1100", "--mode", "grh", "--trials", "20000"): (
        "f534fc522ecd552a159c7048dba9c9258c8b5f60db0260941f16675bbcdc41c6"
    ),
    tuple(_REPORT_SMALL): "61048cdd8598c1d5d270f60e219b8beac58752ce81203fa5bf8b67dd236d8a8b",
    ("--seed", "5", "sample-divisors", "--log-x", "100", "--mode", "unconditional", "--trials", "5000"): (
        "d9e8900969a5dda109020c5c841b34386702c1a08d31ef2eeb6764af7dbcc6cf"
    ),
    ("--seed", "5", "sample-divisors", "--log-x", "100", "--mode", "grh", "--trials", "5000"): (
        "a37737247173d353b5adff7a2eaa24f139cd9e98de645b9d8623598227e26924"
    ),
}

# SHA-256 of the exact stdout of the omega* table commands at the scale of the
# moments benchmark, taken from the full-length int32 kernel: the even-only
# uint8 kernel must reproduce every byte.
PINNED_TABLE_SHA256 = {
    ("moments", "--x", "99000,990000,9900000", "--k", "1"): (
        "ff4b82f04f46f4f2fc0f028fcb4776d77aff373c15e64fbe21b6398951c1fdc4"
    ),
    ("moments", "--x", "99000,990000,9900000", "--k", "3"): (
        "6504d921fc2df12fca2e11c25d8d9def27fac784f6eda7d489e3ea65344e6170"
    ),
    ("champions", "--max-n", "1000000"): "a256ad022b6aed9ff21936dace5028dd532a9bf0f4837dec527c6ef750c9bbf1",
}

# SHA-256 of the exact stdout of the smooth censuses: the census benchmark's
# command lines at seeds 7 and 43 (x = _draw_x(seed) in perfbench/workloads.py),
# an unsorted y list with a duplicate, y above x, and the report's x and y.
PINNED_SMOOTH_SHA256 = {
    ("smooth-scan", "--x", "9942445", "--v-list", "1,2,4"): (
        "22ae7f2ce44472832054e23b3b0045ae38d86690d4c21fab706f9762d7daa308"
    ),
    ("smooth-scan", "--x", "9905053", "--v-list", "1,2,4"): (
        "cf39825a36dc52d4a0986daf87d1236d3ee38e2c635db87e780c1a4b3fda1f0d"
    ),
    ("smooth-scan", "--x", "100", "--v-list", "4,1,1"): (
        "a0ef261bd28c61d4a296e7b5638abc2e54720ece162daf2bd9d55e7d5374d309"
    ),
    ("smooth", "--x", "100", "--y", "1000"): "e1bd39b3d11c48e57fd77e6e230d610c079d6ee17165bb9985cc2feaa54be367",
    ("smooth", "--x", "1000000", "--y", "100"): "9fc4023b7761bc62febcdc2da3cf1f50174ad998fb1886ff2fc9ad938ca7509d",
    # every prime above sqrt(x) walked, over five 2^20-slot segments
    ("smooth", "--x", "10000000", "--y", "10000000"): (
        "1f96857af46a2cb28253ee8b7969a4042c0062a9a4e63a6c9a1fa20e84649053"
    ),
}


# SHA-256 of the exact stdout of `pairs` at k = 30030 = 2 3 5 7 11 13, whose 64
# divisors give 32 counts A_d, inside one 2^20-slot sieve segment and across
# five of them, and at x = 1, where no prime is counted.
PINNED_PAIRS_SHA256 = {
    ("--format", "json", "pairs", "--x", "100000", "--k", "30030"): (
        "b82e871522d2d59d61ebf44592378f41a78d8610506dbda4c9be7bc75f9195b5"
    ),
    ("--format", "csv", "pairs", "--x", "100000", "--k", "30030"): (
        "8e8172723f0ea392f44e0e44823fbb8e1c0097b60e7e002ffe42774ebf6811dd"
    ),
    ("pairs", "--x", "10000000", "--k", "30030"): (
        "6eed74efe446cddcbef1bb035e7bef0dfac9735c577583865556f0883f7a7739"
    ),
    ("pairs", "--x", "1", "--k", "6"): "0ea091dbc20663e1e803da6c4e0c13b53d3dc1aefbda1b58898bb7b3bf3dd139",
}


@pytest.fixture
def no_heavy_work(monkeypatch):
    """Stand-ins that fail if the Monte Carlo, the omega* table or a smooth census runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("sample_stats", "omega_star_table", "smooth_census"):
        monkeypatch.setattr(cli, name, refuse)
    # moments and champions reach the table through these modules' own bindings
    monkeypatch.setattr(omega, "omega_star_table", refuse)
    monkeypatch.setattr(construction, "omega_star_table", refuse)


@pytest.fixture
def no_sieving(monkeypatch):
    """A stand-in for the one prime-flag driver that fails if it is called."""

    def refuse(*args, **kwargs):
        raise AssertionError("prime flags sieved before the arguments were checked")

    monkeypatch.setattr(sieve, "_odd_slots", refuse)


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

    def test_moments_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, ["moments", "--x", "10,100", "--k", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,k,Mk,log_x,loglog_x"
        assert lines[1].startswith("10,1,1.9,")
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "argv, fmt",
        [(argv, fmt) for argv, by_format in PINNED.items() for fmt in (None, *by_format)],
        ids=lambda v: v[0] if isinstance(v, tuple) else (v or "default"),
    )
    def test_pinned_stdout(self, capsys, argv, fmt):
        expected = PINNED[argv]
        code, out, err = run_cli(capsys, (["--format", fmt] if fmt else []) + list(argv))
        assert (code, err) == (0, "")
        assert out == expected[fmt or next(iter(expected))]

    @pytest.mark.parametrize("max_n", [1, 2])
    def test_champions_json_is_strict_below_3(self, capsys, max_n):
        # The score is undefined below n = 3: null in JSON, which has no NaN;
        # CSV keeps Python's nan.
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        code, out, _ = run_cli(capsys, ["--format", "json", "champions", "--max-n", str(max_n)])
        assert code == 0
        assert json.loads(out, parse_constant=refuse)["score"] is None
        code, out, _ = run_cli(capsys, ["champions", "--max-n", str(max_n)])
        assert out == f"n,omega_star,score\n{max_n},{max_n},nan\n"

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
        _, first, _ = run_cli(capsys, _REPORT_SMALL)
        _, second, _ = run_cli(capsys, _REPORT_SMALL)
        assert first == second
        doc = json.loads(first)
        assert doc["schema"] == "omegastar-report/1"
        assert doc["champion"]["omega_star"] >= 8
        assert doc["constants"]["grh"]["residuals"]["sqrt_identity"] <= 1e-12
        assert 0.0 <= doc["sampling"]["acceptance_rates"]["acceptance"] <= 1.0
        assert doc["smooth"]["psi"] >= 1

    @pytest.mark.parametrize(
        "argv",
        list(PINNED_SHA256),
        ids=[
            "logx111-workers1",
            "logx111-workers2",
            "logx1100-workers2",
            "report",
            "logx100-unconditional",
            "logx100-grh",
        ],
    )
    def test_pinned_sampling_stdout(self, capsys, argv):
        code, out, err = run_cli(capsys, list(argv))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[argv]

    @pytest.mark.parametrize(
        "argv",
        list(PINNED_SMOOTH_SHA256),
        ids=[
            "census-seed7",
            "census-seed43",
            "scan-unsorted-dup",
            "smooth-y-above-x",
            "smooth-report-xy",
            "smooth-five-segments",
        ],
    )
    def test_pinned_smooth_stdout(self, capsys, argv):
        code, out, err = run_cli(capsys, list(argv))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SMOOTH_SHA256[argv]

    @pytest.mark.parametrize("argv", list(PINNED_TABLE_SHA256), ids=["moments-k1", "moments-k3", "champions-1e6"])
    def test_pinned_table_stdout(self, capsys, argv):
        code, out, err = run_cli(capsys, list(argv))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TABLE_SHA256[argv]

    @pytest.mark.parametrize(
        "argv", list(PINNED_PAIRS_SHA256), ids=["k30030-json", "k30030-csv", "k30030-five-segments", "x1-no-primes"]
    )
    def test_pinned_pairs_stdout(self, capsys, argv):
        code, out, err = run_cli(capsys, list(argv))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_PAIRS_SHA256[argv]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, ["--out", str(path), "constants"])
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["schema"] == "omegastar/1"

    def test_output_file_replaces_earlier_output(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("earlier output that is longer than the new one\n")
        code, _, _ = run_cli(capsys, ["--out", str(path), "omega-star", "--n", "12"])
        assert code == 0
        assert path.read_text() == "n,omega_star\n12,5\n"

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

    @pytest.mark.parametrize("value", ["1e6", "abc", "0", "-5"])
    def test_malformed_ceiling_exit_2(self, capsys, monkeypatch, value):
        # not an integer >= 1: a usage error naming the variable and value,
        # never a parse message alone or a ceiling that refuses everything
        monkeypatch.setenv("OMEGASTAR_CEILING", value)
        code, out, err = run_cli(capsys, ["moments", "--x", "1000"])
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: OMEGASTAR_CEILING")
        assert repr(value) in err
        assert "Traceback" not in err

    def test_oversized_trials_exit_3_before_work(self, capsys, monkeypatch):
        def no_chunk(*args, **kwargs):
            raise AssertionError("a chunk ran before the trial count was checked")

        monkeypatch.setenv("OMEGASTAR_CEILING", "1000")
        monkeypatch.setattr(construction, "_chunk_stats", no_chunk)
        code, out, err = run_cli(capsys, ["sample-divisors", "--log-x", "111", "--trials", "1001"])
        assert code == 3
        assert out == ""
        assert err.startswith("omegastar: resource limit: trials = 1001")
        assert "Traceback" not in err

    def test_moments_large_k_exit_2(self, capsys):
        # omega*(n) = 3 at n = 4, 6, 8, 10, so M_1000(10) is about 3^1000 / 2, past any float
        code, out, err = run_cli(capsys, ["moments", "--x", "10", "--k", "1000"])
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: ")
        assert "k = 1000" in err and "x = 10" in err
        assert "Traceback" not in err

    def test_moments_provably_overflowing_k_exit_2_before_work(self, capsys, no_heavy_work):
        # omega*(19#) = omega*(9,699,690) = 54, so M_1000(10^7) >= 54^1000 / 10^7
        code, out, err = run_cli(capsys, ["moments", "--x", "10000000", "--k", "1000"])
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: ")
        assert "k = 1000" in err and "x = 10000000" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--x", "10,abc"],
            ["smooth-scan", "--x", "1000", "--v-list", "1,zz"],
            ["smooth-scan", "--x", "1000", "--v-list", "1,inf"],
            ["moments", "--x", ","],
            ["smooth-scan", "--x", "1000", "--v-list", ","],
        ],
    )
    def test_bad_list_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "omegastar: error" in err
        assert argv[-2] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "csv", "sample-divisors", "--log-x", "111", "--trials", "10"],
            ["--format", "csv", "report", "--x", "2000", "--log-x", "111", "--trials", "10"],
            ["--format", "json", "smooth-scan", "--x", "1000", "--v-list", "1,2"],
        ],
        ids=lambda argv: f"{argv[1]}-{argv[2]}",
    )
    def test_unsupported_format_exit_2_before_work(self, capsys, no_heavy_work, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: --format")

    def test_report_x_below_10_exit_2_before_work(self, capsys, no_heavy_work):
        code, out, err = run_cli(capsys, ["report", "--x", "9", "--trials", "10", "--log-x", "111"])
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: report --x must be at least 10")

    def test_report_smooth_y_below_1_exit_2_before_work(self, capsys, no_heavy_work):
        code, out, err = run_cli(capsys, ["report", "--smooth-y", "0", "--trials", "10", "--log-x", "111"])
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: report --smooth-y must be at least 1")

    @pytest.mark.parametrize(
        "x, refusal",
        # the table's sieve runs to x + 1, so x = ceiling is refused as well
        [("1001", "omega* table size = 1001"), ("1000", "sieve limit = 1001")],
    )
    def test_report_oversized_x_exit_3_before_work(self, capsys, monkeypatch, no_heavy_work, x, refusal):
        monkeypatch.setenv("OMEGASTAR_CEILING", "1000")
        code, out, err = run_cli(capsys, ["report", "--x", x, "--trials", "10", "--log-x", "111"])
        assert code == 3
        assert out == ""
        assert err.startswith(f"omegastar: resource limit: {refusal} exceeds the memory ceiling 1000")
        assert "Traceback" not in err

    def test_report_x_below_ceiling_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("OMEGASTAR_CEILING", "1000")
        code, out, err = run_cli(capsys, ["report", "--x", "999", "--trials", "10", "--log-x", "111"])
        assert (code, err) == (0, "")
        assert json.loads(out)["parameters"]["x"] == 999

    @pytest.mark.parametrize(
        "argv",
        [
            ["smooth-scan", "--x", "0", "--v-list", "1"],
            ["smooth-scan", "--x", "-5", "--v-list", "1"],
            ["smooth-scan", "--x", "1", "--v-list", "1"],
            ["smooth", "--x", "1", "--y", "10"],
        ],
        ids=lambda argv: f"{argv[0]}-x{argv[2]}",
    )
    def test_smooth_x_below_2_exit_2_before_work(self, capsys, no_heavy_work, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"omegastar: error: {argv[0]} --x must be at least 2")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("subcommand", ["sample-divisors", "report"])
    def test_non_finite_log_x_exit_2(self, capsys, subcommand, value):
        code, out, err = run_cli(capsys, [subcommand, "--log-x", value, "--trials", "10"])
        assert code == 2
        assert out == ""
        assert "omegastar: error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["sample-divisors", "--log-x", "1.5e308"], ["report", "--log-x", "1.7e308"]], ids=lambda a: a[0]
    )
    def test_log_x_past_float_range_exit_3_before_sieve(self, capsys, monkeypatch, no_heavy_work, argv):
        # L = (u - epsilon) log x overflows to inf here; --log-x 1e308 is refused by the sieve itself
        def no_sieve(*args, **kwargs):
            raise AssertionError("sieve_primes called before L was checked")

        monkeypatch.setattr(construction, "sieve_primes", no_sieve)
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("omegastar: resource limit: sieve limit L = (u - epsilon) * log_x overflows")
        assert "Traceback" not in err

    def test_v_list_past_float_range_exit_2_before_work(self, capsys, no_heavy_work):
        code, out, err = run_cli(capsys, ["smooth-scan", "--x", "10", "--v-list", "1e308"])
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: smooth-scan --v-list entries times log x must be finite")

    def test_champions_at_uint16_bound_exit_3_before_sieve(self, capsys, monkeypatch):
        def no_sieve(*args, **kwargs):
            raise AssertionError("sieve_primes called before the uint16 bound was checked")

        monkeypatch.setenv("OMEGASTAR_CEILING", str(2**62))
        monkeypatch.setattr(omega, "sieve_primes", no_sieve)
        code, out, err = run_cli(capsys, ["champions", "--max-n", str(omega._UINT16_BELOW)])
        assert code == 3
        assert out == ""
        assert err.startswith(f"omegastar: resource limit: omega* table size = {omega._UINT16_BELOW} reaches")

    @pytest.mark.parametrize("k", ["1", "100"])
    def test_moments_past_uint16_bound_exit_3_at_every_k(self, capsys, monkeypatch, k):
        # at k = 100 the overflow bound would factorize primorials past 2^63
        # (exit 2), so the table size is refused before it
        monkeypatch.setenv("OMEGASTAR_CEILING", str(10**23))
        code, out, err = run_cli(capsys, ["moments", "--x", str(10**20), "--k", k])
        assert code == 3
        assert out == ""
        assert err.startswith(f"omegastar: resource limit: omega* table size = {10**20} reaches {omega._UINT16_BELOW}")
        assert err.rstrip().endswith("where uint16 counts end")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc/self/status and an enforced RLIMIT_AS")
    @pytest.mark.parametrize(
        "argv",
        [
            "moments --x 100000000",
            "champions --max-n 100000000",
            "pairs --x 100000000 --k 30",
            "--workers 2 sample-divisors --log-x 1e8 --trials 2",
        ],
    )
    def test_out_of_memory_exit_3(self, argv):
        # each run is under the default ceiling, so only the allocation fails
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", _CAPPED_CLI, *argv.split()],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
            timeout=60,
        )
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.startswith("omegastar: resource limit: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_worker_out_of_memory_exit_3(self, capsys, monkeypatch, workers):
        # a sampler worker's MemoryError is raised again in the caller
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(construction, "_chunk_buffers", no_memory)
        argv = ["--workers", workers, "sample-divisors", "--log-x", "100", "--trials", str(3 * construction._CHUNK)]
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == "omegastar: resource limit: out of memory\n"

    @pytest.mark.parametrize("target", ["missing/x", "."], ids=["missing-dir", "is-a-dir"])
    def test_unwritable_out_exit_2(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run_cli(capsys, ["--out", path, "omega-star", "--n", "5"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"omegastar: error: --out {path} cannot be written")
        assert "Traceback" not in err

    def test_unwritable_out_exit_2_before_work(self, capsys, tmp_path, no_heavy_work):
        path = str(tmp_path / "missing" / "x")
        code, out, err = run_cli(capsys, ["--out", path, "moments", "--x", "10000000"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"omegastar: error: --out {path} cannot be written")

    def test_failed_run_keeps_out_file(self, capsys, tmp_path):
        # the early --out check neither truncates a file nor leaves one behind
        argv = ["--out", str(tmp_path / "out.csv"), "moments", "--x", "10", "--k", "0"]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("omegastar: error: k must be at least 1")
        assert not (tmp_path / "out.csv").exists()
        (tmp_path / "out.csv").write_text("earlier output\n")
        assert run_cli(capsys, argv)[0] == 2
        assert (tmp_path / "out.csv").read_text() == "earlier output\n"

    def test_moments_k_below_1_exit_2_before_work(self, capsys, no_heavy_work):
        code, out, err = run_cli(capsys, ["moments", "--x", "10000000", "--k", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: k must be at least 1")

    @pytest.mark.parametrize("v_list", ["-3,0,1", "0", "1,-0.5"])
    def test_non_positive_v_exit_2_before_work(self, capsys, no_heavy_work, v_list):
        code, out, err = run_cli(capsys, ["smooth-scan", "--x", "1000", f"--v-list={v_list}"])
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: smooth-scan --v-list entries must be positive")

    @pytest.mark.parametrize("x, v_list", [("10", "1e-300"), ("2", "0.5"), ("1000", "1,0.01")])
    def test_v_rounding_below_y_1_exit_2_before_work(self, capsys, no_heavy_work, x, v_list):
        # 0.5 log 2 = 0.35 and 0.01 log 1000 = 0.07 round to y = 0
        code, out, err = run_cli(capsys, ["smooth-scan", "--x", x, "--v-list", v_list])
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: smooth-scan --v-list entries times log x must round to y >= 1")

    def test_v_rounding_to_y_1_runs(self, capsys):
        # log 2 = 0.69 rounds to y = 1: only n = 1 is 1-smooth, and it pairs with the prime 2
        code, out, err = run_cli(capsys, ["smooth-scan", "--x", "2", "--v-list", "1"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("2,1,1,1,1,")

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**65 - 1)])
    def test_seed_outside_64_bits_exit_2_before_work(self, capsys, no_heavy_work, seed):
        argv = ["--seed", seed, "sample-divisors", "--log-x", "111", "--trials", "10"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("omegastar: error: --seed must lie in [0, 2^64)")

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_seed_range_ends_accepted(self, capsys, seed):
        code, out, _ = run_cli(capsys, ["--seed", seed, "sample-divisors", "--log-x", "111", "--trials", "10"])
        assert code == 0
        assert json.loads(out)["seed"] == int(seed)

    def test_pairs_above_ceiling_exit_3_before_sieving(self, capsys, monkeypatch, no_sieving):
        monkeypatch.setenv("OMEGASTAR_CEILING", "1000")
        code, out, err = run_cli(capsys, ["pairs", "--x", "1001", "--k", "6"])
        assert code == 3
        assert out == ""
        assert err.startswith("omegastar: resource limit: sieve limit = 1001 exceeds the memory ceiling 1000")

    def test_pairs_non_squarefree_k_exit_2_before_sieving(self, capsys, no_sieving):
        code, out, err = run_cli(capsys, ["pairs", "--x", "100", "--k", "12"])
        assert code == 2
        assert out == ""
        assert err == "omegastar: error: k = 12 is not squarefree\n"

    def test_smooth_above_ceiling_exit_3_before_sieving(self, capsys, monkeypatch, no_sieving):
        monkeypatch.setenv("OMEGASTAR_CEILING", "1000")
        code, out, err = run_cli(capsys, ["smooth", "--x", "1001", "--y", "10"])
        assert code == 3
        assert out == ""
        assert err.startswith("omegastar: resource limit: sieve limit = 1001 exceeds the memory ceiling 1000")

    @pytest.mark.parametrize(
        "k, refusal",
        [
            (0, "k = 0 must be positive"),
            (2**63, f"k = {2**63} exceeds N = 1000: no multiples to scan"),
            # (2^31 - 1)(2^31 - 19), a 62-bit semiprime that Pollard rho would split
            (4611685975477714963, "k = 4611685975477714963 exceeds N = 1000: no multiples to scan"),
        ],
        ids=["zero", "2^63", "semiprime"],
    )
    def test_champions_k_refused_without_factorizing(self, capsys, monkeypatch, no_heavy_work, k, refusal):
        def no_factorize(*args, **kwargs):
            raise AssertionError("champions factorized its k")

        monkeypatch.setattr(cli, "factorize", no_factorize)
        code, out, err = run_cli(capsys, ["champions", "--max-n", "1000", "--k", str(k)])
        assert code == 2
        assert out == ""
        assert err == f"omegastar: error: {refusal}\n"


def _recount_pairs(x: int, k: int) -> tuple[int, dict[int, int]]:
    """total_A and every A_d by a sum over m <= x, not over p: m pairs with
    the primes p = 1 (mod k / gcd(m, k)), the A_d terms with gcd(m, k) = k / d.
    The primes come from a plain Eratosthenes sieve."""
    flags = np.ones(x + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    shifted = np.flatnonzero(flags) - 1
    g = np.gcd(np.arange(1, x + 1), k)
    primes_1_mod = {q: int(np.count_nonzero(shifted % q == 0)) for q in range(1, k + 1) if k % q == 0}
    total = sum(primes_1_mod[k // e] * int(np.count_nonzero(g == e)) for e in primes_1_mod)
    per_d = {d: primes_1_mod[d] * int(np.count_nonzero(g == k // d)) for d in primes_1_mod}
    return total, per_d


def test_pairs_match_a_recount_over_m(capsys):
    # x = 200000 lay above the old pair-space cap of 10^5
    code, out, err = run_cli(capsys, ["pairs", "--x", "200000", "--k", "30"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    total, per_d = _recount_pairs(200000, 30)
    assert doc["total_A"] == total
    assert [row["d"] for row in doc["per_d"]] == [1, 2, 3, 5]
    assert all(row["A_d"] == per_d[row["d"]] for row in doc["per_d"])


def _readme_cli_lines() -> list[list[str]]:
    """The command lines of README's CLI block, comments dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


README_CLI = _readme_cli_lines()


@pytest.mark.parametrize(
    "argv", README_CLI, ids=lambda argv: next(a for a in argv[1:] if not a.startswith("-") and not a.isdigit())
)
def test_readme_cli_line_runs(capsys, argv):
    assert argv[0] == "omegastar"
    code, out, err = run_cli(capsys, argv[1:])
    assert (code, err) == (0, "")
    assert out


def test_readme_omega_star_example_prints_5(capsys):
    assert ["omegastar", "omega-star", "--n", "12"] in README_CLI
    code, out, _ = run_cli(capsys, ["omega-star", "--n", "12"])
    assert (code, out) == (0, "n,omega_star\n12,5\n")
