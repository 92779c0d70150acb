"""Package surface: the exported names, import under a small memory
ceiling, and the names the benchmark tracer needs."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import omegastar

ROOT = Path(__file__).resolve().parent.parent
DELETED = (
    "log_integral",
    "carmichael_lambda",
    "mobius",
    "little_omega",
    "gcd_sum_over_primes",
    "primorial_k",
    "moment_series_csv",
    "apr_from_pomerance_report",
    "AprComparisonReport",
    "greatest_prime_factor",
    "accept_flags",
    "harman_smoothness_check",
    "euler_phi",
    "big_omega",
    "DivisorList",
    "moment",
    "MomentSeries",
    "prime_count",
    "psi_count",
    "pi_smooth_count",
)


def _run(code: str, *argv: str, **env: str) -> subprocess.CompletedProcess:
    pythonpath = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, **env),
        timeout=60,
    )


def test_all_holds_only_reexported_objects():
    assert omegastar.__all__
    for name in omegastar.__all__:
        assert not isinstance(getattr(omegastar, name), types.ModuleType), name
    for name in DELETED:
        assert name not in omegastar.__all__
        assert not hasattr(omegastar, name)
    assert not hasattr(omegastar.Factorization, "rebuild")


def test_settable_parameters():
    # build_params derives theta and u from the mode; the ratio reads its census
    assert tuple(inspect.signature(omegastar.build_params).parameters) == ("log_x", "mode")
    assert tuple(inspect.signature(omegastar.pomerance_ratio).parameters) == ("census",)
    fields = {f.name for f in dataclasses.fields(omegastar.ConstructionParams)}
    assert not fields & {"excluded_prime", "delta_smooth"}


def test_import_under_small_ceiling():
    # the trial-division primes are sieved at import time and must not go
    # through the memory ceiling
    result = _run("import omegastar; print(len(omegastar.sieve._TRIAL_PRIMES))", OMEGASTAR_CEILING="100")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "6542"


def test_benchmark_tracer_installs():
    # install() rebinds module attributes for the rest of the process, so it
    # runs in a child: a missing required name or a public generator fails here
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from tracer import Tracer; Tracer().install()"
    )
    result = _run(code, str(ROOT / "perfbench"))
    assert result.returncode == 0, result.stderr


def test_tracer_sees_one_census_for_all_y():
    # smooth-scan makes one smooth_census call over [1, x] for all its y;
    # the benchmark reads that call's x as smooth.smooth_census.n
    code = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
from omegastar import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["smooth-scan", "--x", "5000", "--v-list", "1,2,4"])
print(json.dumps({"code": code, "spans": tracer.export()["spans"]}))
"""
    result = _run(code, str(ROOT / "perfbench"))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["code"] == 0
    census = [s for s in report["spans"] if s["name"] == "smooth.smooth_census"]
    assert len(census) == 1
    assert census[0]["sizes"]["n"] == 5000
