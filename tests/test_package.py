"""Package surface: a root that holds only its version, the names each
submodule keeps, import under a small memory ceiling, and the names the
benchmark tracer needs."""

import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import omegastar
from omegastar import construction, sieve, smooth

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("sieve", "arith", "omega", "constants", "construction", "smooth", "rng", "cli")
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
    "log_psi_leading",
    "_census_segment",
    "_ORDER_BITS",
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
    # the root holds its version and nothing else: every name is imported
    # from its submodule, which other imports may have bound on the root
    assert omegastar.__version__ == "0.1.0"
    assert not hasattr(omegastar, "__all__")
    public = {name for name in vars(omegastar) if not name.startswith("_")}
    assert public <= set(SUBMODULES), public - set(SUBMODULES)
    for name, value in vars(omegastar).items():
        assert not inspect.isfunction(value) and not inspect.isclass(value), name
    for short in SUBMODULES:
        module = importlib.import_module(f"omegastar.{short}")
        for name in DELETED:
            assert not hasattr(module, name), f"{short}.{name}"
    assert not hasattr(sieve.Factorization, "rebuild")


def test_settable_parameters():
    # build_params derives theta and u from the mode; the ratio reads its census
    assert tuple(inspect.signature(construction.build_params).parameters) == ("log_x", "mode")
    assert tuple(inspect.signature(smooth.pomerance_ratio).parameters) == ("census",)
    fields = {f.name for f in dataclasses.fields(construction.ConstructionParams)}
    assert not fields & {"excluded_prime", "delta_smooth"}


def test_import_under_small_ceiling():
    # the trial-division primes are sieved at import time and must not go
    # through the memory ceiling
    result = _run("import omegastar.sieve; print(len(omegastar.sieve._TRIAL_PRIMES))", OMEGASTAR_CEILING="100")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "6542"


def test_root_import_loads_no_numpy():
    # the root imports no submodule, so numpy waits for the first one
    result = _run("import sys, omegastar; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_import_loads_every_submodule():
    code = "import json, sys, omegastar.cli; print(json.dumps(sorted(m for m in sys.modules if m.startswith('omegastar.'))))"
    result = _run(code)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == sorted(f"omegastar.{m}" for m in SUBMODULES)


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
