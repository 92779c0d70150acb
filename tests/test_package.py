"""Package surface: the exported names, import under a small memory
ceiling, and the names the benchmark tracer needs."""

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
