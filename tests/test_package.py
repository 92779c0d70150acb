"""Package surface: a root that holds only its version, the names each
submodule keeps, import under a small memory ceiling, the CLI's one-thread
OpenBLAS pin, the modules a CLI run must not load, and the names the
benchmark tracer needs."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omegastar
from omegastar import constants, construction, sieve, smooth

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
    "_PASS_BLOCK",
    "_primes_upto",
    "GrhConstants",
    "grh_constants",
    "_MAX_PAIR_X",
    "_check_pair_x",
    # test-only references, now in tests/oracles.py
    "sample_divisor",
    "DivisorSample",
    "enumerate_D_exact",
    "_subset_profiles",
    "ExactEnumeration",
    "_MAX_EXACT_R",
    "count_representations",
    "mix64",
    "substream_seed",
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
    assert not set(construction.ConstructionParams._fields) & {"excluded_prime", "delta_smooth", "k_primes"}
    # no field echoes an input its caller already holds
    assert "seed" not in construction.SampleStats._fields
    assert "theta" not in constants.OptimumReport._fields
    assert construction.PairCountReport._fields == ("per_d", "total_A")
    assert tuple(inspect.signature(construction.champion_search).parameters) == ("N", "k", "table")


def test_only_sieve_builds_prime_flags():
    # every other module takes its prime flags from sieve.sieve_primes
    for path in sorted((ROOT / "src" / "omegastar").glob("*.py")):
        if path.name == "sieve.py":
            continue
        source = path.read_text()
        for name in ("_odd_slots", "_segment_flags"):
            assert name not in source, f"{path.name} names {name}"


def test_sampler_oracle_shares_no_kernel():
    # the one-sample reference must not reach the chunk's word matrix, its
    # threshold or its window test, or a fault there would go unseen
    source = (ROOT / "tests" / "oracles.py").read_text()
    for name in ("unit_block", "_below_limit", "_window_flags", "_chunk_stats"):
        assert name not in source, f"oracles.py names {name}"


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


BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def test_cli_pins_openblas_to_one_thread(monkeypatch):
    # the pytest process holds the pin once test_cli has imported the CLI,
    # and OpenBLAS falls back to the other two names, so the child gets none
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    code = (
        "import os, sys, omegastar.cli; "
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform.startswith('linux') else 1; "
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks)"
    )
    result = _run(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "1"]
    # a value the user set is kept
    result = _run("import os, omegastar.cli; print(os.environ['OPENBLAS_NUM_THREADS'])", OPENBLAS_NUM_THREADS="3")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "3"
    # library users keep their own BLAS threads
    result = _run("import os, omegastar.omega; print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "None"


@pytest.mark.parametrize(
    "argv",
    [
        ("--seed", "7", "--workers", "2", "report"),
        ("--seed", "7", "--workers", "2", "sample-divisors", "--log-x", "1100", "--trials", "20000"),
    ],
    ids=["report", "sample-divisors"],
)
def test_blas_threads_change_no_byte(argv):
    code = "import sys; from omegastar.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = [_run(code, *argv, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
    for result in runs:
        assert result.returncode == 0, result.stderr
    assert runs[0].stdout == runs[1].stdout


def _blas_entry_points(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Call):
            # a call through an attribute is caught at its Attribute node
            name = getattr(node.func, "id", None)
            if name in BLAS_NAMES:
                found.append(f"line {node.lineno}: {name}()")
            if "einsum" in (name, getattr(node.func, "attr", None)) and any(kw.arg == "optimize" for kw in node.keywords):
                found.append(f"line {node.lineno}: einsum(optimize=...)")
    return found


def test_blas_guard_sees_each_entry_point():
    source = "a @ b\na @= b\nnp.dot(a, b)\nnp.linalg.norm(a)\ninner(a, b)\nnp.einsum('ij,jk', a, b, optimize=True)\n"
    found = sorted(entry.split(":")[0] for entry in _blas_entry_points(source))
    assert found == [f"line {i}" for i in range(1, 7)], found
    assert _blas_entry_points("np.einsum('ij->i', a, out=w)\nx = inner\n") == []


def test_no_kernel_calls_blas():
    for path in sorted((ROOT / "src" / "omegastar").glob("*.py")):
        found = _blas_entry_points(path.read_text())
        assert not found, (
            f"{path.name} reaches BLAS ({', '.join(found)}); a BLAS kernel must revisit "
            "the one-thread OPENBLAS_NUM_THREADS pin in cli.py"
        )


def _dataclass_uses(source: str) -> list[int]:
    """The lines that import the dataclasses module or name dataclass."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if {"dataclasses", "dataclass"} & set(names):
            lines.add(node.lineno)
    return sorted(lines)


def test_dataclass_guard_sees_each_use():
    source = (
        "import dataclasses\nfrom dataclasses import field\n@dataclass\nclass A: pass\n"
        "@dataclasses.dataclass(eq=False)\nclass B: pass\nC = dataclass(object)\n"
    )
    assert _dataclass_uses(source) == [1, 2, 3, 5, 7]
    assert _dataclass_uses("from typing import NamedTuple\nclass A(NamedTuple):\n    x: int\n") == []


def test_no_module_uses_dataclasses():
    # every result record is a NamedTuple: a dataclass execs its generated
    # methods at every import, which no bytecode cache spares
    for path in sorted((ROOT / "src" / "omegastar").glob("*.py")):
        lines = _dataclass_uses(path.read_text())
        assert not lines, f"{path.name} uses dataclasses at lines {lines}"


# Each costs start-up and none is needed: argparse with its gettext and
# locale is built only for a command line outside the plain form, the
# thread pool with its logging and queue went with plain sampler threads.
UNLOADED = ("argparse", "gettext", "locale", "concurrent.futures", "logging", "queue")


def test_cli_run_loads_no_parser_or_pool_module():
    code = (
        "import json, sys; from omegastar.cli import main; code = main(['omega-star', '--n', '12']); "
        f"print(json.dumps([code, sorted(set({UNLOADED!r}) & set(sys.modules))]))"
    )
    result = _run(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, []]"


def test_benchmark_runs_load_no_parser_or_pool_module(monkeypatch):
    # each benchmark command line takes the plain path, which never builds argparse
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    argvs = [w.argv(1) for w in workloads.WORKLOADS.values()]
    code = (
        "import contextlib, io, json, sys; from omegastar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        f"print(json.dumps([codes, sorted(set({UNLOADED!r}) & set(sys.modules))]))"
    )
    result = _run(code, json.dumps(argvs))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[[0, 0, 0, 0], []]"


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
