"""omegastar benchmark: runs the `omegastar` CLI one fresh process per
invocation, checks every output, and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `omegastar` from
`src/`.  Set-up (untimed): one small invocation to warm the bytecode and page
caches, and for `sample` and `report` a `--workers 1` reference that the
timed `--workers 2` output must match.  Then invocations run back to back
(a closed loop, one client) for S seconds.

With --trace 0 it reports the end-to-end metrics, each a median over the
run's invocations.  With --trace 1 it alternates untraced and traced
invocations and reports the per-layer metrics, medians over the traced ones,
plus the tracing overhead.  The last stdout line is the JSON result; the full
record, with environment, samples and spans, goes to
.perfbench/BENCH_<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
INVOKE = os.path.join(HERE, "invoke.py")
INVOKE_TIMEOUT_S = 60
MIN_INVOCATIONS = 3
E2E = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def invoke(argv: list[str], traced: bool = False, invocation: int = 0) -> dict:
    """One CLI invocation in a fresh interpreter; returns its record."""
    record_path = os.path.join(WORK, f"invocation-{os.getpid()}.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [sys.executable, INVOKE, ROOT, record_path, str(int(traced)), str(invocation), "--", *argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=INVOKE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "rc": None, "stdout": b"", "error": "timed out"}
    result = {"traced": traced, "rc": proc.returncode, "stdout": proc.stdout}
    if proc.returncode != 0 or not os.path.exists(record_path):
        result["error"] = proc.stderr.decode(errors="replace")[-2000:] or "no record written"
        return result
    with open(record_path) as fh:
        record = json.load(fh)
    os.remove(record_path)
    record["setup_s"] = record.pop("imported_at") - spawned
    result.update(record)
    return result


def _canonical(out: bytes) -> object:
    """The output with the worker count, which the report echoes, taken out."""
    doc = json.loads(out)
    doc.get("parameters", {}).pop("workers", None)
    return doc


def _environment(seed: int, sizes: dict) -> dict:
    import numpy

    cpuinfo = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpuinfo.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpuinfo.get("model name"),
        "last_level_cache": cpuinfo.get("cache size"),
        "platform": platform.platform(),
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "sizes": sizes,
    }


def _layer_values(trace: dict, wall_s: float, names: list[str], oracle, output_bytes: int) -> dict:
    """Per-layer metrics of one traced invocation."""
    from tracer import TracerError, self_times

    spans = trace["spans"]
    if trace["errors"]:
        raise TracerError("; ".join(trace["errors"]))
    selfs = self_times(spans)
    if min(selfs.values()) < 0 or sum(selfs.values()) > wall_s:
        raise TracerError(f"self times are negative or exceed the traced wall time {wall_s}")
    by_id = {s["id"]: s for s in spans}
    owners = {m.rpartition(".")[0] for m in names if m.endswith(".self_s")}
    # A self_s metric also covers spans of its own module beneath it, such as
    # cli.run under cli.main or _chunk_stats under sample_stats.
    owned = collections.Counter()
    for s in spans:
        top = s
        while top["name"] not in owners and top["parent"] is not None:
            parent = by_id[top["parent"]]
            if parent["name"].partition(".")[0] != top["name"].partition(".")[0]:
                break
            top = parent
        owned[top["name"]] += selfs[s["id"]]

    values = {}
    for metric in names:
        name, _, kind = metric.rpartition(".")
        mine = [s for s in spans if s["name"] == name]
        if kind == "self_s":
            values[metric] = owned[name]
        elif kind == "calls":
            values[metric] = len(mine)
        elif kind == "rss_rise_mb":
            values[metric] = sum(s["rss_rise_kb"] for s in mine) / 1024
        elif kind == "slice_ops":
            values[metric] = sum(oracle.pi(s["sizes"]["x"] + 1) for s in mine)
        elif kind == "table_mb":
            values[metric] = sum(s["sizes"]["table_bytes"] for s in mine) / 2**20
        elif kind == "parallel_eff":
            ids = {s["id"] for s in mine}
            busy = sum(c["end"] - c["start"] for c in spans if c["parent"] in ids)
            capacity = sum((s["end"] - s["start"]) * s["sizes"]["workers"] for s in mine)
            values[metric] = busy / capacity if capacity else 0.0
        elif kind == "output_bytes":
            values[metric] = output_bytes
        elif kind != "overhead_frac":
            values[metric] = sum(s["sizes"][kind] for s in mine)
    return values


def _check(runs: list[dict], workload, seed: int, reference: dict | None, oracle) -> list[str]:
    """Set each run's "problems"; outputs are checked once per distinct text."""
    outputs = collections.Counter(r["stdout"] for r in runs if "error" not in r)
    verdicts = {}
    for out in outputs:
        try:
            found = workload.check(seed, out.decode(), oracle)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if out != outputs.most_common(1)[0][0]:
            found.append("output differs from the run's other invocations")
        if reference is not None:
            try:
                if _canonical(out) != _canonical(reference["stdout"]):
                    found.append("output differs from the --workers 1 reference")
            except ValueError as exc:
                found.append(f"reference output unreadable: {exc!r}")
        verdicts[out] = found
    problems = []
    for i, r in enumerate(runs):
        r["problems"] = [r["error"]] if "error" in r else verdicts[r["stdout"]]
        problems += [f"invocation {i}: {p}" for p in r["problems"]]
    return problems


def _layer_metrics(workload: str, traced: list[dict], names: list[str], predictions: dict, oracle) -> dict:
    """Medians over the traced invocations; exits if the tracer went blind."""
    from tracer import TracerError

    must_see = {
        metric.rpartition(".")[0]
        for entry in predictions["per_layer"]
        if workload in entry["on"]
        for metric in entry["metrics"]
        if not metric.startswith("trace.")
    }
    per_invocation = []
    for r in traced:
        missing = must_see - {s["name"] for s in r["trace"]["spans"]}
        if missing:
            _die(f"tracer saw no span for {sorted(missing)}")
        try:
            per_invocation.append(
                _layer_values(r["trace"], r["wall_s"], names, oracle, len(r["stdout"]))
            )
        except TracerError as exc:
            _die(f"tracer: {exc}")
    return {m: statistics.median(v[m] for v in per_invocation) for m in per_invocation[0]}


def main() -> None:
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, Oracle, reference_argv

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "omegastar", "cli.py")):
        _die(f"no omegastar sources under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predictions = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    layer_names = [m["name"] for m in spec["per_layer"]]
    predicted = [m for entry in predictions["per_layer"] for m in entry["metrics"]]
    if sorted(predicted) != sorted(layer_names) or [m["name"] for m in spec["end_to_end"]] != list(E2E):
        _die("BENCHMARK.json metrics and perfbench/predictions.json disagree")
    os.makedirs(WORK, exist_ok=True)

    # Set-up, untimed.
    workload = WORKLOADS[args.workload]
    argv = workload.argv(args.seed)
    problems = []
    warm = invoke(["omega-star", "--n", "12"])
    if warm["rc"] != 0:
        problems.append(f"warm-up invocation failed: {warm.get('error')}")
    one_worker = reference_argv(workload, args.seed)
    reference = invoke(one_worker) if one_worker else None

    runs = []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or len(runs) < MIN_INVOCATIONS * (1 + args.trace):
        runs.append(invoke(argv, traced=bool(args.trace) and len(runs) % 2 == 1, invocation=len(runs)))

    oracle = Oracle()
    problems += _check(runs, workload, args.seed, reference, oracle)
    failed = sum(1 for r in runs if r["problems"])
    untraced = [r for r in runs if "wall_s" in r and not r["traced"]]
    traced = [r for r in runs if "wall_s" in r and r["traced"]]
    if not untraced or (args.trace and not traced):
        _die("no invocation completed: " + "; ".join(problems)[:2000])
    summary = {
        m: {
            "median": statistics.median(r[m] for r in untraced),
            "max": max(r[m] for r in untraced),
            "samples": len(untraced),
        }
        for m in E2E
    }
    if args.trace:
        values = _layer_metrics(args.workload, traced, layer_names, predictions, oracle)
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / summary["wall_s"]["median"] - 1
        )
    else:
        values = {m: summary[m]["median"] for m in E2E}

    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in (layer_names if args.trace else E2E)},
    }
    record = {
        "workload": args.workload,
        "why": predictions["workloads"][args.workload],
        "argv": argv,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(args.seed, workload.sizes(args.seed)),
        "summary": summary,
        "fail_frac": failed / len(runs),
        "problems": problems,
        "result": result,
        "predictions": predictions,
        "invocations": [
            {k: v for k, v in r.items() if k not in ("stdout", "trace")}
            | {"output_bytes": len(r["stdout"])}
            for r in runs
        ],
        "spans": [s for r in traced for s in r["trace"]["spans"]],
        "rebound": traced[0]["trace"]["rebound"] if traced else {},
    }
    path = os.path.join(WORK, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for m in E2E:
        s = summary[m]
        print(f"{m}: median {s['median']:.4f} max {s['max']:.4f} over {s['samples']}", file=sys.stderr)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
