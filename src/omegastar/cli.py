"""Command-line entry point; every number printed comes from a module call.

Exit codes: 0 success, 2 usage or domain error, 3 resource ceiling exceeded.
Runs with identical configuration produce byte-identical output, Monte Carlo
sections included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any

from . import __version__
from .arith import tau
from .constants import (
    GOLDEN_RATIO,
    UNCONDITIONAL_THETA,
    apr_conjecture_bound,
    grh_constants,
    maximize_f_theta,
)
from .construction import (
    build_params,
    champion_search,
    chebyshev_bounds,
    entropy_lower_bound,
    pair_count_report,
    sample_stats,
)
from .omega import moment_scan, omega_star, omega_star_table
from .sieve import ResourceLimitError, check_ceiling, factorize
from .smooth import pomerance_ratio, smooth_census

SCHEMA = "omegastar/1"

# A handler returns (doc, rows): the JSON document and the CSV rows, flat
# dicts whose keys are the header; None where the command has no such form.
Output = tuple[dict[str, Any] | None, list[dict[str, Any]] | None]


def _render(fmt: str, doc: dict[str, Any] | None, rows: list[dict[str, Any]] | None) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [",".join(rows[0])] + [",".join(map(repr, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


def _write_out(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"--out {path} cannot be written: {exc.strerror}") from None


def _check_out(path: str) -> None:
    """Fail before any work if `path` cannot be written, and leave it as it
    was: append mode truncates nothing, and a file the check makes is removed."""
    existed = os.path.lexists(path)
    _write_out(path, "", mode="a")
    if not existed:
        os.remove(path)


def _emit(path: str | None, text: str) -> None:
    if path:
        _write_out(path, text)
    else:
        sys.stdout.write(text)


def _cmd_omega_star(args: argparse.Namespace) -> Output:
    row = {"n": args.n, "omega_star": omega_star(args.n)}
    return {"schema": SCHEMA, **row}, [row]


def _cmd_moments(args: argparse.Namespace) -> Output:
    points = moment_scan(_parse_list(args.x, int, "--x"), args.k)
    doc = {"schema": SCHEMA, "k": args.k, "points": [{"x": x, "Mk": mk} for x, mk in points]}
    rows = [
        {
            "x": x,
            "k": args.k,
            "Mk": mk,
            "log_x": math.log(x),
            "loglog_x": math.log(math.log(x)) if x >= 2 else math.nan,
        }
        for x, mk in points
    ]
    return doc, rows


def _cmd_champions(args: argparse.Namespace) -> Output:
    record = champion_search(args.max_n, factorize(args.k))
    row = {"n": record.n, "omega_star": record.omega_star_n, "score": record.score}
    # JSON has no NaN: the score, undefined below n = 3, is null there.
    score = None if math.isnan(record.score) else record.score
    return {"schema": SCHEMA, **row, "score": score}, [row]


def _constants_document(theta: float) -> dict[str, Any]:
    opt = maximize_f_theta(theta)
    g = grh_constants()
    return {
        "theta": theta,
        "u_star": opt.u_star,
        "f_max": opt.f_max,
        "f_over_log2": opt.f_over_log2,
        "apr_bound_at_theta": apr_conjecture_bound(theta),
        "apr_bound_limit": math.log(2.0),
        "grh": {
            "u": g.u,
            "golden": g.golden,
            "C": g.C,
            "log_golden": math.log(g.golden),
            "inverse_golden_squared": 1.0 / GOLDEN_RATIO**2,
            "residuals": g.residuals(),
        },
    }


def _cmd_constants(args: argparse.Namespace) -> Output:
    doc = _constants_document(args.theta)
    row = {
        "theta": doc["theta"],
        "u_star": doc["u_star"],
        "f_max": doc["f_max"],
        "f_over_log2": doc["f_over_log2"],
        "grh_u": doc["grh"]["u"],
        "grh_C": doc["grh"]["C"],
    }
    return {"schema": SCHEMA, **doc}, [row]


def _sampling_document(log_x: float, mode: str, trials: int, seed: int, workers: int) -> dict[str, Any]:
    params = build_params(log_x, mode=mode)
    stats = sample_stats(params, trials, seed, workers=workers)
    p_fail_logd, p_fail_omega = chebyshev_bounds(params)
    return {
        "seed": seed,
        "params": {
            "log_x": params.log_x,
            "mode": params.mode,
            "theta": params.theta,
            "u": params.u,
            "epsilon": params.epsilon,
            "rho": params.rho,
            "L": params.L,
            "R": params.R,
            "log_k": params.log_k,
            "target_log_d": params.target_log_d,
            "window_log_d": params.window_log_d,
            "window_omega": params.window_omega,
        },
        "acceptance_rates": {
            "trials": trials,
            "acceptance": stats.acceptance,
            "fail_logd": stats.fail_rate_logd,
            "fail_omega": stats.fail_rate_omega,
            "mean_log_d": stats.mean_log_d,
            "mean_omega": stats.mean_omega,
        },
        "chebyshev_bounds": {
            "p_fail_logd": p_fail_logd,
            "p_fail_omega": p_fail_omega,
        },
        "entropy_bound": {
            "log_count_bound": entropy_lower_bound(params),
            "fudge_exponent": params.R ** (2.0 / 3.0),
        },
    }


def _cmd_sample_divisors(args: argparse.Namespace) -> Output:
    doc = _sampling_document(args.log_x, args.mode, args.trials, args.seed, args.workers)
    return {"schema": SCHEMA, **doc}, None


def _cmd_pairs(args: argparse.Namespace) -> Output:
    x = args.x
    k = factorize(args.k)
    report = pair_count_report(x, k)
    doc = {
        "schema": SCHEMA,
        "x": x,
        "k": k.n,
        "per_d": [{"d": d, "A_d": a_d} for d, a_d in report.per_d],
        "total_A": report.total_A,
    }
    rows = [{"x": x, "k": k.n, "d": d, "A_d": a_d, "total_A": report.total_A} for d, a_d in report.per_d]
    return doc, rows


def _smooth_rows(x: int, ys: list[int]) -> list[dict[str, Any]]:
    rows = []
    for census in smooth_census(x, ys):
        counts = {"x": x, "y": census.y, "psi": census.psi, "pi_smooth": census.pi_smooth, "pi": census.pi_x}
        rows.append({**counts, **pomerance_ratio(census)._asdict()})
    return rows


def _smooth_x(args: argparse.Namespace) -> int:
    if args.x < 2:
        raise ValueError(f"{args.subcommand} --x must be at least 2; got {args.x}")
    return args.x


def _cmd_smooth(args: argparse.Namespace) -> Output:
    rows = _smooth_rows(_smooth_x(args), [args.y])
    return {"schema": SCHEMA, **rows[0]}, rows


def _cmd_smooth_scan(args: argparse.Namespace) -> Output:
    x = _smooth_x(args)
    vs = _parse_list(args.v_list, float, "--v-list")
    if min(vs) <= 0:
        raise ValueError(f"smooth-scan --v-list entries must be positive; got {args.v_list!r}")
    ys = [v * math.log(x) for v in vs]
    if not all(map(math.isfinite, ys)):
        raise ValueError(f"smooth-scan --v-list entries times log x must be finite; got {args.v_list!r}")
    ys = [round(y) for y in ys]
    if min(ys) < 1:
        raise ValueError(f"smooth-scan --v-list entries times log x must round to y >= 1; got {args.v_list!r}")
    return None, _smooth_rows(x, ys)


def _cmd_report(args: argparse.Namespace) -> Output:
    x, log_x, trials = args.x, args.log_x, args.trials
    if x < 10:
        raise ValueError(f"report --x must be at least 10, its smallest moment checkpoint; got {x}")
    if args.smooth_y < 1:
        raise ValueError(f"report --smooth-y must be at least 1; got {args.smooth_y}")
    # the table's ceilings (its sieve runs to x + 1) cover the census's; refuse before the Monte Carlo
    check_ceiling(x, "omega* table size")
    check_ceiling(x + 1, "sieve limit")
    sampling_doc = _sampling_document(log_x, args.mode, trials, args.seed, args.workers)
    # The census runs before the omega* table is built, so its x/2-byte
    # odd-slot flag array never sits on top of the table.
    smooth_row = _smooth_rows(x, [args.smooth_y])[0]

    table = omega_star_table(x)
    xs = [n for n in (x // 100, x // 10, x) if n >= 10]
    points = moment_scan(sorted(set(xs)), 1, table=table)
    champion = champion_search(x, factorize(1), table=table)

    doc = {
        "schema": "omegastar-report/1",
        "version": __version__,
        "seed": args.seed,
        "parameters": {
            "x": x,
            "log_x": log_x,
            "trials": trials,
            "mode": sampling_doc["params"]["mode"],
            "smooth_y": args.smooth_y,
            "workers": args.workers,
        },
        "constants": _constants_document(UNCONDITIONAL_THETA),
        "moments": {
            "k": 1,
            "points": [
                {
                    "x": px,
                    "M1": mk,
                    "loglog_x": math.log(math.log(px)),
                    "M1_minus_loglog_x": mk - math.log(math.log(px)),
                }
                for px, mk in points
            ],
        },
        "champion": {
            "n": champion.n,
            "omega_star": champion.omega_star_n,
            "tau_at_n": tau(factorize(champion.n)),
            "score": champion.score,
            "unconditional_exponent": 0.6736 * math.log(2.0),
            "grh_exponent": math.log(GOLDEN_RATIO),
        },
        "sampling": sampling_doc,
        "smooth": smooth_row,
    }
    return doc, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegastar",
        description="Shifted-prime divisor counts, moments, divisor-set sampling, and smooth censuses.",
    )
    parser.add_argument("--seed", type=int, default=1, help="seed in [0, 2^64) for sampled sections")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument(
        "--workers",
        type=int,
        default=max(1, os.cpu_count() or 1),
        help="worker count for Monte Carlo sections (results are worker-count independent)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, handler, help: str, *formats: str) -> argparse.ArgumentParser:
        # `formats` are those the subcommand can write, default first; any other exits 2.
        s = sub.add_parser(name, help=help)
        s.set_defaults(handler=handler, formats=formats)
        return s

    s = command("omega-star", _cmd_omega_star, "omega*(n) for one n", "csv", "json")
    s.add_argument("--n", type=int, required=True)

    s = command("moments", _cmd_moments, "M_k at one or more x (comma separated)", "csv", "json")
    s.add_argument("--x", type=str, required=True)
    s.add_argument("--k", type=int, default=1)

    s = command("champions", _cmd_champions, "maximize omega* over multiples of k up to max-n", "csv", "json")
    s.add_argument("--max-n", type=int, required=True)
    s.add_argument("--k", type=int, default=1)

    s = command("constants", _cmd_constants, "optimized constants and identity residuals", "json", "csv")
    s.add_argument("--theta", type=float, default=UNCONDITIONAL_THETA)

    s = command("sample-divisors", _cmd_sample_divisors, "seeded random-divisor acceptance experiment", "json")
    s.add_argument("--log-x", type=float, required=True)
    s.add_argument("--mode", choices=("grh", "unconditional"), default="grh")
    s.add_argument("--trials", type=int, default=10**5)

    s = command("pairs", _cmd_pairs, "A_d pair counts for divisors d <= sqrt(k), plus total A", "json", "csv")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--k", type=int, required=True)

    s = command("smooth", _cmd_smooth, "Psi(x,y), pi(x,y), pi(x) and the density ratio", "csv", "json")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--y", type=int, required=True)

    s = command("smooth-scan", _cmd_smooth_scan, "smooth census at y = round(v log x) for each v", "csv")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--v-list", type=str, required=True)

    s = command("report", _cmd_report, "consolidated JSON document", "json")
    s.add_argument("--x", type=int, default=10**6)
    s.add_argument("--log-x", type=float, default=1100.0)
    s.add_argument("--trials", type=int, default=10**5)
    s.add_argument("--mode", choices=("grh", "unconditional"), default="unconditional")
    s.add_argument("--smooth-y", type=int, default=100)

    return parser


def _parse_list(text: str, kind: type, flag: str) -> list[Any]:
    """Nonempty comma-separated numbers of one type, floats finite; ValueError names the flag."""
    try:
        values = [kind(part) for part in text.split(",") if part]
    except ValueError:
        values = None
    if not values or (kind is float and not all(map(math.isfinite, values))):
        kinds = f"finite {kind.__name__}s"
        raise ValueError(f"{flag} must be a nonempty comma-separated list of {kinds}, got {text!r}")
    return values


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fmt = args.format or args.formats[0]
    args.workers = max(1, args.workers)
    try:
        if not 0 <= args.seed < 2**64:
            raise ValueError(f"--seed must lie in [0, 2^64); got {args.seed}")
        if fmt not in args.formats:
            supported = ", ".join(args.formats)
            raise ValueError(f"--format {fmt} is not supported by {args.subcommand} (supported: {supported})")
        if args.out:
            _check_out(args.out)
        _emit(args.out, _render(fmt, *args.handler(args)))
        return 0
    except ResourceLimitError as exc:
        print(f"omegastar: resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"omegastar: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
