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
from dataclasses import dataclass
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
from .omega import moment_scan, moment_series_csv, omega_star, omega_star_table
from .sieve import ResourceLimitError, factorize
from .smooth import pomerance_ratio, smooth_census

SCHEMA = "omegastar/1"

_JSON_DEFAULT = {"constants", "sample-divisors", "pairs", "report"}


@dataclass
class RunConfig:
    subcommand: str
    params: dict[str, Any]
    seed: int
    output_format: str
    output_path: str | None
    workers: int


def _dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_omega_star(config: RunConfig) -> str:
    n = config.params["n"]
    value = omega_star(n)
    if config.output_format == "json":
        return _dump_json({"schema": SCHEMA, "n": n, "omega_star": value})
    return f"n,omega_star\n{n},{value}\n"


def _cmd_moments(config: RunConfig) -> str:
    xs = config.params["x"]
    k = config.params["k"]
    series = moment_scan(xs, k)
    if config.output_format == "json":
        return _dump_json(
            {
                "schema": SCHEMA,
                "k": k,
                "points": [{"x": x, "Mk": mk} for x, mk in series.points],
            }
        )
    return moment_series_csv(series)


def _cmd_champions(config: RunConfig) -> str:
    record = champion_search(config.params["max_n"], factorize(config.params["k"]))
    if config.output_format == "json":
        return _dump_json(
            {
                "schema": SCHEMA,
                "n": record.n,
                "omega_star": record.omega_star_n,
                "score": record.score,
            }
        )
    return f"n,omega_star,score\n{record.n},{record.omega_star_n},{record.score!r}\n"


def _constants_document(theta: float) -> dict[str, Any]:
    opt = maximize_f_theta(theta)
    g = grh_constants()
    return {
        "schema": SCHEMA,
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


def _cmd_constants(config: RunConfig) -> str:
    doc = _constants_document(config.params["theta"])
    if config.output_format == "csv":
        flat = {
            "theta": doc["theta"],
            "u_star": doc["u_star"],
            "f_max": doc["f_max"],
            "f_over_log2": doc["f_over_log2"],
            "grh_u": doc["grh"]["u"],
            "grh_C": doc["grh"]["C"],
        }
        header = ",".join(flat)
        row = ",".join(repr(v) for v in flat.values())
        return f"{header}\n{row}\n"
    return _dump_json(doc)


def _sampling_document(log_x: float, mode: str, trials: int, seed: int, workers: int) -> dict[str, Any]:
    params = build_params(log_x, mode=mode)
    stats = sample_stats(params, trials, seed, workers=workers)
    p_fail_logd, p_fail_omega = chebyshev_bounds(params)
    return {
        "schema": SCHEMA,
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


def _cmd_sample_divisors(config: RunConfig) -> str:
    doc = _sampling_document(
        config.params["log_x"],
        config.params["mode"],
        config.params["trials"],
        config.seed,
        config.workers,
    )
    return _dump_json(doc)


def _cmd_pairs(config: RunConfig) -> str:
    x = config.params["x"]
    k = factorize(config.params["k"])
    report = pair_count_report(x, k)
    if config.output_format == "csv":
        lines = ["x,k,d,A_d,total_A"]
        for d, a_d in report.per_d:
            lines.append(f"{x},{k.n},{d},{a_d},{report.total_A}")
        return "\n".join(lines) + "\n"
    return _dump_json(
        {
            "schema": SCHEMA,
            "x": x,
            "k": k.n,
            "per_d": [{"d": d, "A_d": a_d} for d, a_d in report.per_d],
            "total_A": report.total_A,
        }
    )


def _smooth_rows(entries: list[tuple[int, int]]) -> str:
    lines = ["x,y,psi,pi_smooth,pi,lhs,rhs,quotient"]
    for x, y in entries:
        census = smooth_census(x, y)
        ratio = pomerance_ratio(x, y, census=census)
        lines.append(
            f"{x},{y},{census.psi},{census.pi_smooth},{census.pi_x},"
            f"{ratio.lhs!r},{ratio.rhs!r},{ratio.quotient!r}"
        )
    return "\n".join(lines) + "\n"


def _cmd_smooth(config: RunConfig) -> str:
    x, y = config.params["x"], config.params["y"]
    if config.output_format == "json":
        census = smooth_census(x, y)
        ratio = pomerance_ratio(x, y, census=census)
        return _dump_json(
            {
                "schema": SCHEMA,
                "x": x,
                "y": y,
                "psi": census.psi,
                "pi_smooth": census.pi_smooth,
                "pi": census.pi_x,
                "lhs": ratio.lhs,
                "rhs": ratio.rhs,
                "quotient": ratio.quotient,
            }
        )
    return _smooth_rows([(x, y)])


def _cmd_smooth_scan(config: RunConfig) -> str:
    x = config.params["x"]
    entries = [(x, max(1, round(v * math.log(x)))) for v in config.params["v_list"]]
    return _smooth_rows(entries)


def _cmd_report(config: RunConfig) -> str:
    p = config.params
    x, log_x, trials = p["x"], p["log_x"], p["trials"]
    constants_doc = _constants_document(UNCONDITIONAL_THETA)
    constants_doc.pop("schema")
    sampling_doc = _sampling_document(log_x, p["mode"], trials, config.seed, config.workers)
    sampling_doc.pop("schema")

    table = omega_star_table(x)
    xs = [n for n in (x // 100, x // 10, x) if n >= 10]
    series = moment_scan(sorted(set(xs)), 1, table=table)
    champion = champion_search(x, factorize(1), table=table)
    census = smooth_census(x, p["smooth_y"])
    ratio = pomerance_ratio(x, p["smooth_y"], census=census)

    doc = {
        "schema": "omegastar-report/1",
        "version": __version__,
        "seed": config.seed,
        "parameters": {
            "x": x,
            "log_x": log_x,
            "trials": trials,
            "mode": sampling_doc["params"]["mode"],
            "smooth_y": p["smooth_y"],
            "workers": config.workers,
        },
        "constants": constants_doc,
        "moments": {
            "k": 1,
            "points": [
                {
                    "x": px,
                    "M1": mk,
                    "loglog_x": math.log(math.log(px)),
                    "M1_minus_loglog_x": mk - math.log(math.log(px)),
                }
                for px, mk in series.points
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
        "smooth": {
            "x": x,
            "y": p["smooth_y"],
            "psi": census.psi,
            "pi_smooth": census.pi_smooth,
            "pi": census.pi_x,
            "lhs": ratio.lhs,
            "rhs": ratio.rhs,
            "quotient": ratio.quotient,
        },
    }
    return _dump_json(doc)


_HANDLERS = {
    "omega-star": _cmd_omega_star,
    "moments": _cmd_moments,
    "champions": _cmd_champions,
    "constants": _cmd_constants,
    "sample-divisors": _cmd_sample_divisors,
    "pairs": _cmd_pairs,
    "smooth": _cmd_smooth,
    "smooth-scan": _cmd_smooth_scan,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegastar",
        description="Shifted-prime divisor counts, moments, divisor-set sampling, and smooth censuses.",
    )
    parser.add_argument("--seed", type=int, default=1, help="64-bit seed for sampled sections")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument(
        "--workers",
        type=int,
        default=max(1, os.cpu_count() or 1),
        help="worker count for Monte Carlo sections (results are worker-count independent)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("omega-star", help="omega*(n) for one n")
    s.add_argument("--n", type=int, required=True)

    s = sub.add_parser("moments", help="M_k at one or more x (comma separated)")
    s.add_argument("--x", type=str, required=True)
    s.add_argument("--k", type=int, default=1)

    s = sub.add_parser("champions", help="maximize omega* over multiples of k up to max-n")
    s.add_argument("--max-n", type=int, required=True)
    s.add_argument("--k", type=int, default=1)

    s = sub.add_parser("constants", help="optimized constants and identity residuals")
    s.add_argument("--theta", type=float, default=UNCONDITIONAL_THETA)

    s = sub.add_parser("sample-divisors", help="seeded random-divisor acceptance experiment")
    s.add_argument("--log-x", type=float, required=True)
    s.add_argument("--mode", choices=("grh", "unconditional"), default="grh")
    s.add_argument("--trials", type=int, default=10**5)

    s = sub.add_parser("pairs", help="A_d pair counts for divisors d <= sqrt(k), plus total A")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--k", type=int, required=True)

    s = sub.add_parser("smooth", help="Psi(x,y), pi(x,y), pi(x) and the density ratio")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--y", type=int, required=True)

    s = sub.add_parser("smooth-scan", help="smooth census at y = round(v log x) for each v")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--v-list", type=str, required=True)

    s = sub.add_parser("report", help="consolidated JSON document")
    s.add_argument("--x", type=int, default=10**6)
    s.add_argument("--log-x", type=float, default=1100.0)
    s.add_argument("--trials", type=int, default=10**5)
    s.add_argument("--mode", choices=("grh", "unconditional"), default="unconditional")
    s.add_argument("--smooth-y", type=int, default=100)

    return parser


def _parse_list(text: str, kind: type, flag: str) -> list[Any]:
    """Comma-separated numbers of one type, floats finite; ValueError names the flag."""
    try:
        values = [kind(part) for part in text.split(",") if part]
    except ValueError:
        values = None
    if values is None or (kind is float and not all(map(math.isfinite, values))):
        raise ValueError(f"{flag} must be a comma-separated list of finite {kind.__name__}s, got {text!r}")
    return values


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    params: dict[str, Any] = {}
    sc = args.subcommand
    if sc == "omega-star":
        params["n"] = args.n
    elif sc == "moments":
        params["x"] = _parse_list(args.x, int, "--x")
        params["k"] = args.k
    elif sc == "champions":
        params["max_n"] = args.max_n
        params["k"] = args.k
    elif sc == "constants":
        params["theta"] = args.theta
    elif sc == "sample-divisors":
        params["log_x"] = args.log_x
        params["mode"] = args.mode
        params["trials"] = args.trials
    elif sc == "pairs":
        params["x"] = args.x
        params["k"] = args.k
    elif sc == "smooth":
        params["x"] = args.x
        params["y"] = args.y
    elif sc == "smooth-scan":
        params["x"] = args.x
        params["v_list"] = _parse_list(args.v_list, float, "--v-list")
    elif sc == "report":
        params["x"] = args.x
        params["log_x"] = args.log_x
        params["trials"] = args.trials
        params["mode"] = args.mode
        params["smooth_y"] = args.smooth_y
    fmt = args.format or ("json" if sc in _JSON_DEFAULT else "csv")
    return RunConfig(
        subcommand=sc,
        params=params,
        seed=args.seed,
        output_format=fmt,
        output_path=args.out,
        workers=max(1, args.workers),
    )


def run(config: RunConfig) -> int:
    _emit(config, _HANDLERS[config.subcommand](config))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(_config_from_args(args))
    except ResourceLimitError as exc:
        print(f"omegastar: resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"omegastar: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
