"""Command-line entry point; every number printed comes from a module call.

Exit codes: 0 success, 2 usage or domain error, 3 resource ceiling exceeded.
Runs with identical configuration produce byte-identical output, Monte Carlo
sections included.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace
from typing import Any, NamedTuple

# No kernel calls BLAS, yet numpy's import starts an OpenBLAS worker that
# busy-waits on a second core; one thread is asked for before numpy loads.
# A value set in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .arith import tau
from .constants import (
    GOLDEN_RATIO,
    GRH_C,
    GRH_U,
    UNCONDITIONAL_THETA,
    apr_conjecture_bound,
    grh_residuals,
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


def _cmd_omega_star(args: SimpleNamespace) -> Output:
    row = {"n": args.n, "omega_star": omega_star(args.n)}
    return {"schema": SCHEMA, **row}, [row]


def _cmd_moments(args: SimpleNamespace) -> Output:
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


def _cmd_champions(args: SimpleNamespace) -> Output:
    record = champion_search(args.max_n, args.k)
    row = {"n": record.n, "omega_star": record.omega_star_n, "score": record.score}
    # JSON has no NaN: the score, undefined below n = 3, is null there.
    score = None if math.isnan(record.score) else record.score
    return {"schema": SCHEMA, **row, "score": score}, [row]


def _constants_document(theta: float) -> dict[str, Any]:
    opt = maximize_f_theta(theta)
    return {
        "theta": theta,
        "u_star": opt.u_star,
        "f_max": opt.f_max,
        "f_over_log2": opt.f_over_log2,
        "apr_bound_at_theta": apr_conjecture_bound(theta),
        "apr_bound_limit": math.log(2.0),
        "grh": {
            "u": GRH_U,
            "golden": GOLDEN_RATIO,
            "C": GRH_C,
            "log_golden": math.log(GOLDEN_RATIO),
            "inverse_golden_squared": 1.0 / GOLDEN_RATIO**2,
            "residuals": grh_residuals(),
        },
    }


def _cmd_constants(args: SimpleNamespace) -> Output:
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


def _cmd_sample_divisors(args: SimpleNamespace) -> Output:
    doc = _sampling_document(args.log_x, args.mode, args.trials, args.seed, args.workers)
    return {"schema": SCHEMA, **doc}, None


def _cmd_pairs(args: SimpleNamespace) -> Output:
    x, k = args.x, args.k
    report = pair_count_report(x, factorize(k))
    doc = {
        "schema": SCHEMA,
        "x": x,
        "k": k,
        "per_d": [{"d": d, "A_d": a_d} for d, a_d in report.per_d],
        "total_A": report.total_A,
    }
    rows = [{"x": x, "k": k, "d": d, "A_d": a_d, "total_A": report.total_A} for d, a_d in report.per_d]
    return doc, rows


def _smooth_rows(x: int, ys: list[int]) -> list[dict[str, Any]]:
    rows = []
    for census in smooth_census(x, ys):
        counts = {"x": x, "y": census.y, "psi": census.psi, "pi_smooth": census.pi_smooth, "pi": census.pi_x}
        rows.append({**counts, **pomerance_ratio(census)._asdict()})
    return rows


def _smooth_x(args: SimpleNamespace) -> int:
    if args.x < 2:
        raise ValueError(f"{args.subcommand} --x must be at least 2; got {args.x}")
    return args.x


def _cmd_smooth(args: SimpleNamespace) -> Output:
    rows = _smooth_rows(_smooth_x(args), [args.y])
    return {"schema": SCHEMA, **rows[0]}, rows


def _cmd_smooth_scan(args: SimpleNamespace) -> Output:
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


def _cmd_report(args: SimpleNamespace) -> Output:
    x, log_x, trials = args.x, args.log_x, args.trials
    if x < 10:
        raise ValueError(f"report --x must be at least 10, its smallest moment checkpoint; got {x}")
    if args.smooth_y < 1:
        raise ValueError(f"report --smooth-y must be at least 1; got {args.smooth_y}")
    # the table's ceilings (its sieve runs to x + 1) cover the census's; refuse before the Monte Carlo
    check_ceiling(x, "omega* table size")
    check_ceiling(x + 1, "sieve limit")
    sampling_doc = _sampling_document(log_x, args.mode, trials, args.seed, args.workers)
    # The census runs before the omega* table is built, so its x/16-byte
    # odd-slot bits and sieve window never sit on top of the table.
    smooth_row = _smooth_rows(x, [args.smooth_y])[0]

    table = omega_star_table(x)
    xs = [n for n in (x // 100, x // 10, x) if n >= 10]
    points = moment_scan(sorted(set(xs)), 1, table=table)
    champion = champion_search(x, 1, table=table)

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


REQUIRED = ...  # the default of an option that must be given


class Option(NamedTuple):
    """One `--name value` option: `convert` is int, float, str or a tuple of
    the accepted values; `default` is REQUIRED where the option must be given."""

    convert: Any
    default: Any = REQUIRED
    help: str = ""


class Command(NamedTuple):
    handler: Any
    formats: tuple[str, ...]  # those the subcommand can write, default first; any other exits 2
    help: str
    options: dict[str, Option]


# The whole command line: global flags go before the subcommand, each
# subcommand's options after it.  The plain reader, the argparse tree and
# --help read only this.
GLOBAL_OPTIONS = {
    "--seed": Option(int, 1, "seed in [0, 2^64) for sampled sections"),
    "--format": Option(("csv", "json"), None, "output format"),
    "--out": Option(str, None, "output path (default: stdout)"),
    "--workers": Option(
        int,
        max(1, os.cpu_count() or 1),
        "worker count for Monte Carlo sections (results are worker-count independent)",
    ),
}
COMMANDS = {
    "omega-star": Command(_cmd_omega_star, ("csv", "json"), "omega*(n) for one n", {"--n": Option(int)}),
    "moments": Command(
        _cmd_moments,
        ("csv", "json"),
        "M_k at one or more x (comma separated)",
        {"--x": Option(str), "--k": Option(int, 1)},
    ),
    "champions": Command(
        _cmd_champions,
        ("csv", "json"),
        "maximize omega* over multiples of k up to max-n",
        {"--max-n": Option(int), "--k": Option(int, 1)},
    ),
    "constants": Command(
        _cmd_constants,
        ("json", "csv"),
        "optimized constants and identity residuals",
        {"--theta": Option(float, UNCONDITIONAL_THETA)},
    ),
    "sample-divisors": Command(
        _cmd_sample_divisors,
        ("json",),
        "seeded random-divisor acceptance experiment",
        {"--log-x": Option(float), "--mode": Option(("grh", "unconditional"), "grh"), "--trials": Option(int, 10**5)},
    ),
    "pairs": Command(
        _cmd_pairs,
        ("json", "csv"),
        "A_d pair counts for divisors d <= sqrt(k), plus total A",
        {"--x": Option(int), "--k": Option(int)},
    ),
    "smooth": Command(
        _cmd_smooth,
        ("csv", "json"),
        "Psi(x,y), pi(x,y), pi(x) and the density ratio",
        {"--x": Option(int), "--y": Option(int)},
    ),
    "smooth-scan": Command(
        _cmd_smooth_scan,
        ("csv",),
        "smooth census at y = round(v log x) for each v",
        {"--x": Option(int), "--v-list": Option(str)},
    ),
    "report": Command(
        _cmd_report,
        ("json",),
        "consolidated JSON document",
        {
            "--x": Option(int, 10**6),
            "--log-x": Option(float, 1100.0),
            "--trials": Option(int, 10**5),
            "--mode": Option(("grh", "unconditional"), "unconditional"),
            "--smooth-y": Option(int, 100),
        },
    ),
}


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _read_plain(options: dict[str, Option], args: list[str]) -> dict[str, Any] | None:
    """`args` read as `--name value` pairs of `options`, each name exact and
    each value converted and not starting with "-", defaults filled in; None
    for anything else, or where a required option is missing."""
    if len(args) % 2:
        return None
    values = {_dest(name): option.default for name, option in options.items()}
    for name, value in zip(args[::2], args[1::2]):
        option = options.get(name)
        if option is None or value.startswith("-"):
            return None
        if isinstance(option.convert, tuple):
            if value not in option.convert:
                return None
        else:
            try:
                value = option.convert(value)
            except ValueError:
                return None
        values[_dest(name)] = value
    return None if REQUIRED in values.values() else values


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """A plain command line read without argparse: global options, the
    subcommand and its options, each level read by `_read_plain`.  None for
    any other line, which argparse must read."""
    i = 0
    while i < len(argv) and argv[i] in GLOBAL_OPTIONS:
        i += 2
    if i >= len(argv) or argv[i] not in COMMANDS:
        return None
    command = COMMANDS[argv[i]]
    top, sub = _read_plain(GLOBAL_OPTIONS, argv[:i]), _read_plain(command.options, argv[i + 1 :])
    if top is None or sub is None:
        return None
    return SimpleNamespace(**top, **sub, subcommand=argv[i], handler=command.handler, formats=command.formats)


def _add_options(parser, options: dict[str, Option]) -> None:
    """Give an argparse parser the options of one level of the table."""
    import argparse

    class Store(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            # argparse before 3.13 stores [] for --opt=--; the value "--" is
            # read through the option's type and choices, as 3.13 reads it
            if values == []:
                values = parser._get_value(self, "--")
                parser._check_value(self, values)
            setattr(namespace, self.dest, values)

    for name, option in options.items():
        choices = option.convert if isinstance(option.convert, tuple) else None
        default = None if option.default is REQUIRED else option.default
        parser.add_argument(
            name,
            action=Store,
            type=None if choices else option.convert,
            choices=choices,
            required=option.default is REQUIRED,
            default=default,
            help=option.help if default is None else f"{option.help} (default: %(default)s)",
        )


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The parsed command line, or SystemExit: 0 after --help, 2 after a
    `usage:` line and the error on stderr.  Only a line outside the plain
    form builds and runs argparse."""
    args = _parse_plain(argv)
    if args is not None:
        return args
    import argparse

    about = "Shifted-prime divisor counts, moments, divisor-set sampling, and smooth censuses."
    parser = argparse.ArgumentParser(prog="omegastar", description=about)
    _add_options(parser, GLOBAL_OPTIONS)
    levels = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        level = levels.add_parser(name, help=command.help, description=command.help)
        level.set_defaults(handler=command.handler, formats=command.formats)
        _add_options(level, command.options)
    return parser.parse_args(argv)


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
    args = _parse_args(sys.argv[1:] if argv is None else argv)
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
    except (ResourceLimitError, MemoryError) as exc:
        # numpy's MemoryError names the allocation that failed; a bare one is empty
        print(f"omegastar: resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"omegastar: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
