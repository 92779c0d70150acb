"""The four benchmark workloads: CLI arguments drawn from a seed, and an
independent oracle for each workload's output.

Every oracle recomputes what it checks by a method the program does not use
(a plain numpy sieve, an exact counting identity, direct enumeration), and
runs outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKERS = "2"
# README: exact acceptance of D' in GRH mode at log x = 1100.
GRH_ACCEPTANCE = 0.8936
SAMPLE_TRIALS = 10**6
SAMPLE_LOG_X = 1100.0
SAMPLE_R = 172
REPORT_X = 10**6
REPORT_R = 165
PI_1E6 = 78498


class Oracle:
    """Prime flags from a plain Eratosthenes sieve, grown on demand."""

    def __init__(self) -> None:
        self.flags = np.zeros(0, dtype=bool)

    def primes_upto(self, n: int) -> np.ndarray:
        if self.flags.size <= n:
            flags = np.ones(n + 1, dtype=bool)
            flags[:2] = False
            for p in range(2, math.isqrt(n) + 1):
                if flags[p]:
                    flags[p * p :: p] = False
            self.flags = flags
        return np.flatnonzero(self.flags[: n + 1])

    def pi(self, n: int) -> int:
        return int(self.primes_upto(n).size)

    def first_moment_sum(self, x: int) -> int:
        """S(x) = sum over n <= x of omega*(n) = sum over primes p <= x + 1 of
        floor(x / (p - 1)): each prime p counts the multiples of p - 1."""
        return int((x // (self.primes_upto(x + 1) - 1)).sum())

    def omega_star(self, n: int) -> int:
        """Pointwise omega*(n) by trial division for the divisors."""
        self.primes_upto(n + 1)
        count = 0
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                count += bool(self.flags[d + 1])
                if d * d != n:
                    count += bool(self.flags[n // d + 1])
        return count

    def smooth_numbers(self, x: int, y: int) -> np.ndarray:
        """All y-smooth n <= x, built as products of primes <= y."""
        found = np.ones(1, dtype=np.int64)
        for p in self.primes_upto(min(x, y)).tolist():
            parts = [found]
            power = found
            while True:
                power = power[power <= x // p] * p
                if power.size == 0:
                    break
                parts.append(power)
            found = np.concatenate(parts)
        return found


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected CSV header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _draw_x(seed: int) -> int:
    # A narrow range: the seed varies the input without moving the run's cost
    # by more than its own noise.
    return random.Random(seed).randint(99 * 10**5, 10**7)


def _moment_problems(oracle: Oracle, points: list[tuple[int, float]]) -> list[str]:
    return [
        f"M1({x}) = {m1!r}, exact S/x = {oracle.first_moment_sum(x) / x!r}"
        for x, m1 in points
        if m1 != oracle.first_moment_sum(x) / x
    ]


# -- moments ---------------------------------------------------------------


def _moments_xs(seed: int) -> list[int]:
    c = _draw_x(seed)
    return [c // 100, c // 10, c]


def _moments_argv(seed: int) -> list[str]:
    return ["moments", "--x", ",".join(map(str, _moments_xs(seed))), "--k", "1"]


def _moments_check(seed: int, out: str, oracle: Oracle) -> list[str]:
    rows = _csv_rows(out, "x,k,Mk,log_x,loglog_x")
    xs = _moments_xs(seed)
    if [int(r[0]) for r in rows] != xs or any(r[1] != "1" for r in rows):
        return [f"rows {rows} do not cover x = {xs} at k = 1"]
    return _moment_problems(oracle, [(int(r[0]), float(r[2])) for r in rows])


# -- sample ----------------------------------------------------------------


def _sample_argv(seed: int) -> list[str]:
    return [
        "--seed", str(seed), "--workers", WORKERS, "sample-divisors",
        "--log-x", repr(SAMPLE_LOG_X), "--mode", "grh", "--trials", str(SAMPLE_TRIALS),
    ]  # fmt: skip


def _sample_check(seed: int, out: str, oracle: Oracle) -> list[str]:
    doc = json.loads(out)
    problems = []
    if (doc["seed"], doc["params"]["R"], doc["acceptance_rates"]["trials"]) != (
        seed,
        SAMPLE_R,
        SAMPLE_TRIALS,
    ):
        problems.append("seed, R or trials differ from the request")
    acceptance = doc["acceptance_rates"]["acceptance"]
    stderr = math.sqrt(GRH_ACCEPTANCE * (1 - GRH_ACCEPTANCE) / SAMPLE_TRIALS)
    if abs(acceptance - GRH_ACCEPTANCE) > 5 * stderr:
        problems.append(f"acceptance {acceptance} is over 5 standard errors from {GRH_ACCEPTANCE}")
    return problems


# -- census ----------------------------------------------------------------

_V_LIST = (1, 2, 4)


def _census_ys(x: int) -> list[int]:
    return [max(1, round(v * math.log(x))) for v in _V_LIST]


def _census_argv(seed: int) -> list[str]:
    return ["smooth-scan", "--x", str(_draw_x(seed)), "--v-list", ",".join(map(str, _V_LIST))]


def _census_check(seed: int, out: str, oracle: Oracle) -> list[str]:
    from omegastar.sieve import is_prime

    x = _draw_x(seed)
    rows = _csv_rows(out, "x,y,psi,pi_smooth,pi,lhs,rhs,quotient")
    if [(int(r[0]), int(r[1])) for r in rows] != [(x, y) for y in _census_ys(x)]:
        return [f"rows {rows} do not cover x = {x} at y = {_census_ys(x)}"]
    pi_x = oracle.pi(x)
    problems = []
    for row in rows:
        y = int(row[1])
        smooth = oracle.smooth_numbers(x, y)
        psi = int(smooth.size)
        pi_smooth = sum(1 for n in smooth[smooth < x].tolist() if is_prime(n + 1))
        lhs = pi_smooth / pi_x
        rhs = psi / x
        want = [str(psi), str(pi_smooth), str(pi_x), repr(lhs), repr(rhs), repr(lhs / rhs)]
        if row[2:] != want:
            problems.append(f"y = {y}: got {row[2:]}, recount gives {want}")
    return problems


# -- report ----------------------------------------------------------------


def _report_argv(seed: int) -> list[str]:
    return ["--seed", str(seed), "--workers", WORKERS, "report"]


def _report_check(seed: int, out: str, oracle: Oracle) -> list[str]:
    doc = json.loads(out)
    problems = []
    champion = doc["champion"]
    if champion["omega_star"] != oracle.omega_star(champion["n"]):
        problems.append(f"champion omega*({champion['n']}) = {champion['omega_star']} is wrong")
    points = [(p["x"], p["M1"]) for p in doc["moments"]["points"]]
    if [x for x, _ in points] != [REPORT_X // 100, REPORT_X // 10, REPORT_X]:
        problems.append(f"moment points {points} do not cover the default x")
    problems += _moment_problems(oracle, points)
    if not doc["smooth"]["pi"] == oracle.pi(REPORT_X) == PI_1E6:
        problems.append(f"smooth.pi = {doc['smooth']['pi']}, expected {PI_1E6}")
    residuals = doc["constants"]["grh"]["residuals"]
    if not all(r < 1e-12 for r in residuals.values()):
        problems.append(f"constant residuals {residuals} are not below 1e-12")
    acceptance = doc["sampling"]["acceptance_rates"]["acceptance"]
    if doc["sampling"]["params"]["mode"] != "UNCONDITIONAL" or acceptance < 0.999:
        problems.append(f"unconditional acceptance {acceptance} is below 0.999")
    if (doc["seed"], doc["sampling"]["params"]["R"]) != (seed, REPORT_R):
        problems.append("seed or R differ from the request")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    check: Callable[[int, str, Oracle], list[str]]
    sizes: Callable[[int], dict]


def reference_argv(workload: Workload, seed: int) -> list[str] | None:
    """The same command with one worker, for a workload that pins --workers:
    its output must not depend on the worker count."""
    argv = workload.argv(seed)
    if "--workers" not in argv:
        return None
    i = argv.index("--workers")
    return argv[: i + 1] + ["1"] + argv[i + 2 :]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "moments",
            _moments_argv,
            _moments_check,
            lambda s: {"x": _moments_xs(s), "k": 1},
        ),
        Workload(
            "sample",
            _sample_argv,
            _sample_check,
            lambda s: {"log_x": SAMPLE_LOG_X, "R": SAMPLE_R, "trials": SAMPLE_TRIALS, "workers": 2},
        ),
        Workload(
            "census",
            _census_argv,
            _census_check,
            lambda s: {"x": _draw_x(s), "y": _census_ys(_draw_x(s))},
        ),
        Workload(
            "report",
            _report_argv,
            _report_check,
            lambda s: {
                "x": REPORT_X,
                "log_x": SAMPLE_LOG_X,
                "R": REPORT_R,
                "trials": 10**5,
                "y": 100,
                "workers": 2,
            },
        ),
    )
}
