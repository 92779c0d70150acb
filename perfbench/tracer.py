"""Outside-in span tracer for the omegastar package.

`Tracer.install()` wraps every public function of each traced module (and
the private Monte Carlo chunk kernel) and rebinds the wrapper in every
omegastar module that holds the original by name, so calls made through
`from .omega import omega_star_table` are seen too.  Spans stay in memory
until `export()`.  Nothing under `src/` is changed on disk.

A span records name, start, end, parent, thread and invocation id.  A span
opened on a worker thread with no open span of its own takes the innermost
open span of the main thread as parent; that must be `sample_stats`, the only
code that starts threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import resource
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

PACKAGE = "omegastar"
MODULES = ("sieve", "arith", "omega", "constants", "construction", "smooth", "rng", "cli")
# Names the per-layer metrics are derived from; a missing one is an error,
# not a metric that silently reads zero.
REQUIRED = {
    "sieve": ("sieve_primes", "factorize"),
    "arith": ("tau",),
    "omega": ("omega_star_table", "moment_sum"),
    "constants": ("maximize_f_theta",),
    "construction": ("build_params", "sample_stats", "_chunk_stats", "champion_search"),
    "smooth": ("smooth_census",),
    "rng": ("substream_seeds", "unit_block"),
    "cli": ("main",),
}
THREAD_PARENT = "construction.sample_stats"


class TracerError(RuntimeError):
    """The tracer could not see what it is meant to measure."""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    invocation: int
    start: float = 0.0
    end: float = 0.0
    rss_rise_kb: int = 0
    # Sizes read from arguments and results, e.g. {"x": 9500000}.
    sizes: dict = field(default_factory=dict)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _table_sizes(args: dict, result) -> dict:
    return {"x": args["x"], "table_bytes": result.counts.dtype.itemsize * result.counts.size}


# Sizes recorded per call, from the bound arguments and the result.
SIZES = {
    "omega.omega_star_table": _table_sizes,
    "sieve.sieve_primes": lambda a, r: {"n": a["limit"] + 1},
    "rng.unit_block": lambda a, r: {"draws": a["seeds"].size * a["n"]},
    "construction.sample_stats": lambda a, r: {
        "trials": a["trials"],
        "workers": a.get("workers", 1),
    },
    "smooth.smooth_census": lambda a, r: {"n": a["x"]},
}


class Tracer:
    def __init__(self, invocation: int = 0) -> None:
        self.invocation = invocation
        self.spans: list[Span] = []
        self.errors: list[str] = []
        self.rebound: dict[str, list[str]] = {}
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def install(self) -> None:
        targets = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            missing = [n for n in REQUIRED[short] if not inspect.isfunction(getattr(module, n, None))]
            if missing:
                raise TracerError(f"{PACKAGE}.{short} has no function {', '.join(missing)}")
            for name, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in REQUIRED[short]:
                    continue
                if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
                    raise TracerError(f"{short}.{name} returns before its work is done")
                targets[fn] = self._wrap(f"{short}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self.rebound.setdefault(wrapper.span_name, []).append(f"{modname}.{attr}")

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif threading.current_thread() is self._main:
            parent = None
        else:
            outer = self._main_stack[-1] if self._main_stack else None
            if outer is None or outer.name != THREAD_PARENT:
                self.errors.append(f"{name} ran on a worker thread outside {THREAD_PARENT}")
            parent = outer.id if outer else None
        span = Span(next(self._ids), name, parent, threading.get_ident(), self.invocation)
        self.spans.append(span)
        stack.append(span)
        return span

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            rss0 = _maxrss_kb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_rise_kb = _maxrss_kb() - rss0
                self._stack().pop()
            if sizes is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.sizes = sizes(bound.arguments, result)
            return result

        traced.span_name = name
        return traced

    def export(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "errors": self.errors,
            "rebound": self.rebound,
        }


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus the time covered by its
    child spans.

    Where spans run at once on several threads, each instant is shared
    equally among the innermost spans open at it (those with no open child),
    so the self times of one invocation add up to the time its root spans
    cover.
    """
    by_id = {s["id"]: s for s in spans}
    # At equal times closes sort before opens, parents open first and close last.
    events = sorted(
        [(s["start"], 1, s["id"]) for s in spans] + [(s["end"], 0, -s["id"]) for s in spans]
    )
    open_children = dict.fromkeys(by_id, 0)
    is_open: set[int] = set()
    innermost: set[int] = set()
    self_t = dict.fromkeys(by_id, 0.0)
    prev = None
    for t, opening, key in events:
        sid = abs(key)
        if prev is not None and innermost:
            share = (t - prev) / len(innermost)
            for i in innermost:
                self_t[i] += share
        prev = t
        parent = by_id[sid]["parent"]
        if parent is not None and parent not in is_open:
            raise TracerError(f"span {by_id[sid]['name']} is open outside its parent")
        if opening:
            is_open.add(sid)
            innermost.add(sid)
            if parent is not None:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            is_open.discard(sid)
            innermost.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)
    return self_t
