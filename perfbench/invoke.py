"""Run one `omegastar` CLI invocation in this fresh process, as a user would,
and record how it went.

    python3 perfbench/invoke.py ROOT RECORD TRACE INVOCATION -- CLI_ARGS...

The CLI writes to stdout as usual.  Timings, rusage and, with TRACE = 1, the
spans go as JSON to the file RECORD.  `imported_at` is CLOCK_MONOTONIC, which
the parent compares with its own reading taken just before the spawn.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    root, record_path, trace, invocation, dashes, *cli_args = sys.argv[1:]
    if dashes != "--":
        raise SystemExit("usage: invoke.py ROOT RECORD TRACE INVOCATION -- CLI_ARGS...")
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import omegastar.cli

    imported_at = time.monotonic()
    if not os.path.realpath(omegastar.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"omegastar was imported from {omegastar.cli.__file__}, not {src}")

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(int(invocation))
        tracer.install()

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        rc = omegastar.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    record = {
        "imported_at": imported_at,
        "rc": rc,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,
    }
    if tracer is not None:
        record["trace"] = tracer.export()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
