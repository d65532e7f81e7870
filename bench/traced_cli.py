"""Run one `rank2verma` CLI job with per-layer tracing.

    python bench/traced_cli.py <rank2verma arguments...>

Installs the span wrappers in a fresh process, so the job's caches start as
cold as under the plain CLI, then calls `cli.main(argv)`.  The report goes
to stdout unchanged; the trace summary is the last line of stderr, after
TRACE_PREFIX.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer, install

TRACE_PREFIX = "bench-trace "


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["rank2verma.cli"]
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.summary()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
