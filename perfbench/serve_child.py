"""Run ``repro-vault`` in a child process with the server-side shims on.

Usage: ``python3 perfbench/serve_child.py TRACE_JSON <repro-vault args>``

Installs the timing shims of :mod:`tracing` and turns the program's own
observability on (the view-cache counter only counts while it is on),
then calls ``repro.cli.main`` exactly as the ``repro-vault`` entry point
does.  When the server stops (SIGINT), the spans and the view-cache
counter are written to ``TRACE_JSON``.
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import tracing
    from repro import cli, obs

    recorder = tracing.Recorder()
    tracing.install_common(recorder)
    obs.enable(service="repro-vault")
    try:
        return cli.main(argv)
    finally:
        hits, misses = tracing.view_cache_counts()
        recorder.dump(trace_path, {"view_cache": [hits, misses]})


if __name__ == "__main__":
    sys.exit(main())
