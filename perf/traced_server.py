"""``repro server`` under the benchmark's wrappers.

``python perf/traced_server.py SPANS.json <repro server arguments>`` installs
the same wrappers the driver uses, runs the product's own
``repro.cli.main(["server", ...])``, and writes its spans to ``SPANS.json``
once SIGTERM has shut the server down.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: drop perf/ from the path (perf/trace.py would shadow
    # the stdlib's trace module) and import through the package instead.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perf import trace  # noqa: E402


def main(argv) -> int:
    if not argv:
        print("usage: traced_server.py SPANS.json [server arguments]",
              file=sys.stderr)
        return 2
    spans_path, arguments = argv[0], list(argv[1:])
    from repro import cli

    recorder = trace.Recorder()
    trace.install(recorder)
    try:
        return cli.main(["server"] + arguments)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
