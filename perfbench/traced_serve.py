"""Run ``repro-emts serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/traced_serve.py SPANS.json [serve options]``

The wrappers go in before the daemon starts serving; once SIGTERM has
drained the daemon, every span recorded by its threads is written to
``SPANS.json`` and the wrappers are removed.  ``src/`` of the checkout
must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    out, serve_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    recorder = spans.SpanRecorder()
    undo = spans.install(recorder)
    try:
        code = cli_main(["serve", *serve_args])
    finally:
        spans.uninstall(undo)
        recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
