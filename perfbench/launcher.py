"""Run ``repro`` with the benchmark's span wrappers installed.

Usage: ``python launcher.py TRACE_OUT <repro arguments...>``

The traced run starts the server through this file instead of
``python -m repro``; the process layout is the same.  SIGUSR1 writes
the spans recorded so far to ``TRACE_OUT`` (the benchmark sends it
before it kills the server).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    trace_out = sys.argv[1]
    recorder = tracing.Recorder()
    layers.install(recorder)
    signal.signal(
        signal.SIGUSR1, lambda *_: recorder.dump(trace_out)
    )
    from repro.cli import main as repro_main

    return repro_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
