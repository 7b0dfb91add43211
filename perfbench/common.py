"""Paths, environment and small helpers shared by the benchmark."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (ignored by git).
BUILD = ROOT / ".bench_build"


class BenchError(RuntimeError):
    """The benchmark could not run (environment or program failure)."""


def prepare_environment() -> dict:
    """Make ``repro`` importable and keep native builds in the checkout.

    Returns the environment for the server processes.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    native_dir = BUILD / "native"
    native_dir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_DIR"] = str(native_dir)
    # The compiler's and tempfile's temporary files stay in the checkout.
    tmp_dir = BUILD / "tmp"
    tmp_dir.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp_dir)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def split_cpus() -> "tuple[set, set] | None":
    """Disjoint CPU sets for the benchmark and the server, if >= 2 CPUs.

    Pinning each process to its own CPU keeps the scheduler from
    migrating the server's event loop and the client threads between
    CPUs, which moves sub-millisecond latencies from run to run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, {cpus[1]}


def hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")
