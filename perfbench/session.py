"""The serving session: a durable primary, writes, reads, kill, recovery.

The primary is ``repro serve`` in its own process (through
:mod:`launcher` in the traced run, which adds the span wrappers and
nothing else).  This process drives it with at most two threads, each
on its own keep-alive connection:

* a closed-loop writer that POSTs the stream's delta batches, one at a
  time, no faster than ``Session.write_interval`` apart;
* an open-loop reader that GETs single links at ``Session.read_rate``
  per second, each timed from when it was due, so a stall also delays
  every read queued behind it.

Every refused, failed or timed-out request is counted and carries an
infinite latency, so it misses every percentile.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

import tracing
import workloads
from common import BenchError, hwm_mb

HERE = Path(__file__).resolve().parent
REQUEST_TIMEOUT = 30.0
BOOT_TIMEOUT = 120.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Server:
    """One ``repro serve`` process and the files it owns."""

    def __init__(self, argv, env, workdir: Path, trace_out=None, cpus=None):
        self.workdir = workdir
        self.trace_out = trace_out
        self.log = open(workdir / "server.stderr", "wb")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True,
            preexec_fn=None if cpus is None else (
                lambda: os.sched_setaffinity(0, cpus)
            ),
        )
        try:
            self.port = self._wait_listening()
        except BaseException:
            self.kill()
            raise
        self.boot_s = time.perf_counter() - began

    def _wait_listening(self) -> int:
        found = {}

        def scan():
            for line in self.proc.stdout:
                if "listening on http://" in line:
                    found["port"] = int(line.strip().rsplit(":", 1)[1])
                    return

        reader = threading.Thread(target=scan, daemon=True)
        reader.start()
        reader.join(BOOT_TIMEOUT)
        if "port" not in found:
            raise BenchError(
                f"server did not start (exit {self.proc.poll()}); see "
                f"{self.workdir / 'server.stderr'}"
            )
        return found["port"]

    def status_mb(self) -> float:
        return hwm_mb(self.proc.pid)

    def dump_trace(self) -> None:
        """Ask the traced server to write its spans, and wait for them."""
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 60
        while not Path(self.trace_out).exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError("server did not write its trace")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL and reap (a crash: nothing is flushed)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def server_argv(session, checkpoint, trace_out):
    common = [
        "serve", "--demo",
        "--n", str(session.base_n), "--m", str(session.base_m),
        "--seed", str(session.base_seed),
        "--checkpoint", str(checkpoint),
        "--checkpoint-every", str(session.checkpoint_every),
        "--threshold", str(workloads.SERVE_THRESHOLD),
        "--iterations", str(workloads.SERVE_ITERATIONS),
        "--port", "0",
    ]
    if trace_out is None:
        return [sys.executable, "-m", "repro"] + common
    return [sys.executable, str(HERE / "launcher.py"), str(trace_out)] + common


class Connection:
    """A keep-alive connection that checks versions never go back."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = None
        self.last_version = -1
        self.version_violations = 0

    def request(self, method, path, body=None, rid=None):
        """``(status, body, version)``; raises on transport failure."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
        headers = {"X-Request-Id": rid} if rid else {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        version = response.getheader("X-Repro-Version")
        version = int(version) if version is not None else None
        if version is not None:
            if version < self.last_version:
                self.version_violations += 1
            self.last_version = max(self.last_version, version)
        return response.status, data, version

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


@dataclass
class Traffic:
    write_ms: list = field(default_factory=list)
    write_rids: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    send_lag_ms: list = field(default_factory=list)
    write_failed: int = 0
    read_failed: int = 0
    wrong_reads: int = 0
    wrong_writes: int = 0
    #: Responses whose X-Repro-Version went backwards, per connection.
    write_version_violations: int = 0
    read_version_violations: int = 0


def drive(port: int, session, bodies, read_targets) -> Traffic:
    """Run the writer and the reader; returns what the client saw."""
    traffic = Traffic()
    writes_done = threading.Event()
    errors: list = []

    def writer() -> None:
        conn = Connection(port)
        try:
            last_start = None
            for i, body in enumerate(bodies):
                if last_start is not None and session.write_interval:
                    wait = last_start + session.write_interval
                    delay = wait - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                rid = f"w{i + 1}"
                last_start = time.perf_counter()
                try:
                    status, data, _version = conn.request(
                        "POST", "/delta", body, rid
                    )
                except (OSError, http.client.HTTPException):
                    status, data = None, b""
                elapsed = (time.perf_counter() - last_start) * 1e3
                traffic.write_rids.append(rid)
                if status != 200:
                    traffic.write_failed += 1
                    traffic.write_ms.append(math.inf)
                    continue
                traffic.write_ms.append(elapsed)
                if json.loads(data).get("batch") != i + 1:
                    traffic.wrong_writes += 1
            traffic.write_version_violations = conn.version_violations
        except Exception as exc:  # re-raised by drive()
            errors.append(exc)
        finally:
            conn.close()
            writes_done.set()

    def reader() -> None:
        conn = Connection(port)
        try:
            period = 1.0 / session.read_rate
            start = time.perf_counter()
            i = 0
            while not writes_done.is_set():
                path, expected = read_targets[i % len(read_targets)]
                due = start + i * period
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                traffic.send_lag_ms.append((sent - due) * 1e3)
                try:
                    status, data, _version = conn.request(
                        "GET", path, rid=f"r{i + 1}"
                    )
                except (OSError, http.client.HTTPException):
                    status, data = None, b""
                done = time.perf_counter()
                i += 1
                if status != 200:
                    traffic.read_failed += 1
                    traffic.read_ms.append(math.inf)
                    continue
                traffic.read_ms.append((done - due) * 1e3)
                if json.loads(data).get("link") != expected:
                    traffic.wrong_reads += 1
            traffic.read_version_violations = conn.version_violations
        except Exception as exc:  # re-raised by drive()
            errors.append(exc)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=writer, name="writer"),
        threading.Thread(target=reader, name="reader"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return traffic


def read_targets(seeds: dict, seed: int, count: int = 512):
    """``(path, expected link)`` for single-link reads.

    Seed links never change while the stream is applied, so every
    answer is known in advance.
    """
    from repro.serving.service import format_node_path

    nodes = sorted(seeds, key=repr)
    rng = random.Random(seed)
    picks = [nodes[rng.randrange(len(nodes))] for _ in range(count)]
    return [
        ("/links/" + quote(format_node_path(node), safe=""), seeds[node])
        for node in picks
    ]


def encode_bodies(deltas) -> "list[bytes]":
    from repro.incremental.delta import delta_to_payload

    return [
        json.dumps(delta_to_payload(d), separators=(",", ":")).encode()
        for d in deltas
    ]


def fetch_links(port: int) -> "tuple[bytes, int]":
    conn = Connection(port)
    try:
        status, data, version = conn.request("GET", "/links", rid="snapshot")
    finally:
        conn.close()
    if status != 200:
        raise BenchError(f"GET /links answered {status}")
    return data, version


def copy_state(src: Path, dst: Path) -> Path:
    """Fresh copy of a killed primary's checkpoint + log directory."""
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(src, dst)
    return dst


def recover(state_dir: Path, work: Path, reps: int, checkpoint_every: int):
    """Time ``ReconciliationService.resume`` from pristine copies.

    Returns ``(durations, bodies)`` — each resumed primary's
    ``/links`` body, rendered by the same code that serves it.
    """
    from repro.serving.service import ReconciliationService

    durations, bodies = [], []
    for rep in range(reps):
        run_dir = copy_state(state_dir, work / f"recover{rep}")
        gc.collect()
        with tracing.phase(f"recover/{rep}"):
            began = time.perf_counter()
            service = ReconciliationService.resume(
                run_dir / "serve.npz", checkpoint_every=checkpoint_every,
                fsync=True,
            )
            durations.append(time.perf_counter() - began)
        bodies.append(service.links_snapshot_body())
        del service
    return durations, bodies


def catch_up(state_dir: Path, work: Path, reps: int):
    """Time a replica bootstrap plus ``step()`` until lag is 0."""
    from repro.serving.replica import ReplicaService

    durations, bodies = [], []
    for rep in range(reps):
        run_dir = copy_state(state_dir, work / f"replica{rep}")
        gc.collect()
        with tracing.phase(f"replica/{rep}"):
            began = time.perf_counter()
            replica = ReplicaService.follow(run_dir / "serve.npz.jsonl")
            while replica.step():
                pass
            durations.append(time.perf_counter() - began)
        if replica.lag_batches != 0:
            raise BenchError(f"replica lag {replica.lag_batches} after drain")
        bodies.append(replica.links_snapshot_body())
        del replica
    return durations, bodies
