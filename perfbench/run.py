"""The repository benchmark: one workload, checked, one JSON result line.

Usage::

    python3 perfbench/run.py --workload {pa,affiliation} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from
``src/`` and everything the run writes goes under ``.bench_build/``.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics (from spans recorded by wrappers
around the program's layer boundaries, see :mod:`layers`).  The last
line of standard output is the result object; the exit code is 0 only
when a result was printed.

``--scale tiny`` shrinks every input for the self-test, and
``--report PATH`` also writes both metric sets and every check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import session as serving  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from common import (  # noqa: E402
    BUILD,
    ROOT,
    BenchError,
    hwm_mb,
    prepare_environment,
    split_cpus,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Timed reconciliations per run, in two blocks (before the serving
#: session and after recovery), each at least MIN and then until its
#: half of the window closes or MAX is reached.  The processor's speed
#: on a shared host drifts over tens of seconds; two blocks about 40 s
#: apart sample two of its states instead of one.
MIN_RECONCILES = 2
MAX_RECONCILES = 100
#: Resumes and replica catch-ups per run, each from a fresh copy of the
#: killed primary's files.
RECOVERY_REPS = 3
#: ``PYTHONHASHSEED`` of the benchmark and server processes.
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--report", default=None, metavar="PATH")
    return parser.parse_args(argv)


def guard_native():
    """Load (compiling once per checkout) the native kernels, or fail.

    A fallback to the csr kernels would report csr numbers as native,
    so every ``NativeFallbackWarning`` of the run is an error.
    """
    from repro.core import native

    warnings.simplefilter("error", native.NativeFallbackWarning)
    try:
        kernels = native.load_native_library()
    except native.NativeFallbackWarning as exc:
        raise BenchError(f"native kernels unavailable: {exc}") from None
    if kernels is None:
        raise BenchError("native kernels unavailable")


def reconcile_reps(batch, seconds: float):
    """Repeated native ``UserMatching.run``; ``(times, result, same)``."""
    from repro.core import matcher
    from repro.core.config import MatcherConfig

    config = MatcherConfig(
        threshold=workloads.BATCH_THRESHOLD,
        iterations=workloads.BATCH_ITERATIONS,
        backend="native",
    )
    pair = batch.pair
    times, first, same = [], None, True
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_RECONCILES or (
        time.perf_counter() < deadline and len(times) < MAX_RECONCILES
    ):
        gc.collect()
        began = time.perf_counter()
        result = matcher.UserMatching(config).run(pair.g1, pair.g2, batch.seeds)
        times.append(time.perf_counter() - began)
        if first is None:
            first = result
        elif result.links != first.links:
            same = False
        del result
    return times, first, same


def cold_csr_links(pair, seeds, threshold, iterations) -> dict:
    """The independent reference: the csr backend on the same inputs."""
    from repro.core.config import MatcherConfig
    from repro.core.matcher import UserMatching

    config = MatcherConfig(
        threshold=threshold, iterations=iterations, backend="csr"
    )
    return UserMatching(config).run(pair.g1, pair.g2, seeds).links


def links_of(body: bytes) -> dict:
    return {v1: v2 for v1, v2 in json.loads(body)["links"]}


def output_checks(out: dict) -> dict:
    """Every output check of a run, by name; all must hold.

    *out* holds what the run produced: the batch links and their csr
    reference, the served ``/links`` body before the kill and its cold
    csr reference, the bodies the resumed primaries and caught-up
    replicas would serve, and what the client saw.
    """
    traffic = out["traffic"]
    snapshot = out["snapshot"]
    return {
        "batch_reps_identical": out["reps_agree"],
        "batch_equals_csr": out["batch_links"] == out["reference_links"],
        "served_equals_cold_csr": links_of(snapshot) == out["final_reference"],
        "served_version_is_write_count": (
            out["snapshot_version"] == out["writes"]
        ),
        "resumed_primary_serves_prekill_links": all(
            body == snapshot for body in out["recovered"]
        ),
        "replica_serves_prekill_links": all(
            body == snapshot for body in out["replicas"]
        ),
        "versions_monotone_per_connection": (
            traffic.write_version_violations == 0
            and traffic.read_version_violations == 0
        ),
        "write_answers_in_order": traffic.wrong_writes == 0,
        "read_answers_correct": traffic.wrong_reads == 0,
    }


def finite_ms(value: float) -> float:
    """A failed request's infinite latency, capped at the timeout."""
    return value if math.isfinite(value) else serving.REQUEST_TIMEOUT * 1e3


def run(args, env) -> dict:
    table = workloads.TINY if args.scale == "tiny" else workloads.WORKLOADS
    spec = table[args.workload]
    recorder = tracing.Recorder() if args.trace else None
    if recorder is not None:
        layers.install(recorder)
    work = BUILD / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    server = None
    cpus = split_cpus()
    if cpus is not None:
        os.sched_setaffinity(0, cpus[0])
    try:
        with tracing.phase("guard"):
            guard_native()

        # Set-up: generate every input and boot the primary, repeated.
        setup_times = []
        for rep in range(SETUP_REPS):
            if server is not None:
                server.kill()
                server = None
            state_dir = work / f"primary{rep}"
            state_dir.mkdir()
            trace_out = state_dir / "spans.json" if recorder else None
            gc.collect()
            with tracing.phase(f"setup/{rep}"):
                began = time.perf_counter()
                stream = workloads.make_stream(spec)
                batch = workloads.make_batch(spec, args.seed)
                server = serving.Server(
                    serving.server_argv(
                        spec.session, state_dir / "serve.npz", trace_out
                    ),
                    env, state_dir, trace_out,
                    cpus=None if cpus is None else cpus[1],
                )
                setup_times.append(time.perf_counter() - began)

        # The inputs live for the whole run.  Freezing them keeps the
        # collector from rescanning them (and pausing the client
        # threads) at moments that depend on the allocation history.
        gc.collect()
        gc.freeze()

        # Batch reconciliation, first block.
        with tracing.phase("reconcile"):
            times, result, reps_agree = reconcile_reps(
                batch, args.seconds / 2
            )

        # Serving session, then a crash.
        bodies = serving.encode_bodies(stream.deltas)
        targets = serving.read_targets(
            stream.seeds, workloads.derive(args.seed, "reads")
        )
        with tracing.phase("session"):
            traffic = serving.drive(server.port, spec.session, bodies, targets)
        snapshot, snapshot_version = serving.fetch_links(server.port)
        server_mb = server.status_mb()
        if recorder is not None:
            server.dump_trace()
        server.kill()
        server = None

        # Recovery from the killed primary's files.
        recover_times, recovered = serving.recover(
            state_dir, work, RECOVERY_REPS, spec.session.checkpoint_every
        )
        catchup_times, replicas = serving.catch_up(
            state_dir, work, RECOVERY_REPS
        )

        # Batch reconciliation, second block.
        with tracing.phase("reconcile"):
            more_times, again, more_agree = reconcile_reps(
                batch, args.seconds / 2
            )
        times += more_times
        reps_agree = reps_agree and more_agree and again.links == result.links
        del again
        bench_mb = hwm_mb()

        # Output checks (untimed).
        with tracing.phase("check"):
            from repro.evaluation.metrics import evaluate

            quality = evaluate(result, batch.pair)
            reference = cold_csr_links(
                batch.pair, batch.seeds,
                workloads.BATCH_THRESHOLD, workloads.BATCH_ITERATIONS,
            )
            final_reference = cold_csr_links(
                stream.final_pair, stream.seeds,
                workloads.SERVE_THRESHOLD, workloads.SERVE_ITERATIONS,
            )
        outputs = {
            "reps_agree": reps_agree,
            "batch_links": result.links,
            "reference_links": reference,
            "snapshot": snapshot,
            "snapshot_version": snapshot_version,
            "writes": len(bodies),
            "final_reference": final_reference,
            "recovered": recovered,
            "replicas": replicas,
            "traffic": traffic,
        }
        checks = output_checks(outputs)
        write_p90 = serving.percentile(traffic.write_ms, 0.90)
        end_to_end = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": bench_mb,
            "server_rss_mb": server_mb,
            "reconcile_s": statistics.median(times),
            "precision": quality.precision,
            "recall": quality.recall,
            "write_p50_ms": finite_ms(serving.percentile(traffic.write_ms, 0.5)),
            "write_p90_ms": finite_ms(write_p90),
            "read_p99_ms": finite_ms(serving.percentile(traffic.read_ms, 0.99)),
            "recover_s": statistics.median(recover_times),
            "replica_catchup_s": statistics.median(catchup_times),
        }
        per_layer = None
        if recorder is not None:
            per_layer = layers.batch_metrics(recorder.spans)
            per_layer.update(
                layers.session_metrics(
                    tracing.load_rows(trace_out),
                    dict(zip(traffic.write_rids, traffic.write_ms)),
                    write_p90,
                )
            )
            per_layer.update(layers.recovery_metrics(recorder.spans))
            per_layer["loadgen.send_lag_ms"] = serving.percentile(
                traffic.send_lag_ms, 0.99
            )
            per_layer["loadgen.read_p50_ms"] = finite_ms(
                serving.percentile(traffic.read_ms, 0.5)
            )
        attempted = (
            len(traffic.write_ms) + len(traffic.read_ms) + len(times)
            + len(setup_times) + len(recover_times) + len(catchup_times)
        )
        failed = traffic.write_failed + traffic.read_failed
        return {
            "outputs": outputs,
            "checks": checks,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "attempted": attempted,
            "failed": failed,
            "samples": {
                "setups": len(setup_times),
                "reconciles": len(times),
                "writes": len(traffic.write_ms),
                "reads": len(traffic.read_ms),
                "recoveries": len(recover_times),
                "catchups": len(catchup_times),
            },
            "timings": {
                "setup_s": setup_times,
                "reconcile_s": times,
                "recover_s": recover_times,
                "replica_catchup_s": catchup_times,
            },
            "candidate_pairs": sum(p.candidates for p in result.phases),
            "links": len(result.links),
        }
    finally:
        gc.unfreeze()
        if server is not None:
            server.kill()
        if recorder is not None:
            recorder.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def declared_metrics(trace: int) -> "list[dict]":
    """The metrics ``BENCHMARK.json`` declares for this kind of run."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    return spec["per_layer" if trace else "end_to_end"]


def result_line(report: dict, trace: int) -> dict:
    values = report["per_layer"] if trace else report["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared_metrics(trace)
    }
    return {
        "correct": all(report["checks"].values()),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def pin_hash_seed() -> None:
    """Re-run this process with a fixed ``PYTHONHASHSEED``.

    String hashing is randomized per process, and with it the layout
    of every str-keyed dict and set; that alone moves the timings by
    several percent from one process to the next.  The server
    processes inherit the same setting.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_hash_seed()
    try:
        env = prepare_environment()
        declared_metrics(args.trace)
        report = run(args, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed_checks = [name for name, ok in report["checks"].items() if not ok]
    if failed_checks:
        print(f"perfbench: checks failed: {failed_checks}", file=sys.stderr)
    if args.report:
        saved = {k: v for k, v in report.items() if k != "outputs"}
        Path(args.report).write_text(
            json.dumps(saved, indent=1), encoding="utf-8"
        )
    try:
        line = result_line(report, args.trace)
    except KeyError as exc:
        print(f"perfbench: no value for metric {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
