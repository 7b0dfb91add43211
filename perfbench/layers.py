"""Which program functions are traced, and the per-layer metrics.

:func:`install` wraps the layer boundaries of the batch matcher, the
serving write and read paths, and recovery.  It is called by the
benchmark process and, in the traced run, by :mod:`launcher` inside
the server process.  :func:`batch_metrics`, :func:`session_metrics`
and :func:`recovery_metrics` turn the recorded spans into the
``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import statistics

import tracing


def _join_counts(span, args, kwargs, result):
    scores, emitted = result
    span.counters["witness_pairs"] = int(emitted)
    span.counters["candidate_pairs"] = int(scores.num_pairs)


def _table_counts(span, args, kwargs, result):
    keys, _counts, emitted = result
    span.counters["witness_pairs"] = int(emitted)
    span.counters["candidate_pairs"] = int(len(keys))


def _select_counts(span, args, kwargs, result):
    span.counters["links_added"] = int(len(result[0]))


def _apply_counts(span, args, kwargs, result):
    span.counters["dirty_links"] = int(result.dirty_links or 0)


def _append_bytes(span, args, kwargs, result):
    event = args[1] if len(args) > 1 else kwargs["event"]
    span.counters["bytes"] = len(json.dumps(event, separators=(",", ":"))) + 1


def _checkpoint_bytes(span, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    span.counters["bytes"] = os.path.getsize(path)


def install(recorder: tracing.Recorder) -> None:
    """Wrap every traced layer boundary (idempotence is the caller's)."""
    patch = recorder.patch
    # Set-up: graph generation, copy sampling, native library load.
    for target in (
        "repro.generators.preferential_attachment:preferential_attachment_graph",
        "repro.incremental.stream:preferential_attachment_graph",
        "repro.generators.affiliation:affiliation_graph",
    ):
        patch(target, "generators.graph")
    for target in (
        "repro.sampling.edge_sampling:independent_copies",
        "repro.incremental.stream:independent_copies",
        "repro.sampling.community:correlated_community_copies",
    ):
        patch(target, "sampling.copies")
    patch("repro.core.native:load_native_library", "core.native.load")
    # Batch matcher: interning, per-bucket join and selection.
    patch("repro.core.matcher:UserMatching.run", "core.matcher.run")
    patch(
        "repro.graphs.pair_index:GraphPairIndex.__init__",
        "graphs.pair_index.build",
    )
    patch(
        "repro.core.kernels:count_witnesses",
        "core.kernels.join",
        count=_join_counts,
    )
    patch(
        "repro.core.kernels:select_mutual_best_arrays",
        "core.kernels.select",
        count=_select_counts,
    )
    # Serving: HTTP framing, routing, the write queue and the reads.
    patch(
        "repro.serving.server:ReconciliationServer._dispatch",
        "serving.server.dispatch",
        before=lambda span, args, kwargs: args[1].headers.get(
            "x-request-id"
        ),
    )
    patch("repro.serving.server:read_request", "serving.http.read_request")
    recorder.replace(
        "repro.serving.http:_read_line",
        lambda func: _first_line_idle(recorder, func),
    )
    patch(
        "repro.serving.service:ReconciliationService.link_body",
        "serving.service.link_body",
    )
    patch("repro.serving.server:parse_json_delta", "serving.service.parse_delta")
    owners: dict[int, object] = {}

    def remember_request(span, args, kwargs):
        owners[id(args[1])] = tracing.current_request()

    def recall_request(span, args, kwargs):
        items = args[1]
        return owners.pop(id(items[0].delta), None) if items else None

    patch(
        "repro.serving.service:ReconciliationService.submit",
        "serving.service.submit",
        before=remember_request,
    )
    patch(
        "repro.serving.service:ReconciliationService._apply_batch",
        "serving.service.apply_batch",
        before=recall_request,
    )
    patch("repro.serving.service:validate_delta", "incremental.delta.validate")
    patch(
        "repro.core.links_io:LinkStore.append",
        "core.links_io.append",
        count=_append_bytes,
    )
    # Incremental engine: warm apply, its dirty-set joins, checkpoints.
    patch(
        "repro.incremental.engine:IncrementalReconciler.apply",
        "incremental.engine.apply",
        count=_apply_counts,
    )
    patch(
        "repro.incremental.engine:IncrementalReconciler._count_gathered",
        "incremental.engine.join",
        count=_table_counts,
    )
    patch(
        "repro.incremental.engine:_count_subset_from_lists",
        "incremental.engine.join",
        count=_table_counts,
    )
    patch(
        "repro.incremental.engine:IncrementalReconciler.save_checkpoint",
        "incremental.engine.checkpoint",
        count=_checkpoint_bytes,
    )
    # Recovery: primary resume and replica bootstrap + drain.
    patch(
        "repro.incremental.engine:IncrementalReconciler.resume",
        "incremental.engine.resume",
    )
    patch(
        "repro.serving.service:ReconciliationService.resume",
        "serving.service.resume",
    )
    patch(
        "repro.serving.replica:ReplicaService.follow",
        "serving.replica.follow",
    )
    patch(
        "repro.serving.replication:ReplicationStream.poll",
        "serving.replication.poll",
    )
    patch("repro.serving.replica:ReplicaService.step", "serving.replica.step")


def _first_line_idle(recorder, func):
    """Record the wait for a request's first line as its own span.

    A keep-alive connection parks in ``read_request`` until the
    client sends again; that wait is idle time, not parsing, so it is
    split out of ``serving.http.read_request``.
    """

    async def read_line(*args, **kwargs):
        parent = tracing.current()
        if (
            parent is None
            or parent.name != "serving.http.read_request"
            or parent.children
        ):
            return await func(*args, **kwargs)
        span, token = recorder.open("serving.http.idle")
        try:
            return await func(*args, **kwargs)
        finally:
            recorder.close(span, token)

    return read_line


# ----------------------------------------------------------------------
# Metrics from spans
# ----------------------------------------------------------------------
def _median(values) -> float:
    """Median, or 0.0 when the layer did not run."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def batch_metrics(spans) -> dict:
    """Setup and per-reconcile layer metrics from benchmark spans."""
    own = tracing.self_times(spans)
    setups: dict[str, dict[str, float]] = {}
    for span in spans:
        if span.phase.startswith("setup/") and span.name in (
            "generators.graph", "sampling.copies",
        ):
            per = setups.setdefault(span.phase, {})
            per[span.name] = per.get(span.name, 0.0) + span.duration
    loads = [s.duration for s in spans if s.name == "core.native.load"
             and s.phase == "guard"]
    reps = []
    roots = [s for s in spans if s.name == "core.matcher.run"
             and s.phase == "reconcile" and s.parent is None]
    by_root: dict[int, list] = {root.sid: [] for root in roots}
    for span in spans:
        if span.phase == "reconcile" and span.parent is not None:
            by_root.setdefault(tracing.root_of(span).sid, []).append(span)
    for root in roots:
        rep = {
            "build": 0.0, "join": 0.0, "select": 0.0, "calls": 0,
            "witness": 0, "candidates": 0, "added": 0,
        }
        for span in by_root.get(root.sid, []):
            if span.name == "graphs.pair_index.build":
                rep["build"] += own[span.sid]
            elif span.name == "core.kernels.join":
                rep["join"] += own[span.sid]
                rep["calls"] += 1
                rep["witness"] += span.counters.get("witness_pairs", 0)
                rep["candidates"] += span.counters.get("candidate_pairs", 0)
            elif span.name == "core.kernels.select":
                rep["select"] += own[span.sid]
                rep["added"] += span.counters.get("links_added", 0)
        rep["self"] = own[root.sid]
        rep["total"] = root.duration
        reps.append(rep)

    def rep_median(key):
        return _median(rep[key] for rep in reps)

    candidates = rep_median("candidates")
    return {
        "generators.graph_s": _median(
            per.get("generators.graph", 0.0) for per in setups.values()
        ),
        "sampling.copies_s": _median(
            per.get("sampling.copies", 0.0) for per in setups.values()
        ),
        "core.native.load_s": loads[0] if loads else 0.0,
        "graphs.pair_index.build_s": rep_median("build"),
        "core.kernels.join_s": rep_median("join"),
        "core.kernels.join_calls": rep_median("calls"),
        "core.kernels.witness_pairs": rep_median("witness"),
        "core.kernels.candidate_pairs": candidates,
        "core.kernels.select_s": rep_median("select"),
        "core.kernels.links_added": rep_median("added"),
        "core.kernels.select_yield": (
            rep_median("added") / candidates if candidates else 0.0
        ),
        "core.matcher.self_s": rep_median("self"),
        "trace.coverage": _median(
            1.0 - rep["self"] / rep["total"] for rep in reps if rep["total"]
        ),
    }


def session_metrics(spans, write_ms_by_rid: dict, write_tail_ms: float) -> dict:
    """Server-side layer metrics of one serving session.

    *write_ms_by_rid* maps each write's request id to its client-side
    latency; *write_tail_ms* is the reported tail percentile, used to
    attribute the slowest writes to checkpoints.
    """
    own = tracing.self_times(spans)
    per_write: dict[str, dict[str, float]] = {}
    submits = {}
    for span in spans:
        rid = span.rid
        if rid is None or not str(rid).startswith("w"):
            continue
        per = per_write.setdefault(rid, {
            "apply_batch": 0.0, "append_s": 0.0, "append_bytes": 0,
            "join_s": 0.0, "join_calls": 0, "checkpoint_s": 0.0,
        })
        if span.name == "serving.service.submit":
            submits[rid] = span.duration
        elif span.name == "serving.service.apply_batch":
            per["apply_batch"] += span.duration
        elif span.name == "core.links_io.append":
            per["append_s"] += span.duration
            per["append_bytes"] += span.counters.get("bytes", 0)
        elif span.name == "incremental.engine.join":
            per["join_s"] += span.duration
            per["join_calls"] += 1
        elif span.name == "incremental.engine.checkpoint":
            per["checkpoint_s"] += span.duration

    def durations(name, rid_only=False):
        return [
            span.duration for span in spans
            if span.name == name and (not rid_only or span.rid is not None)
        ]

    checkpoints = [
        span for span in spans
        if span.name == "incremental.engine.checkpoint" and span.rid
    ]
    tail_shares = [
        per_write[rid]["checkpoint_s"] * 1e3 / ms
        for rid, ms in write_ms_by_rid.items()
        if ms >= write_tail_ms and rid in per_write and ms > 0
    ]
    return {
        "serving.http.read_request_s": _median(
            own[span.sid] for span in spans
            if span.name == "serving.http.read_request"
        ),
        "serving.service.link_body_s": _median(
            durations("serving.service.link_body")
        ),
        "serving.service.parse_delta_s": _median(
            durations("serving.service.parse_delta")
        ),
        "serving.service.queue_wait_ms": _median(
            (duration - per_write[rid]["apply_batch"]) * 1e3
            for rid, duration in submits.items()
        ),
        "incremental.delta.validate_s": _median(
            durations("incremental.delta.validate", rid_only=True)
        ),
        "core.links_io.append_s": _median(
            per["append_s"] for per in per_write.values()
        ),
        "core.links_io.append_bytes": _median(
            per["append_bytes"] for per in per_write.values()
        ),
        "incremental.engine.apply_ms": _median(
            d * 1e3 for d in durations("incremental.engine.apply", True)
        ),
        "incremental.engine.dirty_links": _median(
            span.counters.get("dirty_links", 0) for span in spans
            if span.name == "incremental.engine.apply" and span.rid
        ),
        "incremental.engine.join_ms": _median(
            per["join_s"] * 1e3 for per in per_write.values()
        ),
        "incremental.engine.join_calls": _median(
            per["join_calls"] for per in per_write.values()
        ),
        "incremental.engine.checkpoint_ms": _median(
            span.duration * 1e3 for span in checkpoints
        ),
        "incremental.engine.checkpoint_bytes": _median(
            span.counters.get("bytes", 0) for span in checkpoints
        ),
        "incremental.engine.checkpoint_tail_share": _median(tail_shares),
    }


def recovery_metrics(spans) -> dict:
    """Resume and replica catch-up layer metrics (benchmark process).

    A primary resume is the engine resume, the replay of the log tail
    through ``apply`` and a fresh checkpoint; each gets its own metric,
    summed per repetition.
    """
    resumes: dict[str, float] = {}
    replays: dict[str, float] = {}
    checkpoints: dict[str, float] = {}
    parts = {
        "incremental.engine.resume": resumes,
        "incremental.engine.apply": replays,
        "incremental.engine.checkpoint": checkpoints,
    }
    for span in spans:
        if span.phase.startswith("recover/") and span.name in parts:
            per = parts[span.name]
            per[span.phase] = per.get(span.phase, 0.0) + span.duration
    polls: dict[str, float] = {}
    steps: dict[str, float] = {}
    for span in spans:
        if not span.phase.startswith("replica/"):
            continue
        if span.name == "serving.replication.poll":
            polls[span.phase] = polls.get(span.phase, 0.0) + span.duration
        elif span.name == "serving.replica.step" and (
            span.parent is None or span.parent.name != "serving.replica.step"
        ):
            steps[span.phase] = steps.get(span.phase, 0.0) + span.duration
    return {
        "incremental.engine.resume_s": _median(resumes.values()),
        "incremental.engine.replay_apply_s": _median(replays.values()),
        "incremental.engine.recover_checkpoint_s": _median(
            checkpoints.values()
        ),
        "serving.replication.poll_s": _median(polls.values()),
        "serving.replica.step_s": _median(steps.values()),
    }
