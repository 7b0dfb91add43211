"""Traced-run accounting and the held-out seed check.

Usage, from the root of the repository::

    python3 perfbench/accounting.py

For each workload and seed it makes ``PAIRS`` alternating untraced and
traced runs of ``run_seconds`` (from ``BENCHMARK.json``) and writes
``perfbench/results/accounting.json`` with:

* whether every output check passed in every run;
* the tracing overhead: per end-to-end metric, the median of traced
  minus untraced over the pairs, next to the spread (max - min) of the
  untraced runs, so an overhead can be told from run-to-run noise;
* the share of ``reconcile_s`` the layer spans cover
  (``trace.coverage``) and which layer has the largest self time;
* how much of the slowest writes the checkpoint spans account for.

``DEFAULT_SEED`` is the one the numbers in ``METRICS.md`` come from;
``HELD_OUT_SEEDS`` check that the checks and the layer ordering hold
on inputs the benchmark was not tuned on.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "results" / "accounting.json"
WORKLOADS = ("pa", "affiliation")
DEFAULT_SEED = 1
HELD_OUT_SEEDS = (2027,)
#: Untraced/traced pairs per workload and seed, alternating.
PAIRS = 3
#: Per-reconcile self times compared for the layer-ordering claim.
SELF_TIMES = (
    "graphs.pair_index.build_s",
    "core.kernels.join_s",
    "core.kernels.select_s",
    "core.matcher.self_s",
)
EXPECTED_LARGEST = {
    "pa": "graphs.pair_index.build_s",
    "affiliation": "core.kernels.join_s",
}


def run_seconds() -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return str(spec["run_seconds"])


def run_once(workload: str, seed: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        report_path = Path(tmp) / "report.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", run_seconds(),
             "--trace", str(trace), "--report", str(report_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: {proc.stderr}")
        return json.loads(report_path.read_text(encoding="utf-8"))


def median_of(dicts, name):
    return statistics.median(d[name] for d in dicts)


def account(workload: str, seed: int) -> dict:
    plain, traced = [], []
    for _ in range(PAIRS):
        plain.append(run_once(workload, seed, trace=0))
        traced.append(run_once(workload, seed, trace=1))
    e2e = [r["end_to_end"] for r in plain]
    e2e_traced = [r["end_to_end"] for r in traced]
    layers = [r["per_layer"] for r in traced]
    largest = [
        max(SELF_TIMES, key=lambda name, run=run: run[name]) for run in layers
    ]
    self_times = {name: median_of(layers, name) for name in SELF_TIMES}
    reconcile_traced = median_of(e2e_traced, "reconcile_s")
    coverage = [run["trace.coverage"] for run in layers]
    overhead = {}
    for name in e2e[0]:
        untraced = [run[name] for run in e2e]
        middle = statistics.median(untraced)
        difference = statistics.median(
            t[name] - u[name] for t, u in zip(e2e_traced, e2e)
        )
        spread = max(untraced) - min(untraced)
        overhead[name] = {
            "untraced": untraced,
            "traced": [run[name] for run in e2e_traced],
            "median_traced_minus_untraced": difference,
            "untraced_max_minus_min": spread,
            "overhead_share": difference / middle if middle else 0.0,
            "within_untraced_spread": abs(difference) <= spread,
        }
    return {
        "workload": workload,
        "seed": seed,
        "pairs": PAIRS,
        "checks_pass": all(
            all(r["checks"].values()) for r in plain + traced
        ),
        "candidate_pairs": plain[0]["candidate_pairs"],
        "links": plain[0]["links"],
        "tracing_overhead": overhead,
        "self_time_per_reconcile_s": self_times,
        "share_of_reconcile": {
            name: value / reconcile_traced for name, value in self_times.items()
        },
        "largest_self_time": largest,
        "ordering_holds": all(
            name == EXPECTED_LARGEST[workload] for name in largest
        ),
        "span_coverage": coverage,
        "coverage_at_least_95pct": min(coverage) >= 0.95,
        "write_p90_ms_traced": median_of(e2e_traced, "write_p90_ms"),
        "checkpoint_ms": median_of(layers, "incremental.engine.checkpoint_ms"),
        "checkpoint_share_of_tail_writes": median_of(
            layers, "incremental.engine.checkpoint_tail_share"
        ),
        "recover_s_traced": median_of(e2e_traced, "recover_s"),
        "recover_parts_s": {
            name: median_of(layers, name)
            for name in (
                "incremental.engine.resume_s",
                "incremental.engine.replay_apply_s",
                "incremental.engine.recover_checkpoint_s",
            )
        },
        "per_layer": layers,
    }


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    rows = []
    for seed in (DEFAULT_SEED,) + HELD_OUT_SEEDS:
        for workload in WORKLOADS:
            row = account(workload, seed)
            rows.append(row)
            print(
                f"{workload:12s} seed {seed:5d}: checks "
                f"{'pass' if row['checks_pass'] else 'FAIL'}, largest self "
                f"time {sorted(set(row['largest_self_time']))} "
                f"({'as predicted' if row['ordering_holds'] else 'NOT as predicted'}), "
                f"coverage >= {min(row['span_coverage']):.3f}, checkpoint "
                f"share of tail writes "
                f"{row['checkpoint_share_of_tail_writes']:.2f}",
                flush=True,
            )
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(
        json.dumps({"default_seed": DEFAULT_SEED,
                    "held_out_seeds": list(HELD_OUT_SEEDS),
                    "seconds": run_seconds(), "runs": rows}, indent=1) + "\n",
        encoding="utf-8",
    )
    ok = all(
        r["checks_pass"] and r["ordering_holds"] and r["coverage_at_least_95pct"]
        for r in rows
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
