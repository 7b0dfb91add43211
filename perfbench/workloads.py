"""Workload definitions: what each one generates from the seed.

Every workload is one session of a user of the system:

1. a batch reconciliation of the workload's graph pair, repeated;
2. a durable ``repro serve`` primary (fsync on, a checkpoint every 8
   batches) on the stream-workload base, fed the held-back stream as
   delta batches by a paced writer while a reader queries single
   links on the same event loop;
3. a SIGKILL of that primary 4 batches past its last checkpoint, then
   a primary resume and a replica bootstrap-and-drain from its files.

Every end-to-end metric comes from every workload, so the serving
session runs in both; the workloads differ in the batch pair:

``pa``
    PA(100k, 10) with independent edge copies (s = 0.6): interning
    (``GraphPairIndex`` construction) dominates the reconciliation.
``affiliation``
    The affiliation network of ``benchmarks/bench_pruning.py`` (1500
    users, 120 interests, network seed 7, community copies with keep
    0.8 and seed 11): the witness join dominates.  The network and its
    copies are pinned because their cost moves by 2x between
    generator seeds (whether one giant interest survives); the
    workload seed draws the 5% seed links.

The serving stream is pinned as well: the ``repro serve --demo`` base
with its default seed 0, the held-back edges cut into batches in
stream order.  At 3000 nodes, checkpoint cost and the cost of the
recovered tail move by 10-25% between generator seeds or batch orders.
The workload seed picks the links the reader asks for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Configuration of the batch matcher.
BATCH_THRESHOLD = 2
BATCH_ITERATIONS = 2
#: ``repro serve`` defaults (threshold 2, one iteration).
SERVE_THRESHOLD = 2
SERVE_ITERATIONS = 1


@dataclass(frozen=True)
class Session:
    """Shape of the serving session."""

    base_n: int = 3000
    base_m: int = 10
    base_seed: int = 0
    #: Write batches: 16 checkpoints (every 8th) plus a 4-batch tail, so
    #: p90 (rank 119) sits three samples inside the checkpoint mode with
    #: 13 beyond it, and the kill lands 4 batches past the last
    #: checkpoint.
    writes: int = 132
    checkpoint_every: int = 8
    #: Minimum seconds between write starts.  One write per 200 ms keeps
    #: the loop busy about a quarter of the time, so the read median
    #: stays clear of the writer-stall mode.
    write_interval: float = 0.2
    #: Open-loop read rate, reads/s.
    read_rate: float = 500.0


@dataclass(frozen=True)
class Workload:
    name: str
    session: Session
    sizes: dict = field(default_factory=dict)


WORKLOADS = {
    "pa": Workload("pa", Session(), {"n": 100_000, "m": 10, "s": 0.6}),
    "affiliation": Workload(
        "affiliation",
        Session(),
        {"users": 1500, "interests": 120, "keep": 0.8,
         "network_seed": 7, "copy_seed": 11},
    ),
}

#: Sizes for the self-test: every code path, a few seconds per run.
_TINY_SESSION = Session(base_n=300, writes=20, write_interval=0.05)
TINY = {
    "pa": Workload("pa", _TINY_SESSION, {"n": 2000, "m": 6, "s": 0.6}),
    "affiliation": Workload(
        "affiliation",
        _TINY_SESSION,
        {"users": 200, "interests": 20, "keep": 0.8,
         "network_seed": 7, "copy_seed": 11},
    ),
}

SEED_LINK_PROB = 0.05


def derive(seed: int, label: str) -> int:
    """An independent integer seed for one input of the workload."""
    return random.Random(f"{seed}:{label}").randrange(2**31)


@dataclass
class BatchInput:
    pair: object
    seeds: dict


@dataclass
class StreamInput:
    """The serving session's inputs.

    The server builds the same base itself (``repro serve --demo`` from
    ``Session.base_seed``); the benchmark sends it the deltas.
    """

    seeds: dict
    deltas: list
    final_pair: object


def make_stream(workload: Workload) -> StreamInput:
    """Stream workload base + delta batches + the post-stream pair."""
    from repro.incremental import delta as delta_mod
    from repro.incremental import stream as stream_mod
    from repro.sampling.pair import GraphPair

    session = workload.session
    pair, seeds, deltas = stream_mod.build_stream_workload(
        n=session.base_n,
        m=session.base_m,
        seed=session.base_seed,
        batches=session.writes,
    )
    g1, g2 = pair.g1.copy(), pair.g2.copy()
    for delta in deltas:
        delta_mod.apply_delta_to_graphs(g1, g2, delta)
    final = GraphPair(g1=g1, g2=g2, identity=pair.identity)
    return StreamInput(seeds, deltas, final)


def make_batch(workload: Workload, seed: int) -> BatchInput:
    """The batch pair and its seed links."""
    from repro.seeds import generators as seed_gen

    sizes = workload.sizes
    if workload.name == "pa":
        from repro.generators import preferential_attachment as pa_gen
        from repro.sampling import edge_sampling

        graph = pa_gen.preferential_attachment_graph(
            sizes["n"], sizes["m"], seed=derive(seed, "graph")
        )
        pair = edge_sampling.independent_copies(
            graph, s1=sizes["s"], seed=derive(seed, "copies")
        )
        del graph
    else:
        from repro.generators import affiliation as aff_gen
        from repro.sampling import community

        network = aff_gen.affiliation_graph(
            sizes["users"], sizes["interests"], seed=sizes["network_seed"]
        )
        pair = community.correlated_community_copies(
            network, keep_prob=sizes["keep"], seed=sizes["copy_seed"]
        )
    seeds = seed_gen.sample_seeds(
        pair, SEED_LINK_PROB, seed=derive(seed, "seeds")
    )
    return BatchInput(pair, seeds)
