"""Seeded benchmark workloads, independent of the package under test.

The two generator functions are a frozen copy of ``random_connected`` and
``synthetic_database`` from ``demos/benchmark_synthetic.py``. They draw from
the random stream in exactly the same order, but build plain lists instead
of ``LabeledGraph`` objects and serialize the dataset themselves, so neither
a change to the demos nor to the package can change the benchmark's inputs.
``BASE_SHA256`` pins each workload's generated dataset.

A workload's dataset is generated from its fixed generator seed. The
benchmark's ``--seed`` then draws an isomorphic relabelling of it: graph
order, vertex ids, edge order and edge orientation. Every embedding list and
pattern file changes, but every graph keeps its shape, so the patterns found
stay the same and the mining work nearly so. Fresh generator draws would not do: the
planted motif sets the frequent pattern family, so pattern counts, and with
them job times, vary several-fold between generator seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

# A graph is (vertex labels, edges as (u, v, edge label)).
Graph = tuple[list[int], list[tuple[int, int, int]]]


def random_connected(rng: random.Random, nv: int, n_vlabels: int, n_elabels: int,
                     extra_edges: int) -> Graph:
    """A random spanning tree plus a few chords."""
    vlabels = [rng.randrange(n_vlabels) for _ in range(nv)]
    edges = []
    pairs = set()
    for v in range(1, nv):
        u = rng.randrange(v)
        edges.append((v, u, rng.randrange(n_elabels)))
        pairs.add((u, v))
    candidates = [(u, v) for u in range(nv) for v in range(u + 1, nv) if (u, v) not in pairs]
    rng.shuffle(candidates)
    for u, v in candidates[: rng.randint(0, extra_edges)]:
        edges.append((u, v, rng.randrange(n_elabels)))
    return vlabels, edges


def synthetic_database(
    rng: random.Random,
    n_graphs: int,
    motif_vertices: int = 7,
    plant_prob: float = 0.75,
    decoration: int = 4,
    n_vlabels: int = 3,
    n_elabels: int = 2,
) -> list[Graph]:
    """Graphs sharing a planted motif under per-graph random decoration."""
    motif = random_connected(rng, motif_vertices, n_vlabels, n_elabels, extra_edges=2)
    graphs = []
    for _ in range(n_graphs):
        core = motif if rng.random() < plant_prob else random_connected(
            rng, motif_vertices, n_vlabels, n_elabels, extra_edges=2
        )
        vlabels, edges = list(core[0]), list(core[1])
        base = len(vlabels)
        for i in range(rng.randint(1, decoration)):
            vlabels.append(rng.randrange(n_vlabels))
            edges.append((len(vlabels) - 1, rng.randrange(base + i), rng.randrange(n_elabels)))
        graphs.append((vlabels, edges))
    return graphs


def _dense(rng: random.Random) -> list[Graph]:
    return [random_connected(rng, 12, 1, 1, extra_edges=2) for _ in range(12)]


@dataclass(frozen=True)
class Workload:
    name: str
    generator_seed: int
    generate: Callable[[random.Random], list[Graph]]
    # A float is a fraction of the database, an int an absolute graph count.
    min_support: float | int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("medium", 3, lambda rng: synthetic_database(rng, 300, motif_vertices=10, decoration=6), 0.2),
        Workload("wide", 5, lambda rng: synthetic_database(rng, 1000, motif_vertices=6, decoration=3), 0.5),
        Workload("dense", 11, _dense, 6),
    )
}

BASE_SHA256 = {
    "medium": "ac5109e5bcc3dc20cb9cb733e7f3eafac442eeac80068ce3c498e0663cb14325",
    "wide": "3f618a5b2f8ded8b553ef7602022873ac681c31ba06ab03b0b58fac877ecf121",
    "dense": "8e4b3c12ede61be6cf7c4d9fb51d87ca59c709a51fd4a05e464287f87e56c36f",
}


def serialize(graphs: list[Graph]) -> str:
    """The dataset file format read by ``graphmine.parse_dataset``."""
    lines = []
    for gid, (vlabels, edges) in enumerate(graphs):
        lines.append(f"t # {gid}")
        lines.extend(f"v {v} {lbl}" for v, lbl in enumerate(vlabels))
        lines.extend(f"e {u} {v} {lbl}" for u, v, lbl in edges)
    return "".join(line + "\n" for line in lines)


def relabel(graphs: list[Graph], rng: random.Random) -> list[Graph]:
    """An isomorphic copy: graphs, vertices and edges permuted, edges flipped."""
    out = []
    for vlabels, edges in graphs:
        perm = list(range(len(vlabels)))
        rng.shuffle(perm)  # perm[old] = new
        new_vlabels = [0] * len(vlabels)
        for old, new in enumerate(perm):
            new_vlabels[new] = vlabels[old]
        new_edges = [
            (perm[v], perm[u], lbl) if rng.random() < 0.5 else (perm[u], perm[v], lbl)
            for u, v, lbl in edges
        ]
        rng.shuffle(new_edges)
        out.append((new_vlabels, new_edges))
    rng.shuffle(out)
    return out


def dataset_text(workload: Workload, seed: int) -> str:
    """The dataset file for one workload and seed.

    Raises RuntimeError when the generated base dataset no longer matches
    its recorded digest.
    """
    base = workload.generate(random.Random(workload.generator_seed))
    digest = hashlib.sha256(serialize(base).encode()).hexdigest()
    if digest != BASE_SHA256[workload.name]:
        raise RuntimeError(
            f"workload {workload.name}: generated dataset digest {digest} "
            f"differs from the recorded {BASE_SHA256[workload.name]}"
        )
    return serialize(relabel(base, random.Random(seed)))
