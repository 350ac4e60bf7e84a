"""Golden output: pattern files, counters and discovery order of every mode.

Each digest covers, for every case of one database group, the serialized
pattern file, ``MiningStats.as_dict()``, the discovery order and, for the
cases marked so, each pattern's embeddings as ``project_code`` rebuilds
them (graph id and vertex map per chain, in order). The digests were
recorded before the two miners were folded into one search driver; a
refactor must leave them unchanged. A change that alters output on purpose
re-records them and says why. The embeddings were once the miner's own
chains; ``project_code`` returns the same ones, and no digest changed when
it took their place.

The six closed-mode digests were re-recorded when the closure check moved
into the node's visit: closed output went from completion order to gSpan's
pre-order. Every case kept its sorted patterns (code, support, occurrence,
containing graphs, embedding vertex maps) and its counters; only the order
and the discovery indices moved. The ``frequent`` digests did not change.

The three ``closed`` digests were re-recorded again when mode ``closed``
stopped cutting branches through the closed-graph hash table. All 158
cases kept byte-identical pattern files, order and embeddings; only the
counters moved, in 95 cases: ``visited_nodes`` rose to ``mine_frequent``'s
(3,544 to 3,560 over all cases), and ``early_terminations_applied``,
``early_terminations_rejected`` and ``trie_size`` fell to 0 (from 77,
1,497 and 2,834). The ``closed_no_etf`` and ``frequent`` digests did not
change.
"""

import hashlib
import json
import random

import pytest

from graphmine.datasets import parse_dataset_text, write_patterns
from graphmine.embeddings import project_code, vertex_maps
from graphmine.gspan import MODES, MiningConfig, MiningStats

from conftest import ETF_TEXT, SAMPLE_TEXT, mine, random_database

# (min_support, max_pattern_edges, digest embeddings)
FIXTURE_CONFIGS = [(1, None, True), (2, None, True), (2, 2, False), (1, 3, False)]


def fixture_cases(text):
    db = parse_dataset_text(text)
    return [(db, cfg) for cfg in FIXTURE_CONFIGS]


def random_cases():
    """Support 1-3 over one- to three-label alphabets; every fourth case also
    caps the pattern size and every fifth digests embeddings."""
    cases = []
    for seed in range(150):
        rng = random.Random(seed)
        nv = rng.choice([1, 2, 3])
        ne = rng.choice([1, 2])
        db = random_database(
            rng, n_graphs=rng.randint(3, 8), max_vertices=rng.randint(4, 9), n_vlabels=nv, n_elabels=ne
        )
        max_edges = 3 if seed % 4 == 0 else None
        cases.append((db, (seed % 3 + 1, max_edges, seed % 5 == 0)))
    return cases


GROUPS = {
    "sample": lambda: fixture_cases(SAMPLE_TEXT),
    "etf": lambda: fixture_cases(ETF_TEXT),
    "random": random_cases,
}

GOLDEN = {
    ("sample", "frequent"): "2446fb458bd83ae1d63809606a722c686e53455885a9cfab098bfc961dbd0183",
    ("sample", "closed"): "8967c5a7396d7cd7169098e978c8be8d1d1a28abc7bc93192aacb09c1a6f2f87",
    ("sample", "closed_no_etf"): "a777ba159e8356ffc1d4a48e4c587fe021ee79dc747fb0de91378e3ef40f9596",
    ("etf", "frequent"): "7a660f50790ef100737267898afb249f000d8c929e352569b3a775b6790f8566",
    ("etf", "closed"): "47ab51ee9c7acd3eecfa800db917e1807f0da9844c52fc2c69d6020135a90c88",
    ("etf", "closed_no_etf"): "c55db46888f132e56a4aa2afeccbc2c39cfd03a0de17acb9dcf4554f49b90255",
    ("random", "frequent"): "54fa58e1f9d15a93f746ecaa6f7b2ab969dbd729a1bd6d09c3ae54e8e7e1cd38",
    ("random", "closed"): "2103fbf991332051bf556cc890d083acb1882b5da960e3fb7686ce16014d4f2d",
    ("random", "closed_no_etf"): "0ecdeb39beea07f59133e06462dc588778f18b317c5482188152d017e9ee7b43",
}


def chain_maps(code, db) -> list:
    chains = project_code(code, db)
    return [[c.gid, vm] for c, vm in zip(chains, vertex_maps(code, chains))]


def run_digest(db, mode, min_support, max_edges, emit) -> bytes:
    config = MiningConfig(min_support=min_support, mode=mode, max_pattern_edges=max_edges)
    stats = MiningStats()
    patterns = mine(db, config, stats)
    record = {
        "patterns": write_patterns(patterns, db),
        "stats": stats.as_dict(),
        "order": [[p.discovery_index, [list(t) for t in p.code]] for p in patterns],
        "embeddings": [chain_maps(p.code, db) if emit else None for p in patterns],
    }
    return json.dumps(record, sort_keys=True).encode()


def group_digest(group: str, mode: str) -> str:
    h = hashlib.sha256()
    for db, (min_support, max_edges, emit) in GROUPS[group]():
        h.update(run_digest(db, mode, min_support, max_edges, emit))
    return h.hexdigest()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_output_matches_golden_digest(group, mode):
    assert group_digest(group, mode) == GOLDEN[(group, mode)]
