"""Golden output: pattern files, counters and discovery order of every mode.

Each digest covers, for every case of one database group, the serialized
pattern file, ``MiningStats.as_dict()``, the discovery order and, for the
cases marked so, each pattern's embeddings as ``project_code`` rebuilds
them (graph id and vertex map per hit of its bucket, in order). The
digests were recorded before the two miners were folded into one search
driver; a refactor must leave them unchanged. A change that alters output on purpose
re-records them and says why. The embeddings were once the miner's own
chains; ``project_code`` returns the same ones, and no digest changed when
it took their place. Nor did one change when a node's bucket, a parent
index and a half-edge per hit, became its only embedding list and the
per-embedding chain objects went.

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

All nine digests were re-recorded when ``MiningConfig`` lost its pattern
size cap and the cases that set one were dropped. Every case left was
uncapped before, and the code from before the change gives the same
digests on them.
"""

import hashlib
import json

import pytest

from graphmine.datasets import parse_dataset_text, write_patterns
from graphmine.embeddings import project_code, vertex_maps
from graphmine.gspan import MODES, MiningConfig, MiningStats

from conftest import ETF_TEXT, SAMPLE_TEXT, fuzz_database, mine

# (min_support, digest embeddings)
FIXTURE_CONFIGS = [(1, True), (2, True)]


def fixture_cases(text):
    db = parse_dataset_text(text)
    return [(db, cfg) for cfg in FIXTURE_CONFIGS]


def random_cases():
    """The first 150 fuzz databases at support 1-3; every fifth case also
    digests embeddings."""
    return [(fuzz_database(seed), (seed % 3 + 1, seed % 5 == 0)) for seed in range(150)]


GROUPS = {
    "sample": lambda: fixture_cases(SAMPLE_TEXT),
    "etf": lambda: fixture_cases(ETF_TEXT),
    "random": random_cases,
}

GOLDEN = {
    ("sample", "frequent"): "db537d51675c66190ad7d0329c81019ea8eb1c74083820026b611fbe9d57a5aa",
    ("sample", "closed"): "d36a4dedc7ae1f56619c4bab4db0e0e03f48bb8479746185c08f21fd18617e38",
    ("sample", "closed_no_etf"): "63941ac8352dca4f24cf5a0e3a59a7f7f92cdb1d1dcff065a57db2bcdc84f64e",
    ("etf", "frequent"): "225a3495411bb4441391b701d7365a8809aaefb3d9dd256ab08bd835aa782029",
    ("etf", "closed"): "fcd3a9cd423afff5451873d879d87c4bb3a4db813c47036ee143e3ad15f7390b",
    ("etf", "closed_no_etf"): "9b82850d882b6d9e8bb86ff4cd692550d5708c45ba04b2cede842d7ca52e21b9",
    ("random", "frequent"): "2ff68b06a34bbb3bf4e852942c87b1e3079d3f6d54812c0e38aea6187d1bed78",
    ("random", "closed"): "0ff7e73d2286bf527a64386081d51f4f2dcd8e00dc45f1e94afc12c0b6b4b19a",
    ("random", "closed_no_etf"): "6b85349ae9573aed2ab7534ae0b28adef57eb65e0b87a52246d051ee92adf806",
}


def hit_maps(code, db) -> list:
    bucket = project_code(code, db)
    return [[gid, vm] for gid, vm in zip(bucket.gids, vertex_maps(code, bucket))]


def run_digest(db, mode, min_support, emit) -> bytes:
    config = MiningConfig(min_support=min_support, mode=mode)
    stats = MiningStats()
    patterns = mine(db, config, stats)
    record = {
        "patterns": write_patterns(patterns, db),
        "stats": stats.as_dict(),
        "order": [[p.discovery_index, [list(t) for t in p.code]] for p in patterns],
        "embeddings": [hit_maps(p.code, db) if emit else None for p in patterns],
    }
    return json.dumps(record, sort_keys=True).encode()


def group_digest(group: str, mode: str) -> str:
    h = hashlib.sha256()
    for db, (min_support, emit) in GROUPS[group]():
        h.update(run_digest(db, mode, min_support, emit))
    return h.hexdigest()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_output_matches_golden_digest(group, mode):
    assert group_digest(group, mode) == GOLDEN[(group, mode)]
