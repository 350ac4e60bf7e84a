import random

import pytest

from graphmine import cgspan, gspan
from graphmine.cgspan import (
    ClosedGraphHashTable,
    ClosedGraphRecord,
    DFSCodeTrie,
    add_closed_graph,
    create_edge_hash_key,
    detect_etf,
    early_termination,
    mine_closed,
    reject_early_termination,
)
from graphmine.datasets import parse_dataset_text
from graphmine.dfscode import DFSCode, code_to_graph
from graphmine.embeddings import (
    dropped_extension_covers,
    equivalent_occurrence,
    project_code,
    rightmost_extensions,
    support,
)
from graphmine.graphs import subgraph_isomorphisms
from graphmine.gspan import MiningConfig, MiningStats, mine_frequent
from graphmine.oracle import filter_closed, is_closed, verify_run

from conftest import CG1, CG2, EA, ED, P1, P2, S, W, X, Z, key_set, random_database


def build_table(patterns):
    """The hash table a closed run ends with, rebuilt from its mined
    patterns in discovery order."""
    cght = ClosedGraphHashTable()
    for p in patterns:
        add_closed_graph(cght, ClosedGraphRecord(p.code, p.embeddings, p.discovery_index))
    return cght


@pytest.fixture
def sample_closed(sample_db):
    return mine_closed(sample_db, MiningConfig(min_support=2, mode="closed", emit_embeddings=True))


# ---------------------------------------------------------------- mining


def test_sample_closed_set_exact(sample_db):
    mined = mine_closed(sample_db, MiningConfig(min_support=2, mode="closed"))
    got = {tuple(map(tuple, p.code)): (p.support, p.occurrence) for p in mined}
    assert got == {
        tuple(map(tuple, P1)): (2, 2),
        tuple(map(tuple, P2)): (2, 3),
    }


def test_sample_closed_set_stable_without_etf(sample_db):
    on = mine_closed(sample_db, MiningConfig(min_support=2, mode="closed"))
    off = mine_closed(sample_db, MiningConfig(min_support=2, mode="closed_no_etf"))
    assert key_set(on) == key_set(off)


def test_etf_handling_recovers_missed_pattern(etf_db):
    on = key_set(mine_closed(etf_db, MiningConfig(min_support=2, mode="closed")))
    off = key_set(mine_closed(etf_db, MiningConfig(min_support=2, mode="closed_no_etf")))
    cg1, cg2 = tuple(map(tuple, CG1)), tuple(map(tuple, CG2))
    assert cg1 in on and cg2 in on
    assert cg1 in off and cg2 not in off


def test_mine_closed_rejects_frequent_mode(sample_db):
    with pytest.raises(ValueError):
        mine_closed(sample_db, MiningConfig(min_support=2, mode="frequent"))


def test_emission_is_postorder(sample_db, sample_closed):
    # A closed pattern is settled only once its branch is exhausted, so a
    # closed supergraph discovered in the subtree precedes its closed
    # subgraph prefix in the output.
    index = {tuple(map(tuple, p.code)): p.discovery_index for p in sample_closed}
    assert sorted(index.values()) == list(range(len(index)))
    assert index[tuple(map(tuple, P1))] < index[tuple(map(tuple, P2))]


def test_closed_set_equals_oracle_filter(sample_db, etf_db):
    for db in (sample_db, etf_db):
        mined = key_set(mine_closed(db, MiningConfig(min_support=2, mode="closed")))
        frequent = mine_frequent(db, MiningConfig(min_support=2))
        assert mined == key_set(filter_closed(frequent, db))


# ---------------------------------------------------------- hash table


def index_by_lookup(cght, db):
    """Index the sample's closed patterns through one lookup: they all occur
    in graphs 0 and 1, as the looked-up pattern does."""
    assert cght.buckets == {}
    alpha = DFSCode([(0, 1, W, EA, X), (1, 2, X, ED, Z)])
    early_termination(alpha, project_code(alpha, db), cght)
    assert not any(cght.groups.values())


def test_hash_table_state_matches_worked_example(sample_db, sample_closed):
    cght = build_table(sample_closed)
    index_by_lookup(cght, sample_db)
    names = {tuple(map(tuple, P1)): "p1", tuple(map(tuple, P2)): "p2"}
    state = {
        tuple(sorted(key)): [names[tuple(map(tuple, r.code))] for r in bucket]
        for key, bucket in cght.buckets.items()
    }
    # Keys are sets of (graph id, edge id), both 0-based.
    assert state == {
        ((0, 1), (1, 0)): ["p1"],
        ((0, 2), (1, 1)): ["p1"],
        ((0, 4), (1, 3)): ["p1"],
        ((0, 5), (1, 4)): ["p1", "p2"],
        ((0, 0), (0, 1), (1, 0)): ["p2"],
    }
    assert len(cght.buckets) == 5
    assert len(cght) == 2


def test_create_edge_hash_key_worked_example(sample_db):
    alpha = DFSCode([(0, 1, W, EA, X), (1, 2, X, ED, Z)])
    proj = project_code(alpha, sample_db)
    key = create_edge_hash_key((1, 2), alpha, proj)
    assert key == frozenset({(0, 4), (1, 3)})
    # Either orientation of the edge pair is accepted.
    assert create_edge_hash_key((2, 1), alpha, proj) == key
    with pytest.raises(ValueError):
        create_edge_hash_key((0, 2), alpha, proj)


def test_record_dedup_within_bucket(sample_db, sample_closed):
    cght = build_table(sample_closed)
    index_by_lookup(cght, sample_db)
    for bucket in cght.buckets.values():
        assert len({id(r) for r in bucket}) == len(bucket)


def test_lookup_indexes_only_its_support_set(sample_db):
    # At support 1 the sample's closed patterns fall into several support
    # sets; a lookup indexes the records of its own set and no other.
    closed = mine_closed(sample_db, MiningConfig(min_support=1, mode="closed", emit_embeddings=True))
    cght = build_table(closed)
    assert cght.buckets == {}
    before = {gids: list(records) for gids, records in cght.groups.items()}
    assert len(before) > 1
    alpha = DFSCode([(0, 1, W, EA, X), (1, 2, X, ED, Z)])
    proj = project_code(alpha, sample_db)
    gids = frozenset(c.gid for c in proj)
    early_termination(alpha, proj, cght)
    assert cght.buckets
    assert {frozenset(gid for gid, _ in key) for key in cght.buckets} == {gids}
    assert cght.groups[gids] == []
    assert all(cght.groups[g] == records for g, records in before.items() if g != gids)


# ----------------------------------------------------- early termination


def test_early_termination_worked_example(sample_db, sample_closed):
    cght = build_table(sample_closed)
    alpha = DFSCode([(0, 1, W, EA, X), (1, 2, X, ED, Z)])
    proj = project_code(alpha, sample_db)
    terminate, record, rho = early_termination(alpha, proj, cght)
    assert terminate
    assert tuple(map(tuple, record.code)) == tuple(map(tuple, P1))
    assert rho == (0, 1, 3)


def test_early_termination_empty_table(sample_db):
    alpha = DFSCode([(0, 1, W, EA, X)])
    proj = project_code(alpha, sample_db)
    assert early_termination(alpha, proj, ClosedGraphHashTable()) == (False, None, None)


def test_early_termination_key_miss(sample_db, sample_closed):
    cght = build_table(sample_closed)
    # X-c-S occurs only in graph 0; its edge images hit no stored key.
    alpha = DFSCode([(0, 1, X, 2, S)])
    proj = project_code(alpha, sample_db)
    assert early_termination(alpha, proj, cght)[0] is False


def test_early_termination_no_candidate_when_images_diverge():
    # Three identical graphs: A-x-B plus A-y-C. The pattern A-y-C is stored
    # as a closed record; the two-edge pattern shares its y-edge images, so
    # the bucket is hit, but its embeddings cover vertex B outside the
    # record's image, so no candidate mapping exists.
    text = "\n".join(
        "t # {i}\nv 0 A\nv 1 B\nv 2 C\ne 0 1 x\ne 0 2 y\n".format(i=i) for i in range(3)
    )
    db = parse_dataset_text(text)
    stored = DFSCode([(0, 1, 0, 1, 2)])  # A-y-C
    rec = ClosedGraphRecord(stored, project_code(stored, db), 0)
    cght = ClosedGraphHashTable()
    add_closed_graph(cght, rec)
    s = DFSCode([(0, 1, 0, 0, 1), (0, 2, 0, 1, 2)])  # A(-x-B)(-y-C)
    proj = project_code(s, db)
    assert early_termination(s, proj, cght) == (False, None, None)
    # The oracle agrees nothing covers s.
    assert is_closed(s, db)


def test_early_termination_accepts_equal_vertex_images():
    # Two copies of a 5-path with a chord. The chord graph is discovered
    # and closed before the plain path, has the same vertex set image, and
    # covers the path everywhere; only the termination test can suppress
    # the path, because the chord is not a right-most extension of it.
    text = "".join(
        f"t # {i}\n"
        "v 0 A\nv 1 B\nv 2 C\nv 3 D\nv 4 E\n"
        "e 0 1 x\ne 1 2 x\ne 2 3 x\ne 3 4 x\ne 1 3 x\n"
        for i in range(2)
    )
    db = parse_dataset_text(text)
    path = DFSCode(
        [(0, 1, 0, 0, 1), (1, 2, 1, 0, 2), (2, 3, 2, 0, 3), (3, 4, 3, 0, 4)]
    )
    assert not is_closed(path, db)
    closed = mine_closed(db, MiningConfig(min_support=2, mode="closed", emit_embeddings=True))
    assert tuple(map(tuple, path)) not in key_set(closed)
    # Direct check: the stored cover terminates the path via an equal-size
    # vertex image.
    cght = build_table(closed)
    proj = project_code(path, db)
    terminate, record, rho = early_termination(path, proj, cght)
    assert terminate
    assert record.code.vertex_count == path.vertex_count
    assert sorted(rho) == [0, 1, 2, 3, 4]
    # End to end the whole database yields exactly one closed pattern.
    rep = verify_run(db, MiningConfig(min_support=2, mode="closed"))
    assert rep.ok and rep.mined_count == 1


def test_early_termination_result_is_not_emitted_even_when_rejected():
    # Same chord database: the path triggers termination, the failure trie
    # forces its branch open, and it still must not be emitted because the
    # stored cover proves it is not closed.
    text = "".join(
        f"t # {i}\n"
        "v 0 A\nv 1 B\nv 2 C\nv 3 D\nv 4 E\n"
        "e 0 1 x\ne 1 2 x\ne 2 3 x\ne 3 4 x\ne 1 3 x\n"
        for i in range(2)
    )
    db = parse_dataset_text(text)
    stats = MiningStats()
    closed = mine_closed(db, MiningConfig(min_support=2, mode="closed"), stats)
    assert len(closed) == 1
    assert len(list(closed[0].code)) == 5  # only the full graph survives
    # Every termination on this database is rejected, so the branches stay
    # open; suppression happens at emission time.
    assert stats.early_terminations_rejected > 0
    assert stats.early_terminations_applied == 0


# ------------------------------------------------------------------ trie


def test_trie_membership_is_path_existence():
    trie = DFSCodeTrie()
    assert len(trie) == 0
    code = [(0, 1, 0, 0, 1), (1, 2, 1, 1, 0), (0, 3, 0, 2, 2)]
    trie.insert(code)
    assert len(trie) == 3
    assert code in trie
    assert code[:1] in trie and code[:2] in trie  # prefixes are members
    assert [] not in trie
    assert [(0, 1, 0, 0, 2)] not in trie
    assert trie.walk_depth(code) == 3
    assert trie.walk_depth(code[:2] + [(9, 9, 9, 9, 9)]) == 2
    trie.insert(code)  # idempotent
    assert len(trie) == 3
    trie.insert(code[:2] + [(2, 3, 0, 0, 1)])
    assert len(trie) == 4


# ------------------------------------------------------------ detect_etf


def test_detect_etf_registers_cg1():
    trie = DFSCodeTrie()
    assert detect_etf(CG1, trie)
    assert CG1 in trie
    assert len(trie) == 3


def test_detect_etf_skips_one_edge_codes():
    trie = DFSCodeTrie()
    assert not detect_etf(DFSCode([(0, 1, 0, 0, 1)]), trie)
    assert len(trie) == 0


def test_detect_etf_two_edge_codes_depend_on_remainder():
    trie = DFSCodeTrie()
    # A-x-B-x-A: dropping either leaf leaves an edge the parent already
    # contains, so nothing registers.
    assert not detect_etf(DFSCode([(0, 1, 0, 0, 1), (1, 2, 1, 0, 0)]), trie)
    assert len(trie) == 0
    # A-x-B-y-C: dropping the A leaf leaves B-y-C, absent from the parent
    # A-x-B and canonically later; the code registers.
    code = DFSCode([(0, 1, 0, 0, 1), (1, 2, 1, 1, 2)])
    assert detect_etf(code, trie)
    assert code in trie


def test_detect_etf_registers_on_leaf_deletion():
    # Path A-B-A-B: deleting the middle B leaves an edge the parent holds,
    # but deleting the first A leaves B-A-B, which needs a degree-2 A and
    # cannot embed in the parent path A-B-A; the code registers.
    code = DFSCode([(0, 1, 0, 0, 1), (1, 2, 1, 0, 0), (2, 3, 0, 0, 1)])
    trie = DFSCodeTrie()
    assert detect_etf(code, trie)
    assert code in trie


def test_detect_etf_no_witness_on_triangle():
    # Unlabeled triangle: any deletion leaves a single edge that embeds in
    # the parent path, so nothing registers.
    code = DFSCode([(0, 1, 0, 0, 0), (1, 2, 0, 0, 0), (2, 0, 0, 0, 0)])
    trie = DFSCodeTrie()
    assert not detect_etf(code, trie)
    assert len(trie) == 0


def test_detect_etf_registers_sample_pattern():
    # Deleting the X hub of the 4-edge closed pattern leaves W-f-Z, whose
    # canonical code sorts after the pattern's own; the code registers.
    trie = DFSCodeTrie()
    assert detect_etf(P1, trie)
    assert P1 in trie


# ------------------------------------------------- reject_early_termination


def test_reject_worked_example(etf_db):
    # Termination of X(-a-Y)(-c-Z) via the stored CG1 projects its edges to
    # positions 0 and 2; the full CG1 code is registered, so the walk
    # reaches depth 3 >= n+1 and the termination is rejected.
    db = etf_db
    rec = ClosedGraphRecord(CG1, project_code(CG1, db), 0)
    cght = ClosedGraphHashTable()
    add_closed_graph(cght, rec)
    trie = DFSCodeTrie()
    assert detect_etf(CG1, trie)

    s = DFSCode([(0, 1, 0, 0, 1), (0, 2, 0, 2, 2)])  # X(-a-Y)(-c-Z)
    proj = project_code(s, db)
    terminate, record, rho = early_termination(s, proj, cght)
    assert terminate and record is rec
    assert rho == (0, 1, 3)
    assert reject_early_termination(s, record, rho, trie)


def test_reject_false_when_trie_lacks_the_prefix(etf_db):
    db = etf_db
    rec = ClosedGraphRecord(CG1, project_code(CG1, db), 0)
    cght = ClosedGraphHashTable()
    add_closed_graph(cght, rec)
    s = DFSCode([(0, 1, 0, 0, 1), (0, 2, 0, 2, 2)])
    proj = project_code(s, db)
    terminate, record, rho = early_termination(s, proj, cght)
    assert terminate

    empty = DFSCodeTrie()
    assert not reject_early_termination(s, record, rho, empty)
    other = DFSCodeTrie()
    other.insert([(0, 1, 0, 0, 1), (1, 2, 1, 3, 0)])  # diverges at position 1
    assert not reject_early_termination(s, record, rho, other)


def test_etf_db_end_to_end_rejection_path(etf_db):
    stats = MiningStats()
    mine_closed(etf_db, MiningConfig(min_support=2, mode="closed"), stats)
    assert stats.early_terminations_rejected > 0
    assert stats.trie_size > 0
    # Without failure handling the same terminations apply unchecked.
    stats_off = MiningStats()
    mine_closed(etf_db, MiningConfig(min_support=2, mode="closed_no_etf"), stats_off)
    assert stats_off.early_terminations_applied > 0
    assert stats_off.early_terminations_rejected == 0
    assert stats_off.trie_size == 0


# ------------------------------------------------- ETF witness containment


def embeds_in(pattern, host) -> bool:
    """The witness test of ``detect_etf``: does pattern embed in host?"""
    return next(subgraph_isomorphisms(pattern, host), None) is not None


def test_embeds_in_label_sensitive():
    host = code_to_graph(CG1)
    assert embeds_in(code_to_graph(DFSCode([(0, 1, 0, 0, 1)])), host)  # X-a-Y
    assert not embeds_in(code_to_graph(DFSCode([(0, 1, 0, 3, 1)])), host)  # X-d-Y
    assert embeds_in(host, host)
    bigger = code_to_graph(CG2)
    assert not embeds_in(bigger, code_to_graph(DFSCode([(0, 1, 0, 0, 1)])))


def test_embeds_in_requires_injectivity():
    # Two disjoint X-a-Y edges form a disconnected pattern, which the
    # matcher refuses whatever the host. Injectivity itself is pinned by
    # test_oracle.py::test_embeddings_respect_injectivity.
    pattern = parse_dataset_text(
        "t # 0\nv 0 X\nv 1 Y\nv 2 X\nv 3 Y\ne 0 1 a\ne 2 3 a\n"
    ).graphs[0]
    host = parse_dataset_text("t # 0\nv 0 X\nv 1 Y\ne 0 1 a\n").graphs[0]
    with pytest.raises(ValueError):
        embeds_in(pattern, host)
    with pytest.raises(ValueError):
        embeds_in(pattern, pattern)
    # Connected: Y-a-X-a-Y needs two distinct Ys, and the host has one.
    spokes = parse_dataset_text("t # 0\nv 0 Y\nv 1 X\nv 2 Y\ne 0 1 a\ne 1 2 a\n").graphs[0]
    host3 = parse_dataset_text("t # 0\nv 0 X\nv 1 Y\nv 2 Z\ne 0 1 a\ne 0 2 a\n").graphs[0]
    assert not embeds_in(spokes, host3)
    assert embeds_in(spokes, spokes)


def test_leaf_deletion_failure_regression():
    # Regression: the 2-edge path 0 -e0- 1 -e1- 2 is terminated by a closed
    # tree record covering all of its occurrences, yet two closed patterns
    # have minimum codes passing through it (the record minus its second
    # e0 spoke, and that pattern's extension). Only a leaf-deletion witness
    # registers the record's code, so a witness search that skips degree-1
    # vertices loses both patterns.
    text = (
        "t # 0\nv 0 1\nv 1 0\ne 0 1 1\n"
        "t # 1\nv 0 1\nv 1 1\nv 2 1\nv 3 1\ne 0 1 0\ne 2 3 1\ne 0 2 0\n"
        "t # 2\nv 0 2\nv 1 1\nv 2 0\nv 3 1\nv 4 1\nv 5 1\n"
        "e 2 3 0\ne 0 4 0\ne 3 4 0\ne 0 3 1\ne 4 5 0\ne 0 1 1\ne 1 2 1\ne 1 5 0\n"
        "t # 3\nv 0 1\nv 1 0\nv 2 1\ne 1 2 0\n"
        "t # 4\nv 0 0\nv 1 1\ne 0 1 0\n"
        "t # 5\nv 0 1\nv 1 0\nv 2 2\nv 3 1\nv 4 2\nv 5 1\nv 6 1\nv 7 1\n"
        "e 3 4 1\ne 0 1 0\ne 1 6 0\ne 2 3 1\ne 0 7 0\ne 0 2 1\ne 0 6 0\ne 4 7 1\ne 2 6 1\n"
        "t # 6\nv 0 2\nv 1 2\nv 2 2\nv 3 0\nv 4 1\nv 5 2\ne 1 4 1\ne 2 5 0\ne 0 1 0\n"
        "t # 7\nv 0 2\nv 1 2\nv 2 1\nv 3 0\n"
        "e 0 3 1\ne 1 2 0\ne 1 3 0\ne 0 1 0\ne 0 2 0\ne 2 3 0\n"
    )
    db = parse_dataset_text(text)
    mined = key_set(mine_closed(db, MiningConfig(min_support=2, mode="closed")))
    assert ((0, 1, 0, 0, 1), (1, 2, 1, 1, 2), (2, 3, 2, 1, 1)) in mined
    assert (
        (0, 1, 0, 0, 1),
        (1, 2, 1, 1, 2),
        (2, 3, 2, 1, 1),
        (3, 4, 1, 0, 1),
    ) in mined
    rep = verify_run(db, MiningConfig(min_support=2, mode="closed"))
    assert rep.ok, "\n".join(rep.lines())


# ------------------------------------------------------------ random sweep


def test_closed_mining_matches_oracle_on_random_databases():
    rng = random.Random(17)
    for _ in range(15):
        db = random_database(rng)
        for sup in (2, 3):
            rep = verify_run(db, MiningConfig(min_support=sup, mode="closed"))
            assert rep.ok, "\n".join(rep.lines())


# Seeds of the differential fuzz (seeds 0-7199 at supports 1-3) whose closed
# set differs from the oracle's (ROADMAP open item 1): every one of them at
# support 1, and seeds 3277 and 4843 at support 2 too; the other pairings of
# these seeds agree.
DEFECT_SEEDS = (1227, 1307, 1712, 2079, 2394, 3217, 3242, 3277, 4843, 5026, 5851, 6013, 6330)
DEFECT_RUNS = {(s, 1) for s in DEFECT_SEEDS} | {(3277, 2), (4843, 2)}


def fuzz_database(seed: int):
    """The fuzz generator, in its exact draw order."""
    rng = random.Random(seed)
    nv = rng.choice([1, 2, 3])
    ne = rng.choice([1, 2])
    return random_database(
        rng,
        n_graphs=rng.randint(3, 8),
        max_vertices=rng.randint(4, 9),
        n_vlabels=nv,
        n_elabels=ne,
    )


CLOSED_SET_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="closed set differs from the oracle's at support 1 and on two seeds at support 2"
    " (ROADMAP open item 1)",
)


@pytest.mark.parametrize(
    "seed,sup",
    [
        pytest.param(s, sup, marks=CLOSED_SET_DEFECT if (s, sup) in DEFECT_RUNS else ())
        for s in DEFECT_SEEDS
        for sup in (1, 2, 3)
    ],
)
def test_fuzz_regression_seeds_match_oracle(seed, sup):
    rep = verify_run(fuzz_database(seed), MiningConfig(min_support=sup, mode="closed"))
    assert rep.ok, "\n".join(rep.lines())


# ------------------------------------------------------------ lazy index


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_lazy_lookup_matches_eager_index_on_fuzz(mode, monkeypatch):
    # Reference: every record is filed under each of its edge image sets as
    # it is inserted, and a lookup returns the first record of the pattern's
    # bucket that covers the pattern on its own.
    lookups = hits = 0

    def summary(result):
        terminate, record, rho = result
        return terminate, record and record.discovery_index, rho

    for seed in range(120):
        db = fuzz_database(seed)
        cap = 2 + seed % 2 if seed % 5 == 0 else None
        for sup in (1, 2, 3):
            eager: dict[frozenset, list] = {}

            def spy_insert(cght, record):
                for t in record.code:
                    key = create_edge_hash_key((t[0], t[1]), record.code, record.chains)
                    bucket = eager.setdefault(key, [])
                    if not any(r is record for r in bucket):
                        bucket.append(record)
                return add_closed_graph(cght, record)

            def spy_lookup(code, projected, cght):
                nonlocal lookups, hits
                got = early_termination(code, projected, cght)
                want = (False, None, None)
                for record in eager.get(frozenset((c.gid, c.edge[2]) for c in projected), ()):
                    alone = ClosedGraphHashTable()
                    add_closed_graph(alone, record)
                    result = early_termination(code, projected, alone)
                    if result[0]:
                        want = result
                        break
                assert summary(got) == summary(want), (seed, sup, code)
                lookups += 1
                hits += got[0]
                return got

            monkeypatch.setattr(cgspan, "add_closed_graph", spy_insert)
            monkeypatch.setattr(cgspan, "early_termination", spy_lookup)
            mine_closed(db, MiningConfig(min_support=sup, mode=mode, max_pattern_edges=cap))
            monkeypatch.undo()
    assert lookups > 0 and hits > 0


# ------------------------------------------------------- closure decision


def closure_decisions(db, config, monkeypatch) -> int:
    """Mine ``db`` and hold every closure decision ``leave`` makes to the
    rule it replaced: a pattern is not closed when a stored closed graph
    covers it or some frequent bucket of the *unrestricted* scan extends
    every chain. Returns how many nodes only the walk over the dropped
    tuples settled (no cover, no kept bucket with equivalent occurrence)."""
    terminate, scanned, emitted = {}, [], set()

    def spy_lookup(code, projected, cght):
        result = early_termination(code, projected, cght)
        terminate[tuple(map(tuple, code))] = result[0]
        return result

    def spy_scan(code, projected, db_, *args):
        scanned.append((list(code), projected))
        return rightmost_extensions(code, projected, db_, *args)

    def spy_insert(cght, record):
        emitted.add(tuple(map(tuple, record.code)))
        return add_closed_graph(cght, record)

    monkeypatch.setattr(cgspan, "early_termination", spy_lookup)
    monkeypatch.setattr(gspan, "rightmost_extensions", spy_scan)
    monkeypatch.setattr(cgspan, "add_closed_graph", spy_insert)
    mined = mine_closed(db, config)
    monkeypatch.undo()
    min_freq = config.min_frequency(len(db.graphs))
    assert emitted == key_set(mined)

    walk_only = 0
    for code, projected in scanned:
        key = tuple(map(tuple, code))

        def equivalent(restricted):
            exts = rightmost_extensions(code, projected, db, restricted)
            return any(
                equivalent_occurrence(projected, b)
                for b in exts.values()
                if support(b) >= min_freq
            )

        not_closed = terminate[key] or equivalent(False)
        assert (key in emitted) != not_closed, key
        if not_closed and not terminate[key] and not equivalent(True):
            walk_only += 1
    return walk_only


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_closure_decision_matches_unrestricted_rule_on_sample(sample_db, etf_db, mode, monkeypatch):
    for db in (sample_db, etf_db):
        for sup in (1, 2, 3):
            for cap in (None, 1, 2, 3):
                config = MiningConfig(min_support=sup, mode=mode, max_pattern_edges=cap)
                closure_decisions(db, config, monkeypatch)


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_closure_decision_matches_unrestricted_rule_on_fuzz(mode, monkeypatch):
    alphabets, walk_only = set(), 0
    for seed in range(120):
        db = fuzz_database(seed)
        alphabets.add(len({lbl for g in db.graphs for lbl in g.vlabels}))
        cap = 2 + seed % 2 if seed % 5 == 0 else None
        for sup in (1, 2, 3):
            config = MiningConfig(min_support=sup, mode=mode, max_pattern_edges=cap)
            walk_only += closure_decisions(db, config, monkeypatch)
    assert alphabets == {1, 2, 3}
    if mode == "closed_no_etf":
        assert walk_only > 0


def test_walk_alone_settles_closure(monkeypatch):
    # In mode closed_no_etf every visited node is uncovered; at support 1
    # on fuzz database 0 this 3-edge star has no kept bucket with
    # equivalent occurrence, yet a tuple the restricted scan drops extends
    # every chain, so it is not closed.
    db = fuzz_database(0)
    code = DFSCode([(0, 1, 0, 1, 0), (1, 2, 0, 1, 1), (1, 3, 0, 1, 1)])
    projected = project_code(code, db)
    kept = rightmost_extensions(code, projected, db)
    assert not any(equivalent_occurrence(projected, b) for b in kept.values())
    assert dropped_extension_covers(code, projected, db)
    mined = key_set(mine_closed(db, MiningConfig(min_support=1, mode="closed_no_etf")))
    assert tuple(map(tuple, code)) not in mined
    assert closure_decisions(db, MiningConfig(min_support=1, mode="closed_no_etf"), monkeypatch) > 0


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_closed_mining_scans_restricted(sample_db, etf_db, mode, monkeypatch):
    calls = []

    def spy(code, projected, db_, *args, **kwargs):
        calls.append((args, kwargs))
        return rightmost_extensions(code, projected, db_, *args, **kwargs)

    monkeypatch.setattr(gspan, "rightmost_extensions", spy)
    for db in (sample_db, etf_db, fuzz_database(0)):
        for sup in (1, 2):
            mine_closed(db, MiningConfig(min_support=sup, mode=mode))
    assert calls
    for args, kwargs in calls:
        assert args in ((), (True,)) and kwargs in ({}, {"restricted": True})
