import random

import pytest

from graphmine import cgspan, gspan
from graphmine.dfscode import DFSCode, child_sort_key, code_to_graph, is_min
from graphmine.embeddings import (
    Bucket,
    containing_graphs,
    frequent_single_edges,
    project_code,
    rightmost_extensions,
    vertex_maps,
)
from graphmine.graphs import GraphDatabase, LabeledGraph, subgraph_isomorphisms
from graphmine.gspan import MODES, MiningConfig, MiningStats, mine_frequent

from conftest import (
    EA,
    EB,
    ED,
    EF,
    P1,
    P2,
    W,
    X,
    Y,
    Z,
    as_bucket,
    assert_links_match,
    bucket_hits,
    calls,
    code_key,
    fuzz_database,
    mine,
    random_database,
    read_hit,
    record_run,
    reference_rightmost_extensions,
    support_of,
)


# Reference vertex map: a hit read into its full edge list. The package
# reads hits from a per-code plan and scans in one pass; the differential
# tests below hold it to this and to conftest's reference scan.


def reference_vertex_map(code, bucket, i):
    _, edges = read_hit(bucket, i)
    n = max(max(t[0], t[1]) for t in code) + 1
    vmap = [0] * n
    for t, e in zip(code, edges):
        vmap[t[0]] = e[0]
        vmap[t[1]] = e[1]
    return vmap


def test_frequent_single_edges_order_and_support(sample_db):
    roots = frequent_single_edges(sample_db, 2)
    codes = [tuple(code[0]) for code, _ in roots]
    assert codes == [
        (0, 1, W, EA, X),
        (0, 1, W, EF, Z),
        (0, 1, X, EB, Y),
        (0, 1, X, ED, Z),
    ]
    by_code = {tuple(code[0]): bucket for code, bucket in roots}
    assert len(by_code[(0, 1, W, EA, X)]) == 3
    assert by_code[(0, 1, W, EA, X)].support() == 2
    assert len(by_code[(0, 1, W, EF, Z)]) == 2
    # Infrequent labels (c to S, e to T) are filtered out.
    assert len(roots) == 4
    # Every hit is a half-edge of the graph its parent index names: the
    # roots share the empty pattern's bucket, whose only column is the
    # graph ids. No root has a graph-id column before it is visited.
    (empty,) = {id(bucket.parent): bucket.parent for _, bucket in roots}.values()
    assert empty.parent is None and len(empty) == 0 and empty.gids == [0, 1]
    for _, bucket in roots:
        assert bucket.gids is None
        for gid, e in zip(bucket.prevs, bucket.edges):
            assert e in sample_db.graphs[gid].adj[e[0]]
    assert {gid for _, bucket in roots for gid in bucket.prevs} == {0, 1}


def test_occurrence_counts_of_sample_patterns(sample_db):
    assert len(project_code(P1, sample_db)) == 2
    assert len(project_code(P2, sample_db)) == 3
    assert len(containing_graphs(project_code(P2, sample_db))) == 2
    assert containing_graphs(project_code(P1, sample_db)) == (0, 1)


def test_project_code_of_a_first_tuple_the_seeding_never_writes(sample_db):
    # The seeding writes each edge from its smaller label, so X-a-W has no
    # hit although W-a-X has three.
    assert len(project_code(DFSCode([(0, 1, W, EA, X)]), sample_db)) == 3
    assert project_code(DFSCode([(0, 1, X, EA, W)]), sample_db) is None
    assert project_code(DFSCode([(0, 1, X, EA, W), (1, 2, W, EF, Z)]), sample_db) is None


def test_project_code_matches_oracle_counts(sample_db):
    for code in (P1, P2):
        total = sum(
            len(list(subgraph_isomorphisms(code_to_graph(code), g))) for g in sample_db
        )
        assert len(project_code(code, sample_db)) == total


def test_vertex_map_and_chain_edges(sample_db):
    bucket = project_code(P2, sample_db)
    for i, vm in enumerate(vertex_maps(P2, bucket)):
        assert vm == next(vertex_maps(P2, bucket, [i]))
        gid, edges = read_hit(bucket, i)
        assert gid == bucket.gids[i]
        g = sample_db.graphs[gid]
        assert g.vlabels[vm[0]] == W and g.vlabels[vm[1]] == X and g.vlabels[vm[2]] == Z
        assert len(edges) == 2
        # Edge records are (frm, to, eid, elb) in code order.
        assert edges[0][3] == EA and edges[1][3] == EF


def assert_scan_matches_reference(code, projected, db, got, sources=None, min_freq=None) -> int:
    """The scan ``got`` of one node equals the reference: the same bucket
    keys and, per bucket, the same support and the same (gid, edge,
    parent index) sequence of hits; and every hit's vertex map equals the
    reference's.

    With inherited ``sources`` the scan may omit a key, but only one whose
    reference support is below ``min_freq``, so the kept buckets (support
    >= ``min_freq``) equal the reference's kept buckets hit by hit, and
    so does every bucket it builds. Returns the number of keys omitted."""
    want = reference_rightmost_extensions(code, projected, db)
    if sources is None:
        assert got.keys() == want.keys()
    else:
        assert got.keys() <= want.keys()
        for t in want.keys() - got.keys():
            assert support_of(want[t]) < min_freq, t
        kept = {t for t, b in got.items() if b.support() >= min_freq}
        assert kept == {t for t, hits in want.items() if support_of(hits) >= min_freq}
    for t, bucket in got.items():
        assert bucket.support() == support_of(want[t])
        assert_links_match(bucket, want[t])
    assert list(vertex_maps(code, projected)) == [
        tuple(reference_vertex_map(code, projected, i)) for i in range(len(projected))
    ]
    return len(want) - len(got)


def check_every_visited_node(db) -> tuple[int, int]:
    """Mine frequent and closed patterns at supports 1-3, comparing every
    scan the search makes with the reference. Returns the number of nodes
    checked and of keys the inherited sources omitted."""
    nodes = omitted = 0
    for sup in (1, 2, 3):
        for mode in ("frequent", "closed"):
            events, _ = record_run(db, MiningConfig(min_support=sup, mode=mode))
            for code, (projected, sources, exts) in calls(events, "scan"):
                nodes += 1
                omitted += assert_scan_matches_reference(code, projected, db, exts, sources, sup)
    return nodes, omitted


def test_scan_matches_reference_on_sample(sample_db):
    nodes, omitted = check_every_visited_node(sample_db)
    assert nodes > 0 and omitted > 0


@pytest.mark.parametrize("n_vlabels", [1, 2, 3])
def test_scan_matches_reference_on_random_databases(n_vlabels):
    rng = random.Random(60 + n_vlabels)
    for _ in range(8):
        db = random_database(rng, n_graphs=rng.randint(3, 6), max_vertices=6, n_vlabels=n_vlabels)
        check_every_visited_node(db)


def test_rightmost_extensions_of_root(sample_db):
    root = DFSCode([(0, 1, W, EA, X)])
    proj = project_code(root, sample_db)
    exts = reference_rightmost_extensions(root, proj, sample_db, restricted=False)
    # Growth from both root vertices: forward only, no backward possible.
    assert all(t[0] < t[1] for t in exts)
    assert (1, 2, X, EB, Y) in exts
    assert (1, 2, X, ED, Z) in exts
    assert (0, 2, W, EF, Z) in exts
    # Each hit names the parent hit it extends.
    hits = exts[(1, 2, X, EB, Y)]
    assert support_of(hits) == 2 and len(hits) == 2
    assert {prev for _, _, prev in hits} < set(range(len(proj)))


def test_restricted_extensions_drop_smaller_vertex_labels(sample_db):
    # Root X-d-Z: growing Z-f-W reaches label W < X, which can never appear
    # in a minimum code rooted at X; restriction drops it, unrestricted
    # enumeration keeps it.
    root = DFSCode([(0, 1, X, ED, Z)])
    proj = project_code(root, sample_db)
    unrestricted = set(reference_rightmost_extensions(root, proj, sample_db, restricted=False))
    restricted = set(rightmost_extensions(root, proj, sample_db))
    assert (1, 2, Z, EF, W) in unrestricted
    assert (1, 2, Z, EF, W) not in restricted
    assert restricted < unrestricted


def test_inherited_sources_drop_only_unlisted_path_sources(sample_db):
    # Vertex 0 of W-a-X is a right-most path source and vertex 1 the
    # right-most vertex: a parent's forward tuple may just have introduced
    # it, so the scan reads it whatever ``sources`` holds.
    root = DFSCode([(0, 1, W, EA, X)])
    proj = project_code(root, sample_db)
    full = rightmost_extensions(root, proj, sample_db)
    assert {t[0] for t in full} == {0, 1}
    for sources in (set(), {0}, {1}, {0, 1}):
        got = rightmost_extensions(root, proj, sample_db, sources)
        assert got.keys() == {t for t in full if t[0] == 1 or t[0] in sources}
        for t, bucket in got.items():
            assert_links_match(bucket, bucket_hits(full[t]))


class WatchedAdjacency(list):
    """One vertex's adjacency list, recording each time it is iterated."""

    def __init__(self, half_edges, reads, v):
        super().__init__(half_edges)
        self.reads = reads
        self.v = v

    def __iter__(self):
        self.reads.append(self.v)
        return super().__iter__()


def test_saturated_sources_are_never_read():
    # A path 0-1-2-3 with four vertex labels, and a one-label triangle. A
    # source whose image has no edge outside the code yields no hit, and
    # the scan does not read its adjacency at all.
    path, triangle = LabeledGraph(), LabeledGraph()
    for lbl in (0, 1, 2, 3):
        path.add_vertex(lbl)
    for u in range(3):
        path.add_edge(u, u + 1, 0)
    for _ in range(3):
        triangle.add_vertex(0)
    for u, v in ((0, 1), (1, 2), (2, 0)):
        triangle.add_edge(u, v, 0)
    steps = [(0, 1, 0, 0, 1), (1, 2, 1, 0, 2), (2, 3, 2, 0, 3)]
    cases = [
        # Vertices 0 and 1 are saturated; the right-most vertex 2 is not.
        (path, steps[:2], {(2, 3, 2, 0, 3)}, [2]),
        # Every vertex is saturated.
        (path, steps, set(), []),
        # The closing edge saturates the right-most vertex: no backward
        # edge is left either.
        (triangle, [(0, 1, 0, 0, 0), (1, 2, 0, 0, 0), (2, 0, 0, 0, 0)], set(), []),
    ]
    for g, code, want, read in cases:
        db = GraphDatabase([g])
        code = DFSCode(code)
        proj = project_code(code, db)
        assert len(proj) >= 1
        assert set(reference_rightmost_extensions(code, proj, db)) == want
        reads = []
        adj = g.adj
        g.adj = [WatchedAdjacency(a, reads, v) for v, a in enumerate(adj)]
        try:
            assert set(rightmost_extensions(code, proj, db)) == want
        finally:
            g.adj = adj
        assert reads == read


def assert_restriction_drops_only_non_minimal(db, max_edges=None):
    """The scan is gSpan's search unchanged only if each right-most tuple it
    drops fails is_min and each bucket it keeps holds the same embeddings as
    the reference's unrestricted one. (The closure check still reads the
    dropped tuples, through ``cgspan.equivalent_occurrence``'s walk.) With
    ``max_edges`` only the patterns of at most that many edges are checked."""
    for p in mine_frequent(db, MiningConfig(min_support=1)):
        if max_edges is not None and len(p.code) > max_edges:
            continue
        code = list(p.code)
        projected = project_code(code, db)
        full = reference_rightmost_extensions(code, projected, db, restricted=False)
        kept = rightmost_extensions(code, projected, db)
        assert kept.keys() <= full.keys()
        for t, bucket in kept.items():
            assert_links_match(bucket, full[t])
        for t in full.keys() - kept.keys():
            assert not is_min(code + [t])


def test_restricted_scan_drops_only_non_minimal_tuples(sample_db):
    assert_restriction_drops_only_non_minimal(sample_db)


def test_restricted_scan_drops_only_non_minimal_tuples_one_label():
    rng = random.Random(5)
    for _ in range(6):
        db = random_database(rng, n_graphs=3, max_vertices=6, n_vlabels=1, n_elabels=rng.choice([1, 2]))
        assert_restriction_drops_only_non_minimal(db, max_edges=4)


def check_infrequent_buckets_not_equivalent(db) -> int:
    """The search keeps only frequent buckets, closure check included: a
    bucket below the threshold must never extend every parent embedding.
    Returns the number of infrequent buckets checked."""
    infrequent = 0
    for sup in (2, 3):
        for p in mine_frequent(db, MiningConfig(min_support=sup)):
            projected = project_code(p.code, db)
            exts = reference_rightmost_extensions(list(p.code), projected, db, restricted=False)
            for hits in exts.values():
                if support_of(hits) < sup:
                    infrequent += 1
                    assert not as_bucket(projected, hits).covers_parent()
    return infrequent


def test_infrequent_buckets_never_have_equivalent_occurrence(sample_db):
    assert check_infrequent_buckets_not_equivalent(sample_db) > 0


def test_infrequent_buckets_never_have_equivalent_occurrence_one_label():
    rng = random.Random(11)
    infrequent = 0
    for _ in range(6):
        db = random_database(rng, n_graphs=4, max_vertices=6, n_vlabels=1, n_elabels=rng.choice([1, 2]))
        infrequent += check_infrequent_buckets_not_equivalent(db)
    assert infrequent > 0


def test_equivalent_occurrence_true_and_false(sample_db):
    root = DFSCode([(0, 1, W, EA, X)])
    proj = project_code(root, sample_db)
    exts = reference_rightmost_extensions(root, proj, sample_db, restricted=False)
    scanned = rightmost_extensions(root, proj, sample_db)
    for t in ((0, 2, W, EF, Z), (1, 2, X, EB, Y)):
        assert_links_match(scanned[t], exts[t])
        assert_links_match(as_bucket(proj, exts[t]), exts[t])
    # Every W-a-X occurrence extends by W-f-Z (three of three).
    assert scanned[(0, 2, W, EF, Z)].covers_parent()
    assert as_bucket(proj, exts[(0, 2, W, EF, Z)]).covers_parent()
    # Only two of three extend by X-b-Y.
    assert not scanned[(1, 2, X, EB, Y)].covers_parent()
    assert not as_bucket(proj, exts[(1, 2, X, EB, Y)]).covers_parent()


def test_equivalent_occurrence_rejects_a_partial_bucket_by_length(sample_db):
    root = DFSCode([(0, 1, W, EA, X)])
    proj = project_code(root, sample_db)
    partial = rightmost_extensions(root, proj, sample_db)[(1, 2, X, EB, Y)]
    assert len(partial) < len(proj)
    assert not partial.covers_parent()


def test_hooks_emit_and_scan_get_the_node_bucket(sample_db, monkeypatch):
    # The bucket a scan or the seeding files a child's hits in is the
    # child's embedding list: the search visits that very object, and
    # ``enter``, the scan, ``settle`` and ``emit`` all get it. A hit is an
    # int parent index and one of the graph's own half-edges, so nothing is
    # built per embedding.
    seen, filed = [], {}
    real_search, real_scan, real_seed = gspan.search, gspan.rightmost_extensions, gspan.frequent_single_edges

    def search(db, config, stats, enter, settle):
        def spy_enter(code, projected):
            seen.append(("enter", code_key(code), projected))
            return enter(code, projected)

        def spy_settle(code, projected, exts, emit):
            def spy_emit(code, projected):
                seen.append(("emit", code_key(code), projected))
                return emit(code, projected)

            seen.append(("settle", code_key(code), projected))
            return settle(code, projected, exts, spy_emit)

        return real_search(db, config, stats, spy_enter, spy_settle)

    def scan(code, projected, db, sources=None):
        seen.append(("scan", code_key(code), projected))
        exts = real_scan(code, projected, db, sources)
        filed.update((code_key(code) + (t,), b) for t, b in exts.items())
        return exts

    def seed(db, min_freq):
        roots = real_seed(db, min_freq)
        filed.update((code_key(c), b) for c, b in roots)
        return roots

    for owner, name, fn in (
        (gspan, "search", search),
        (cgspan, "search", search),
        (gspan, "rightmost_extensions", scan),
        (gspan, "frequent_single_edges", seed),
    ):
        monkeypatch.setattr(owner, name, fn)
    kinds = set()
    for db in (sample_db, fuzz_database(3)):
        for config in (MiningConfig(min_support=sup, mode=mode) for mode in MODES for sup in (1, 2)):
            seen.clear()
            filed.clear()
            mine(db, config)
            node = None
            for kind, code, projected in seen:
                kinds.add(kind)
                if kind != "enter":
                    assert projected is node, (kind, code)
                    continue
                node = projected
                assert type(node) is Bucket and node is filed[code]
                assert len(node.prevs) == len(node.edges) == len(node.gids) == len(node)
                assert all(type(i) is int for i in node.prevs + node.gids)
                for gid, e in zip(node.gids, node.edges):
                    assert any(h is e for h in db.graphs[gid].adj[e[0]])
    assert kinds == {"enter", "scan", "settle", "emit"}


def visited_buckets(db, min_support) -> int:
    """Run the search with hooks that check, at every visit, that only the
    visited buckets have a graph-id column: the node's is filled, and
    right, and every bucket the seeding or a scan filed that the search has
    not visited yet, on the stack or never to be pushed, has none. Returns
    how many frequent children were never visited: those that failed
    is_min."""
    config = MiningConfig(min_support=min_support)
    filed: list = []
    visited: set[int] = set()
    real_scan, real_seed = gspan.rightmost_extensions, gspan.frequent_single_edges

    def seed(db_, min_freq):
        roots = real_seed(db_, min_freq)
        filed.extend(b for _, b in roots)
        return roots

    def scan(code, projected, db_, sources=None):
        exts = real_scan(code, projected, db_, sources)
        filed.extend(exts.values())
        return exts

    def enter(code, projected):
        visited.add(id(projected))
        assert projected.gids == [read_hit(projected, i)[0] for i in range(len(projected))]
        assert all(b.gids is None for b in filed if id(b) not in visited), code
        return False

    def settle(code, projected, exts, emit):
        emit(code, projected)

    gspan.frequent_single_edges, gspan.rightmost_extensions = seed, scan
    try:
        stats = MiningStats()
        mined = gspan.search(db, config, stats, enter, settle)
    finally:
        gspan.frequent_single_edges, gspan.rightmost_extensions = real_seed, real_scan
    assert stats.visited_nodes == len(mined) == len(visited)
    assert sum(b.gids is not None for b in filed) == len(visited) < len(filed)
    min_freq = config.min_frequency(len(db.graphs))
    return sum(id(b) not in visited and b.support() >= min_freq for b in filed)


def test_mining_gives_gids_only_to_visited_buckets(sample_db):
    visited_buckets(sample_db, 2)


def test_no_child_that_fails_is_min_gets_gids():
    rng = random.Random(8)
    rejected = 0
    for _ in range(4):
        db = random_database(rng, n_graphs=4, max_vertices=6, n_vlabels=1)
        rejected += visited_buckets(db, 2)
    assert rejected > 0


def visited_nodes(db, config) -> list[tuple[tuple, Bucket]]:
    """Mine, and return each node the search visits with its bucket, in
    visit order: the ``enter`` calls, which every visit makes first in
    every mode."""
    events, _ = record_run(db, config)
    return [(code, projected) for code, (projected, _) in calls(events, "enter")]


def test_project_code_matches_mining_embeddings(sample_db):
    nodes = visited_nodes(sample_db, MiningConfig(min_support=2))
    assert nodes
    for code, mined in nodes:
        bucket = project_code(code, sample_db)
        got = list(zip(bucket.gids, vertex_maps(code, bucket)))
        expected = list(zip(mined.gids, vertex_maps(code, mined)))
        assert got == expected


@pytest.mark.parametrize("mode", ["frequent", "closed", "closed_no_etf"])
def test_emitted_embeddings_are_linked_chains(sample_db, etf_db, mode):
    # The miners keep no embeddings in their output; ``project_code``
    # rebuilds them. Every node's bucket must be what it rebuilds: the same
    # graph ids and vertex maps in the same order, each hit linked to its
    # prefix's hit by one parent index per code tuple, up to its own graph
    # in the empty pattern's bucket, and each edge a half-edge of that
    # graph.
    dbs = [sample_db, etf_db] + [fuzz_database(seed) for seed in range(0, 200, 4)]
    nodes = 0
    for db in dbs:
        for sup in (1, 2, 3):
            config = MiningConfig(min_support=sup, mode=mode)
            for code, bucket in visited_nodes(db, config):
                nodes += 1
                want = project_code(code, db)
                assert bucket.gids == want.gids
                assert list(vertex_maps(code, bucket)) == list(vertex_maps(code, want))
                for i, gid in enumerate(bucket.gids):
                    b = bucket
                    for _ in code:
                        assert type(b) is Bucket and b.edges[i] in db.graphs[gid].adj[b.edges[i][0]]
                        i, b = b.prevs[i], b.parent
                    assert type(b) is Bucket and b.parent is None and len(b) == 0
                    assert b.gids[i] == gid
    assert nodes > 0


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_chains_have_pairwise_distinct_vertex_maps(sample_db, etf_db, mode):
    # The closed-graph lookup tries each pattern map of the reference graph
    # as a rho without deduplicating: it relies on no two hits of a node,
    # and so of a record, sharing a vertex map in one graph. Hits in
    # different graphs may share one.
    nodes = 0
    for db in [sample_db, etf_db] + [fuzz_database(seed) for seed in range(120)]:
        for sup in (1, 2, 3):
            config = MiningConfig(min_support=sup, mode=mode)
            for code, bucket in visited_nodes(db, config):
                maps = zip(bucket.gids, vertex_maps(code, bucket))
                assert len(set(maps)) == len(bucket)
                nodes += 1
    assert nodes > 0


def test_child_sort_key_orders_backward_first():
    backward = (3, 0, 4, 4, 0)
    fwd_deep = (1, 3, 1, 3, 4)
    fwd_shallow = (0, 3, 0, 4, 4)
    ordered = sorted([fwd_shallow, fwd_deep, backward], key=child_sort_key)
    assert ordered == [backward, fwd_deep, fwd_shallow]


def test_counting_matches_oracle_on_random_databases():
    rng = random.Random(99)
    for _ in range(8):
        db = random_database(rng)
        mined = mine_frequent(db, MiningConfig(min_support=2))
        for p in mined:
            brute = sum(len(list(subgraph_isomorphisms(code_to_graph(p.code), g))) for g in db)
            brute_graphs = [
                gid
                for gid, g in enumerate(db)
                if list(subgraph_isomorphisms(code_to_graph(p.code), g))
            ]
            assert p.occurrence == brute
            assert p.support == len(brute_graphs)
            assert p.containing_graphs == tuple(brute_graphs)
