import random

import pytest

from graphmine import embeddings
from graphmine.dfscode import DFSCode, child_sort_key, code_to_graph, is_min
from graphmine.embeddings import (
    Embedding,
    containing_graphs,
    equivalent_occurrence,
    frequent_single_edges,
    project_code,
    rightmost_extensions,
    vertex_maps,
)
from graphmine.graphs import GraphDatabase, LabeledGraph, subgraph_isomorphisms
from graphmine.gspan import MiningConfig, mine_frequent

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
    calls,
    chain_edges,
    fuzz_database,
    random_database,
    record_run,
    reference_rightmost_extensions,
)


# Reference vertex map: a chain read into its full edge list. The package
# reads chains from a per-code plan and scans in one pass; the differential
# tests below hold it to this and to conftest's reference scan.


def reference_vertex_map(code, emb):
    edges = chain_edges(emb, len(code))
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
    # Every hit is a half-edge of its graph under that graph's empty chain,
    # one chain object per graph.
    empty = {}
    for _, bucket in roots:
        for prev, e in zip(bucket.prevs, bucket.edges):
            assert type(prev) is Embedding and prev.edge is None and prev.prev is None
            assert empty.setdefault(prev.gid, prev) is prev
            assert e in sample_db.graphs[prev.gid].adj[e[0]]
    assert sorted(empty) == [0, 1]


def test_occurrence_counts_of_sample_patterns(sample_db):
    assert len(project_code(P1, sample_db)) == 2
    assert len(project_code(P2, sample_db)) == 3
    assert len(containing_graphs(project_code(P2, sample_db))) == 2
    assert containing_graphs(project_code(P1, sample_db)) == (0, 1)


def test_project_code_of_a_first_tuple_the_seeding_never_writes(sample_db):
    # The seeding writes each edge from its smaller label, so X-a-W has no
    # chain although W-a-X has three.
    assert len(project_code(DFSCode([(0, 1, W, EA, X)]), sample_db)) == 3
    assert project_code(DFSCode([(0, 1, X, EA, W)]), sample_db) == []
    assert project_code(DFSCode([(0, 1, X, EA, W), (1, 2, W, EF, Z)]), sample_db) == []


def test_project_code_matches_oracle_counts(sample_db):
    for code in (P1, P2):
        total = sum(
            len(list(subgraph_isomorphisms(code_to_graph(code), g))) for g in sample_db
        )
        assert len(project_code(code, sample_db)) == total


def test_vertex_map_and_chain_edges(sample_db):
    chains = project_code(P2, sample_db)
    for c in chains:
        vm = vertex_maps(P2, [c])[0]
        g = sample_db.graphs[c.gid]
        assert g.vlabels[vm[0]] == W and g.vlabels[vm[1]] == X and g.vlabels[vm[2]] == Z
        edges = chain_edges(c, len(P2))
        assert len(edges) == 2
        # Edge records are (frm, to, eid, elb) in code order.
        assert edges[0][3] == EA and edges[1][3] == EF


def assert_scan_matches_reference(code, projected, db, got, sources=None, min_freq=None) -> int:
    """The scan ``got`` of one node equals the reference: the same bucket
    keys and, per bucket, as many hits as reference chains, the same
    support, and links with the same (gid, edge, parent chain) sequence;
    and every chain's vertex map equals the reference's.

    With inherited ``sources`` the scan may omit a key, but only one whose
    reference support is below ``min_freq``, so the kept buckets (support
    >= ``min_freq``) equal the reference's kept buckets link by link, and
    so does every bucket it builds. Returns the number of keys omitted."""
    want = reference_rightmost_extensions(code, projected, db)
    if sources is None:
        assert got.keys() == want.keys()
    else:
        assert got.keys() <= want.keys()
        for t in want.keys() - got.keys():
            assert len(containing_graphs(want[t])) < min_freq, t
        kept = {t for t, b in got.items() if b.support() >= min_freq}
        assert kept == {t for t, c in want.items() if len(containing_graphs(c)) >= min_freq}
    for t, bucket in got.items():
        assert bucket.support() == len(containing_graphs(want[t]))
        assert_links_match(bucket, want[t])
    assert vertex_maps(code, projected) == [tuple(reference_vertex_map(code, c)) for c in projected]
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
    # Bucket contents are child embeddings chained onto parents.
    bucket = exts[(1, 2, X, EB, Y)]
    assert len(containing_graphs(bucket)) == 2 and len(bucket) == 2


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
            assert_links_match(bucket, full[t].link())


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
    dropped tuples, through ``dropped_extension_covers``.) With
    ``max_edges`` only the patterns of at most that many edges are checked."""
    for p in mine_frequent(db, MiningConfig(min_support=1)):
        if max_edges is not None and len(p.code) > max_edges:
            continue
        code = list(p.code)
        chains = project_code(code, db)
        full = reference_rightmost_extensions(code, chains, db, restricted=False)
        kept = rightmost_extensions(code, chains, db)
        assert kept.keys() <= full.keys()
        for t, bucket in kept.items():
            same = [(e.gid, e.edge, id(e.prev)) for e in full[t]]
            assert len(bucket) == len(same)
            assert [(e.gid, e.edge, id(e.prev)) for e in bucket.link()] == same
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
            chains = project_code(p.code, db)
            exts = reference_rightmost_extensions(list(p.code), chains, db, restricted=False)
            for bucket in exts.values():
                if len(containing_graphs(bucket)) < sup:
                    infrequent += 1
                    assert not equivalent_occurrence(chains, as_bucket(bucket))
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
        assert_links_match(as_bucket(exts[t]), exts[t])
    # Every W-a-X occurrence extends by W-f-Z (three of three).
    assert equivalent_occurrence(proj, scanned[(0, 2, W, EF, Z)])
    assert equivalent_occurrence(proj, as_bucket(exts[(0, 2, W, EF, Z)]))
    # Only two of three extend by X-b-Y.
    assert not equivalent_occurrence(proj, scanned[(1, 2, X, EB, Y)])
    assert not equivalent_occurrence(proj, as_bucket(exts[(1, 2, X, EB, Y)]))


def test_equivalent_occurrence_rejects_a_partial_bucket_by_length(sample_db):
    root = DFSCode([(0, 1, W, EA, X)])
    proj = project_code(root, sample_db)
    partial = rightmost_extensions(root, proj, sample_db)[(1, 2, X, EB, Y)]
    assert len(partial) < len(proj)
    assert not equivalent_occurrence(proj, partial)
    # Fewer chains than the parent settle it before any link is read.
    assert not equivalent_occurrence(proj, [object()] * (len(proj) - 1))


class CountingEmbedding(Embedding):
    """Counts every chain link the package builds while it is patched in."""

    __slots__ = ()
    built = 0

    def __init__(self, gid, edge, prev):
        CountingEmbedding.built += 1
        super().__init__(gid, edge, prev)


def count_links(monkeypatch):
    """Patch the link class the package builds with; returns the counter."""
    monkeypatch.setattr(embeddings, "Embedding", CountingEmbedding)
    CountingEmbedding.built = 0
    return CountingEmbedding


def test_scan_builds_no_link(sample_db, monkeypatch):
    mined = mine_frequent(sample_db, MiningConfig(min_support=1))
    nodes = [(list(p.code), project_code(p.code, sample_db)) for p in mined]
    counter = count_links(monkeypatch)
    hits = 0
    for code, chains in nodes:
        counter.built = 0
        scanned = rightmost_extensions(code, chains, sample_db)
        assert counter.built == 0
        hits += sum(map(len, scanned.values()))
        for bucket in scanned.values():
            before = counter.built
            assert all(type(e) is CountingEmbedding for e in bucket.link())
            assert counter.built - before == len(bucket)
    assert hits > 0


def links_built_by_mining(db, min_support, monkeypatch) -> int:
    """Mine frequent patterns with every link counted, and check the count:
    the seeding builds one empty chain per graph; after that a bucket, a
    root's included, is linked only for a node that passes is_min, so every
    other chain built is a chain of an emitted pattern. Returns how many
    children failed is_min, unlinked."""
    counter = count_links(monkeypatch)
    events, mined = record_run(db, MiningConfig(min_support=min_support))
    monkeypatch.undo()
    assert counter.built == len(db.graphs) + sum(p.occurrence for p in mined)
    # Infrequent buckets and children that fail is_min are never linked.
    hits = sum(len(b) for _, (_, _, exts) in calls(events, "scan") for b in exts.values())
    assert sum(p.occurrence for p in mined if len(p.code) >= 2) < hits
    return sum(not minimal for _, minimal in calls(events, "is_min"))


def test_mining_links_only_visited_children(sample_db, monkeypatch):
    links_built_by_mining(sample_db, 2, monkeypatch)


def test_mining_links_no_child_that_fails_is_min(monkeypatch):
    rng = random.Random(8)
    rejected = 0
    for _ in range(4):
        db = random_database(rng, n_graphs=4, max_vertices=6, n_vlabels=1)
        rejected += links_built_by_mining(db, 2, monkeypatch)
    assert rejected > 0


def visited_nodes(db, config) -> list[tuple[tuple, list]]:
    """Mine, and return each node the search visits with the chain list it
    linked for it, in visit order: the ``enter`` calls, which every visit
    makes first in every mode."""
    events, _ = record_run(db, config)
    return [(code, projected) for code, (projected, _) in calls(events, "enter")]


def test_project_code_matches_mining_embeddings(sample_db):
    nodes = visited_nodes(sample_db, MiningConfig(min_support=2))
    assert nodes
    for code, mined in nodes:
        chains = project_code(code, sample_db)
        got = list(zip([c.gid for c in chains], vertex_maps(code, chains)))
        expected = list(zip([c.gid for c in mined], vertex_maps(code, mined)))
        assert got == expected


@pytest.mark.parametrize("mode", ["frequent", "closed", "closed_no_etf"])
def test_emitted_embeddings_are_linked_chains(sample_db, etf_db, mode):
    # The miners keep no chains in their output; ``project_code`` rebuilds
    # them. Every node's list must be what it rebuilds: the same graph ids
    # and vertex maps in the same order, each an Embedding chain with one
    # link per code tuple that ends at its graph's empty chain.
    dbs = [sample_db, etf_db] + [fuzz_database(seed) for seed in range(0, 200, 4)]
    nodes = 0
    for db in dbs:
        for sup in (1, 2, 3):
            config = MiningConfig(min_support=sup, mode=mode)
            for code, chains in visited_nodes(db, config):
                nodes += 1
                want = project_code(code, db)
                assert [c.gid for c in chains] == [c.gid for c in want]
                assert vertex_maps(code, chains) == vertex_maps(code, want)
                for c in chains:
                    gid = c.gid
                    for _ in code:
                        assert type(c) is Embedding and c.gid == gid and c.edge is not None
                        c = c.prev
                    assert type(c) is Embedding and c.gid == gid
                    assert c.edge is None and c.prev is None
    assert nodes > 0


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_chains_have_pairwise_distinct_vertex_maps(sample_db, etf_db, mode):
    # The closed-graph lookup tries each pattern map of the reference graph
    # as a rho without deduplicating: it relies on no two chains of a node,
    # and so of a record, sharing a vertex map in one graph. Chains in
    # different graphs may share one.
    nodes = 0
    for db in [sample_db, etf_db] + [fuzz_database(seed) for seed in range(120)]:
        for sup in (1, 2, 3):
            config = MiningConfig(min_support=sup, mode=mode)
            for code, chains in visited_nodes(db, config):
                maps = zip([c.gid for c in chains], vertex_maps(code, chains))
                assert len(set(maps)) == len(chains)
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
