import re
from itertools import permutations

import pytest

from graphmine.datasets import dump_dataset, parse_dataset_text, write_patterns
from graphmine.graphs import GraphDatabase, LabeledGraph, subgraph_isomorphisms
from graphmine.gspan import MODES, MiningConfig, mine_frequent

from conftest import ETF_TEXT, SAMPLE_TEXT, connected_labeled_graphs, fuzz_database, mine


def triangle_with_tail() -> LabeledGraph:
    g = LabeledGraph()
    for lbl in (0, 1, 2, 3):
        g.add_vertex(lbl)
    g.add_edge(0, 1, 0)
    g.add_edge(1, 2, 1)
    g.add_edge(0, 2, 0)
    g.add_edge(2, 3, 1)
    return g


def test_add_vertex_and_edge_bookkeeping():
    g = LabeledGraph()
    assert g.add_vertex(7) == 0
    assert g.add_vertex(8) == 1
    eid = g.add_edge(0, 1, 5)
    assert eid == 0
    assert g.vertex_count == 2 and g.edge_count == 1
    assert len(g.adj[0]) == 1 and len(g.adj[1]) == 1
    # Half-edges appear in both adjacency lists.
    assert g.adj[0] == [(0, 1, 0, 5)]
    assert g.adj[1] == [(1, 0, 0, 5)]


def test_edge_validation():
    g = LabeledGraph()
    g.add_vertex(0)
    g.add_vertex(0)
    g.add_edge(0, 1, 0)
    with pytest.raises(ValueError):
        g.add_edge(0, 2, 0)
    with pytest.raises(ValueError):
        g.add_edge(1, 1, 0)
    with pytest.raises(ValueError):
        g.add_edge(1, 0, 1)  # duplicate regardless of orientation
    # A hub with four leaves: the leaf's adjacency list is the shorter one
    # for a spoke, the hub's for an edge between two leaves. A rejected
    # edge leaves the graph unchanged; a new edge between leaves is kept.
    g = LabeledGraph()
    for _ in range(5):
        g.add_vertex(0)
    for leaf in range(1, 5):
        g.add_edge(0, leaf, 0)
    g.add_edge(1, 2, 0)
    before = (list(g.edges), [list(a) for a in g.adj])
    for u, v in [(0, 3), (3, 0), (1, 2), (2, 1), (0, 1), (1, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"duplicate edge ({u}, {v})")):
            g.add_edge(u, v, 1)
    assert (g.edges, g.adj) == before
    assert g.add_edge(3, 4, 0) == 5


def labeled_path(labels) -> LabeledGraph:
    g = LabeledGraph()
    for lbl in labels:
        g.add_vertex(lbl)
    for u in range(len(labels) - 1):
        g.add_edge(u, u + 1, 0)
    return g


def test_database_constructor_numbers_graphs_by_position():
    # Two equal graphs are two graphs: counted as one they would mine
    # nothing at support 2.
    paths = [labeled_path([0, 1, 2]), labeled_path([0, 1, 2])]
    db = GraphDatabase(graphs=paths)
    assert db.original_ids == [0, 1]
    assert len(mine_frequent(db, MiningConfig(min_support=2))) == 3


def mined_files(db, min_support=1) -> list[str]:
    """The pattern file of each mode, in ``MODES`` order."""
    files = []
    for mode in MODES:
        patterns = mine(db, MiningConfig(min_support=min_support, mode=mode))
        files.append(write_patterns(patterns, db))
    return files


def test_a_database_over_some_of_anothers_graphs_leaves_it_alone():
    db = fuzz_database(3)
    before = mined_files(db)
    for k in range(1, len(db)):
        GraphDatabase(db.graphs[k:])
        assert mined_files(db) == before, k


def test_a_graph_listed_twice_counts_twice():
    # Each graph object sits at two positions: it is two graphs, as its
    # dumped and reparsed copy is.
    dbs = [parse_dataset_text(SAMPLE_TEXT), parse_dataset_text(ETF_TEXT)]
    dbs += [fuzz_database(seed) for seed in range(50)]
    for db in dbs:
        twice = GraphDatabase(db.graphs + db.graphs)
        copied = parse_dataset_text(dump_dataset(twice))
        for sup in (1, 2, 3):
            assert mined_files(twice, sup) == mined_files(copied, sup)


def test_database_leaves_the_callers_lists_alone():
    # Changed after construction, the caller's lists would slip past the
    # constructor's checks.
    gs = [labeled_path([0, 1]), labeled_path([0, 1])]
    ids, vnames, enames = [7, 9], ["A", "B"], ["e"]
    db = GraphDatabase(gs, ids, vnames, enames)
    gs.append(labeled_path([0, 1]))
    ids[1] = 7
    vnames[0] = "A x"
    enames.append("e")
    assert db.graphs == gs[:2] and db.original_ids == [7, 9]
    assert db.vlabel_names == ["A", "B"] and db.elabel_names == ["e"]


def test_database_rejects_original_ids_of_the_wrong_length():
    graphs = [labeled_path([0, 1]), labeled_path([0, 1])]
    with pytest.raises(ValueError, match="1 original ids for 2 graphs"):
        GraphDatabase(graphs=graphs, original_ids=[7])
    with pytest.raises(ValueError):
        GraphDatabase(graphs=graphs, original_ids=[7, 8, 9])
    text = dump_dataset(GraphDatabase(graphs=graphs, original_ids=[7, 8]))
    assert text.count("t # ") == 2 and "t # 8" in text


def test_database_rejects_repeated_original_ids():
    # A repeated id would name two graphs alike in the pattern file, and
    # dump_dataset would write a file the parser rejects.
    with pytest.raises(ValueError, match="repeated graph id 7"):
        GraphDatabase(graphs=[labeled_path([0, 1]), labeled_path([0, 1])], original_ids=[7, 7])


@pytest.mark.parametrize("oid", ["3", 3.0, True, None])
def test_database_rejects_original_ids_that_are_not_ints(oid):
    # ``t # <id>`` parses back only as an int.
    with pytest.raises(ValueError, match=re.escape(repr(oid))):
        GraphDatabase(graphs=[labeled_path([0, 1])], original_ids=[oid])


@pytest.mark.parametrize("side", ["vertex", "edge"])
@pytest.mark.parametrize("names,bad", [(["A x", "B"], "A x"), (["", "B"], ""), (["A", "A"], "A")])
def test_database_rejects_label_names_a_dataset_file_cannot_carry(side, names, bad):
    # Dumped, a name with whitespace or an empty one makes a line the
    # parser rejects, and a repeated name merges two labels into one.
    g = labeled_path([0, 1])
    vnames, enames = (names, ["e"]) if side == "vertex" else (["A", "B"], names)
    with pytest.raises(ValueError, match=f"{side} label name {re.escape(repr(bad))}"):
        GraphDatabase([g], [3], vnames, enames)


def test_label_names_default_to_str():
    db = GraphDatabase()
    assert db.vertex_label_name(3) == "3"
    assert db.edge_label_name(0) == "0"


def build(vlabels, edges) -> LabeledGraph:
    g = LabeledGraph()
    for lbl in vlabels:
        g.add_vertex(lbl)
    for u, v, lbl in edges:
        g.add_edge(u, v, lbl)
    return g


def brute_isomorphisms(pattern: LabeledGraph, host: LabeledGraph) -> list[tuple[int, ...]]:
    """Every injective vertex map, by trying each ordered choice of host
    vertices, kept when labels and labeled edges carry over."""
    host_edges = {frozenset((u, v)): lbl for u, v, lbl in host.edges}
    out = []
    for image in permutations(range(host.vertex_count), pattern.vertex_count):
        if any(host.vlabels[h] != lbl for h, lbl in zip(image, pattern.vlabels)):
            continue
        if all(host_edges.get(frozenset((image[u], image[v]))) == lbl for u, v, lbl in pattern.edges):
            out.append(image)
    return out


def test_subgraph_isomorphisms_match_brute_force():
    hosts = [
        # triangle with tail, two labels
        build([0, 1, 1, 0], [(0, 1, 0), (1, 2, 1), (0, 2, 0), (2, 3, 1)]),
        # K4 with mixed labels
        build([0, 0, 1, 1], [(0, 1, 0), (0, 2, 1), (0, 3, 0), (1, 2, 0), (1, 3, 1), (2, 3, 0)]),
        # one-label 5-cycle with a chord: many automorphic images
        build([0] * 5, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 0, 0), (0, 2, 0)]),
        # star around a label-1 centre with a pendant path
        build([1, 0, 0, 1, 0], [(0, 1, 0), (0, 2, 1), (0, 3, 0), (3, 4, 1)]),
    ]
    found = 0
    for pattern in connected_labeled_graphs(max_edges=3):
        for host in hosts:
            got = list(subgraph_isomorphisms(pattern, host))
            assert sorted(got) == brute_isomorphisms(pattern, host)
            found += len(got)
    assert found > 1000


def test_subgraph_isomorphisms_ignore_vertex_order():
    # The path 0-2-1: vertex 1 is not adjacent to vertex 0, so ids do not
    # follow discovery order. Both readings of the path are still found.
    path = build([0, 0, 0], [(1, 2, 0), (0, 2, 0)])
    assert sorted(subgraph_isomorphisms(path, path)) == [(0, 1, 2), (1, 0, 2)]


def test_subgraph_isomorphisms_reject_an_empty_pattern():
    # Disconnected patterns are rejected too (test_oracle.py,
    # test_cgspan.py::test_embeds_in_requires_injectivity).
    with pytest.raises(ValueError):
        next(subgraph_isomorphisms(LabeledGraph(), triangle_with_tail()))
