import random

import pytest

from graphmine.dfscode import (
    DFSCode,
    EdgeTuple,
    code_to_graph,
    is_min,
    min_dfs_code,
    rightmost_path,
)
from graphmine.graphs import LabeledGraph, subgraph_isomorphisms

from conftest import (
    CG1,
    CG2,
    P1,
    P2,
    brute_min_code,
    connected_labeled_graphs,
)


def graph_of(code) -> LabeledGraph:
    return code_to_graph(code)


def test_edge_tuple_direction_flags():
    # A forward tuple introduces ``to``; a backward one closes a cycle onto
    # an earlier vertex. Fields read by name and by position alike.
    fwd, back = EdgeTuple(0, 1, 0, 0, 1), EdgeTuple(3, 0, 4, 4, 0)
    assert fwd.frm < fwd.to and back.frm > back.to
    assert fwd == (0, 1, 0, 0, 1) and back.lbl_edge == back[3] == 4


def test_dfscode_normalizes_plain_tuples():
    c = DFSCode([(0, 1, 2, 3, 4)])
    assert isinstance(c[0], EdgeTuple)
    assert code_to_graph(c).vertex_count == 2
    # An EdgeTuple is kept by identity, so codes can share their tuples.
    t = EdgeTuple(1, 2, 3, 4, 5)
    d = DFSCode([c[0], t])
    assert d[0] is c[0] and d[1] is t


def test_rightmost_path_of_sample_pattern():
    # Path from root to the last-discovered vertex: 0 -> 1 -> 3, through
    # the forward tuples at positions 0 and 2.
    assert rightmost_path(P1) == [0, 2]
    assert rightmost_path(P2) == [1]


def test_code_to_graph_round_trip():
    g = graph_of(P1)
    assert g.vertex_count == 4 and g.edge_count == 4
    assert g.vlabels == [0, 1, 2, 4]
    assert min_dfs_code(g) == list(P1)


def test_min_dfs_code_on_sample_patterns():
    for code in (P1, P2, CG1, CG2):
        assert is_min(code)
        assert min_dfs_code(graph_of(code)) == list(code)


def test_min_dfs_code_requires_edges():
    g = LabeledGraph()
    g.add_vertex(0)
    with pytest.raises(ValueError):
        min_dfs_code(g)


def test_min_dfs_code_rejects_an_isolated_vertex():
    # Labels (0, 0, 5) with the one edge 0-1: vertex 2 has no edge, so no
    # DFS code covers the graph, just as with two components.
    g = LabeledGraph()
    for lbl in (0, 0, 5):
        g.add_vertex(lbl)
    g.add_edge(0, 1, 0)
    with pytest.raises(ValueError, match="graph is not connected"):
        min_dfs_code(g)
    g.add_edge(2, 0, 0)
    assert min_dfs_code(g) == [(0, 1, 0, 0, 0), (1, 2, 0, 0, 5)]
    two = code_to_graph([(0, 1, 0, 0, 0)])
    two.add_vertex(0)
    two.add_vertex(0)
    two.add_edge(2, 3, 0)
    with pytest.raises(ValueError, match="graph is not connected"):
        min_dfs_code(two)


def test_non_minimal_code_detected():
    # The same 4-edge pattern written starting from its d-edge branch.
    other = DFSCode([(0, 1, 0, 0, 1), (1, 2, 1, 3, 4), (2, 0, 4, 4, 0), (1, 3, 1, 1, 2)])
    assert graph_of(other).edge_count == 4
    assert not is_min(other)


def test_is_min_returns_the_automorphisms():
    # A minimal code's answer is every automorphism of its graph, as a
    # tuple of dfs ids indexed by dfs id, the identity among them; the
    # subgraph matcher, run from the graph onto itself, finds the same maps.
    cases = [
        ([(0, 1, 0, 0, 0), (1, 2, 0, 0, 0)], 2),  # a 2-edge path
        ([(0, 1, 0, 0, 0), (1, 2, 0, 0, 0), (2, 0, 0, 0, 0)], 6),  # a triangle
        ([(0, 1, 0, 0, 0), (1, 2, 0, 0, 0), (1, 3, 0, 0, 0)], 6),  # a 3-star
        ([(0, 1, 0, 0, 1)], 1),  # one edge, two end labels
    ]
    for code, count in cases:
        autos = is_min(code)
        assert len(autos) == count
        assert tuple(range(len(autos[0]))) in autos
        g = code_to_graph(code)
        assert sorted(autos) == sorted(subgraph_isomorphisms(g, g))
    # Not minimal: the 3-star written from a leaf, and the swapped edge.
    assert is_min([(0, 1, 0, 0, 0), (0, 2, 0, 0, 0), (0, 3, 0, 0, 0)]) == ()
    assert is_min([(0, 1, 1, 0, 0)]) == ()


def test_canonical_form_matches_brute_force():
    # Exhaustive: every connected labeled graph of each size and alphabet,
    # as (max edges, labels per namespace, lowest label, graph count). The
    # <=4-edge graphs over a 2x2 alphabet from zero are
    # test_acceptance.py::test_canonical_form_oracle_exhaustive's.
    sweeps = [
        (3, 2, -2, 2216),  # a 2x2 label alphabet below zero
        (5, 1, 0, 1685),  # one label: many automorphisms and backward edges
    ]
    for max_edges, n_labels, lowest_label, count in sweeps:
        checked = 0
        for g in connected_labeled_graphs(max_edges, n_labels, n_labels, lowest_label):
            expected = brute_min_code(g)
            got = tuple(map(tuple, min_dfs_code(g)))
            assert got == expected, f"min code mismatch on {g.vlabels} {g.edges}"
            checked += 1
        assert checked == count


def test_min_code_is_permutation_invariant():
    rng = random.Random(7)
    for g in list(connected_labeled_graphs(max_edges=3, n_vlabels=2, n_elabels=2))[::17]:
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        h = LabeledGraph()
        for i in range(g.vertex_count):
            h.add_vertex(0)
        for old, new in enumerate(perm):
            h.vlabels[new] = g.vlabels[old]
        for u, v, lbl in g.edges:
            h.add_edge(perm[u], perm[v], lbl)
        assert min_dfs_code(g) == min_dfs_code(h)
