import random

import pytest

from graphmine.datasets import parse_dataset_text
from graphmine.dfscode import DFSCode, code_to_graph
from graphmine.embeddings import project_code
from graphmine.graphs import LabeledGraph, subgraph_isomorphisms
from graphmine.gspan import MiningConfig, mine_frequent
from graphmine.oracle import (
    ExtensionKey,
    all_extensions,
    filter_closed,
    is_closed,
    total_occurrence,
    verify_run,
)

from conftest import (
    CG2,
    EA,
    ED,
    EF,
    P1,
    P2,
    W,
    X,
    Y,
    Z,
    key_set,
    random_database,
    reference_rightmost_extensions,
    rm_as_key,
)


# ----------------------------------------------------------- embeddings


def test_embedding_counts_on_sample_db(sample_db):
    root = code_to_graph(DFSCode([(0, 1, W, EA, X)]))
    g1, g2 = sample_db.graphs
    assert len(list(subgraph_isomorphisms(root, g1))) == 2
    assert len(list(subgraph_isomorphisms(root, g2))) == 1
    quad = code_to_graph(P1)
    assert len(list(subgraph_isomorphisms(quad, g1))) == 1
    assert len(list(subgraph_isomorphisms(quad, g2))) == 1
    assert list(subgraph_isomorphisms(quad, g1))[0] == (0, 2, 3, 5)


def test_embeddings_count_automorphic_images():
    db = parse_dataset_text("t # 0\nv 0 X\nv 1 X\ne 0 1 a\n")
    pattern = code_to_graph(DFSCode([(0, 1, 0, 0, 0)]))
    maps = list(subgraph_isomorphisms(pattern, db.graphs[0]))
    assert sorted(maps) == [(0, 1), (1, 0)]


def test_embeddings_respect_injectivity():
    # A triangle cannot host a 4-path even though labels allow walking it.
    db = parse_dataset_text(
        "t # 0\nv 0 X\nv 1 X\nv 2 X\ne 0 1 a\ne 1 2 a\ne 0 2 a\n"
    )
    path = code_to_graph(
        DFSCode([(0, 1, 0, 0, 0), (1, 2, 0, 0, 0), (2, 3, 0, 0, 0)])
    )
    assert list(subgraph_isomorphisms(path, db.graphs[0])) == []
    # Same for a 3-spoke star: as many vertices and edges as the path, and
    # walks leaf-centre-leaf-centre, but no simple path of three edges.
    star = parse_dataset_text(
        "t # 0\nv 0 X\nv 1 X\nv 2 X\nv 3 X\ne 0 1 a\ne 0 2 a\ne 0 3 a\n"
    )
    assert list(subgraph_isomorphisms(path, star.graphs[0])) == []


def test_embedding_requires_discovery_order():
    pattern = LabeledGraph()
    for _ in range(3):
        pattern.add_vertex(0)
    pattern.add_edge(1, 2, 0)  # vertex 1 has no edge to vertex 0
    host = code_to_graph(DFSCode([(0, 1, 0, 0, 0)]))
    with pytest.raises(ValueError):
        list(subgraph_isomorphisms(pattern, host))


def test_total_occurrence(sample_db):
    assert total_occurrence(DFSCode([(0, 1, W, EA, X)]), sample_db) == 3
    assert total_occurrence(P1, sample_db) == 2
    assert total_occurrence(P2, sample_db) == 3


# ------------------------------------------------------------ extensions


def test_extension_evidence_on_root(sample_db):
    exts = all_extensions(DFSCode([(0, 1, W, EA, X)]), sample_db)
    # Hanging Z on W with f covers every embedding: equivalent occurrence.
    full = exts[ExtensionKey("f", 0, -1, EF, Z)]
    assert len(full) == 3
    # Hanging Z on X with d misses the embedding through graph 0's other X.
    partial = exts[ExtensionKey("f", 1, -1, ED, Z)]
    assert len(partial) == 2
    assert {gid for gid, _ in partial} == {0, 1}


def test_extensions_cover_non_rightmost_vertices():
    # Star around b with an extra edge at c. The pattern uses b's three
    # spokes; the right-most search cannot grow from c, but the oracle sees
    # the c-e edge.
    db = parse_dataset_text(
        "t # 0\nv 0 a\nv 1 b\nv 2 c\nv 3 d\nv 4 e\n"
        "e 1 0 x\ne 1 2 x\ne 1 3 x\ne 2 4 x\n"
    )
    code = DFSCode([(0, 1, 0, 0, 1), (1, 2, 1, 0, 2), (1, 3, 1, 0, 3)])
    proj = project_code(code, db)
    rm = reference_rightmost_extensions(code, proj, db, restricted=False)
    oracle = set(all_extensions(code, db))
    assert rm == {}
    assert oracle == {ExtensionKey("f", 2, -1, 0, 4)}


def test_extensions_match_rightmost_on_single_edge(sample_db):
    # With one pattern edge every vertex lies on the right-most path, so
    # the two enumerations describe the same edges.
    code = DFSCode([(0, 1, W, EA, X)])
    proj = project_code(code, sample_db)
    rm = reference_rightmost_extensions(code, proj, sample_db, restricted=False)
    assert {rm_as_key(t) for t in rm} == set(all_extensions(code, sample_db))


# -------------------------------------------------------------- closure


def test_is_closed_on_sample_db(sample_db):
    assert is_closed(P1, sample_db)
    assert is_closed(P2, sample_db)
    assert not is_closed(DFSCode([(0, 1, W, EA, X)]), sample_db)
    assert not is_closed(DFSCode([(0, 1, X, 1, Y)]), sample_db)


def test_is_closed_counts_in_the_extension_walk():
    """is_closed takes the occurrence count from the walk all_extensions
    makes; it must agree with the separate total_occurrence count."""
    rng = random.Random(23)
    checked = 0
    for _ in range(6):
        db = random_database(rng, n_graphs=4, max_vertices=6, n_vlabels=rng.choice([1, 2]))
        for p in mine_frequent(db, MiningConfig(min_support=1)):
            total = total_occurrence(p.code, db)
            exts = all_extensions(p.code, db).values()
            assert is_closed(p.code, db) == all(len(parents) != total for parents in exts)
            checked += 1
    assert checked > 0


def test_filter_closed_on_sample_db(sample_db):
    frequent = mine_frequent(sample_db, MiningConfig(min_support=2))
    assert len(frequent) == 14
    closed = filter_closed(frequent, sample_db)
    assert key_set(closed) == {tuple(map(tuple, P1)), tuple(map(tuple, P2))}
    # Order of the surviving patterns is the mining order.
    assert [p.discovery_index for p in closed] == sorted(
        p.discovery_index for p in closed
    )


# ------------------------------------------------------------ verify_run


def test_verify_run_matches(sample_db, etf_db):
    rep = verify_run(sample_db, MiningConfig(min_support=2, mode="closed"))
    assert rep.ok and rep.mined_count == 2 and rep.oracle_count == 2
    assert rep.missing == [] and rep.extra == []
    assert rep.lines()[-1] == "verdict: match"
    assert verify_run(etf_db, MiningConfig(min_support=2, mode="closed")).ok


def test_verify_run_reports_missed_pattern(etf_db):
    rep = verify_run(etf_db, MiningConfig(min_support=2, mode="closed_no_etf"))
    assert not rep.ok
    assert rep.mined_count == 1 and rep.oracle_count == 2
    assert [tuple(map(tuple, c)) for c in rep.missing] == [tuple(map(tuple, CG2))]
    assert rep.extra == []
    lines = rep.lines()
    assert lines[-1] == "verdict: MISMATCH"
    assert any(line.startswith("missing:") for line in lines)


def test_verify_run_default_config(sample_db):
    rep = verify_run(sample_db)
    assert rep.ok
