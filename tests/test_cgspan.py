import functools

import pytest

from graphmine import cgspan
from graphmine.cgspan import (
    ClosedGraphHashTable,
    ClosedGraphRecord,
    add_closed_graph,
    early_termination,
    equivalent_occurrence,
    mine_closed,
)
from graphmine.datasets import parse_dataset_text
from graphmine.dfscode import DFSCode, code_to_graph
from graphmine.embeddings import (
    Bucket,
    containing_graphs,
    project_code,
    rightmost_extensions,
    vertex_maps,
)
from graphmine.graphs import GraphDatabase, LabeledGraph, subgraph_isomorphisms
from graphmine.gspan import MinedPattern, MiningConfig, mine_frequent
from graphmine.oracle import all_extensions, is_closed

from conftest import (
    CG1,
    CG2,
    EA,
    ED,
    ETF_TEXT,
    S,
    SAMPLE_TEXT,
    W,
    X,
    Z,
    assert_links_match,
    calls,
    closed_verdict,
    code_key,
    codes,
    edge_image_sets,
    fuzz_database,
    key_set,
    record_run,
    reference_rightmost_extensions,
    rm_as_key,
    support_of,
)


def build_table(patterns, db):
    """The hash table a closed run ends with, rebuilt from its mined
    patterns in discovery order."""
    cght = ClosedGraphHashTable()
    for p in patterns:
        add_closed_graph(cght, ClosedGraphRecord(p, project_code(p.code, db)))
    return cght


def bare_record(code, db):
    """A record of ``code`` filed as the first closed graph of a run, and
    the bucket it holds until a lookup drops it."""
    bucket = project_code(code, db)
    gids = containing_graphs(bucket)
    pattern = MinedPattern(DFSCode(code), len(gids), len(bucket), gids, 0)
    return ClosedGraphRecord(pattern, bucket), bucket


@pytest.fixture
def sample_closed(sample_db):
    return mine_closed(sample_db, MiningConfig(min_support=2, mode="closed"))


# ---------------------------------------------------------------- mining


def test_mine_closed_rejects_frequent_mode(sample_db):
    with pytest.raises(ValueError):
        mine_closed(sample_db, MiningConfig(min_support=2, mode="frequent"))


# (database, min_support) where mode closed_no_etf loses CG2 of etf_db:
# the paper's Early Termination cuts a branch that still holds it, and
# nothing in this mode detects it. No other case loses one.
NO_ETF_LOSSES = {("etf", 1), ("etf", 2)}


@functools.cache
def fixture_verdicts(name: str) -> dict:
    """The verdict of each support of a fixture database."""
    db = parse_dataset_text({"sample": SAMPLE_TEXT, "etf": ETF_TEXT}[name])
    return {sup: closed_verdict(db, sup) for sup in (1, 2, 3)}


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
@pytest.mark.parametrize("name", ["sample", "etf"])
def test_closed_output_is_filtered_preorder(name, mode):
    # Each pattern is settled when the search visits it, so the closed list
    # is the frequent pre-order with the patterns that are not closed left
    # out; a closed pattern never waits for the closed graphs below it.
    # Mode closed_no_etf's list is closed's with exactly its losses left out.
    for sup, verdict in fixture_verdicts(name).items():
        if mode == "closed":
            assert verdict.closed_ok, sup
        else:
            lost = [code_key(CG2)] if (name, sup) in NO_ETF_LOSSES else []
            assert verdict.no_etf_ok and verdict.lost == lost, sup


def test_closed_output_is_filtered_preorder_on_fuzz():
    wrong = []
    for seed in range(200):
        db = fuzz_database(seed)
        for sup in (1, 2, 3):
            verdict = closed_verdict(db, sup)
            if not (verdict.closed_ok and verdict.no_etf_ok):
                wrong.append((seed, sup))
    assert wrong == []


def assert_closed_set_keeps_support_sets(db, sup) -> int:
    """Every frequent pattern's support set is the support set of some
    closed pattern that contains it, by ``subgraph_isomorphisms``: the
    closed set recovers each frequent pattern's support and support set.
    Returns the number of frequent patterns checked."""
    closed: dict[tuple, list] = {}
    for q in mine_closed(db, MiningConfig(min_support=sup, mode="closed")):
        closed.setdefault(q.containing_graphs, []).append(code_to_graph(q.code))
    frequent = mine_frequent(db, MiningConfig(min_support=sup))
    for p in frequent:
        pattern = code_to_graph(p.code)
        assert any(embeds_in(pattern, host) for host in closed.get(p.containing_graphs, ())), p.code
    return len(frequent)


def test_closed_set_keeps_support_sets(sample_db, etf_db):
    checked = 0
    for db in [sample_db, etf_db] + [fuzz_database(seed) for seed in range(0, 150, 3)]:
        for sup in (1, 2, 3):
            checked += assert_closed_set_keeps_support_sets(db, sup)
    assert checked > 1000


def test_closed_set_does_not_keep_occurrence_counts():
    # Fuzz database 5 at support 1: a 2-edge path occurs 3 times, in graph
    # 0 only, and the closed patterns that contain it with that support
    # set occur 1, 2 and 4 times, so none tells its count. A supergraph
    # with the same support set may miss some of the pattern's
    # occurrences, and one that extends them all can have more embeddings
    # than the pattern, since several of them can restrict to one.
    db = fuzz_database(5)
    code = ((0, 1, 0, 0, 0), (1, 2, 0, 0, 2))
    (p,) = [p for p in mine_frequent(db, MiningConfig(min_support=1)) if code_key(p.code) == code]
    assert (p.occurrence, p.containing_graphs) == (3, (0,))
    pattern = code_to_graph(p.code)
    supergraphs = [
        q.occurrence
        for q in mine_closed(db, MiningConfig(min_support=1, mode="closed"))
        if q.containing_graphs == (0,) and embeds_in(pattern, code_to_graph(q.code))
    ]
    assert sorted(supergraphs) == [1, 2, 4]


# ---------------------------------------------------------- hash table


def test_lookup_reads_only_its_support_set(sample_db, monkeypatch):
    # At support 1 the sample's closed patterns fall into several support
    # sets; a lookup materializes no record of another set and leaves the
    # table as it was.
    closed = mine_closed(sample_db, MiningConfig(min_support=1, mode="closed"))
    cght = build_table(closed, sample_db)
    before = {gids: list(records) for gids, records in cght.items()}
    assert len(before) > 1
    alpha = DFSCode([(0, 1, W, EA, X), (1, 2, X, ED, Z)])
    proj = project_code(alpha, sample_db)
    gids = tuple(sorted(set(proj.gids)))
    read = []
    materialize = ClosedGraphRecord.materialize

    def spy(record):
        read.append(record)
        return materialize(record)

    monkeypatch.setattr(ClosedGraphRecord, "materialize", spy)
    assert early_termination(alpha, proj, cght)[0]
    assert read
    assert all(any(r is record for r in cght[gids]) for record in read)
    assert cght == before


def test_lookup_builds_pattern_maps_in_the_reference_graph_only(sample_db, sample_closed, monkeypatch):
    # A lookup builds the pattern's vertex maps only for its hits in the
    # support set's least graph, and each record's maps once: a record it
    # reads keeps one flat map list and drops its bucket, one it never
    # reads keeps it.
    cght = ClosedGraphHashTable()
    inserted = {}
    for p in sample_closed:
        bucket = project_code(p.code, sample_db)
        record = ClosedGraphRecord(p, bucket)
        inserted[record] = bucket
        add_closed_graph(cght, record)
    alpha = DFSCode([(0, 1, W, EA, X), (1, 2, X, ED, Z)])
    key = tuple(map(tuple, alpha))
    proj = project_code(alpha, sample_db)
    in_ref = proj.gids.count(proj.gids[0])
    assert 0 < in_ref < len(proj)
    built = []

    def spy(code, node, hits=None):
        maps = list(vertex_maps(code, node, hits))
        built.append((tuple(map(tuple, code)), len(maps)))
        return iter(maps)

    monkeypatch.setattr(cgspan, "vertex_maps", spy)
    result = early_termination(alpha, proj, cght)
    assert result[0]
    pattern_builds = [n for code, n in built if code == key]
    record_builds = [n for code, n in built if code != key]
    assert pattern_builds == [in_ref]
    read = [r for r in inserted if r.maps is not None]
    assert result[1] in read and len(read) < len(inserted)
    assert sorted(record_builds) == sorted(len(inserted[r]) for r in read)
    for record, bucket in inserted.items():
        assert record.pattern.occurrence == len(bucket)
        if record.maps is None:
            assert record.bucket is bucket
            continue
        assert record.bucket is None
        assert record.maps == list(vertex_maps(record.pattern.code, bucket))
        gids = bucket.gids + [None]
        assert list(record.ends) == [i for i in range(1, len(gids)) if gids[i] != gids[i - 1]]

    built.clear()
    assert early_termination(alpha, proj, cght) == result
    assert built == [(key, in_ref)]


def star_database(extra_b: bool):
    """Two copies of a star: centre B (label 0) with two A leaves (label
    1) and one C leaf (label 2), all edges labelled 5. With ``extra_b`` a
    second B vertex also joins the C leaf."""
    graph = "v 0 0\nv 1 1\nv 2 1\nv 3 2\ne 0 1 5\ne 0 2 5\ne 0 3 5\n"
    if extra_b:
        graph += "v 4 0\ne 4 3 5\n"
    return parse_dataset_text("".join(f"t # {i}\n{graph}" for i in range(2)))


STAR = DFSCode([(0, 1, 0, 5, 1), (0, 2, 0, 5, 1), (0, 3, 0, 5, 2)])
B_C = DFSCode([(0, 1, 0, 5, 2)])


def test_cover_counts_distinct_projections_of_record_maps():
    # Swapping the star's two A leaves is an automorphism, so the star has
    # two maps per graph and both project onto the one B-C map there. The
    # record has more maps than the pattern has hits, and still covers.
    db = star_database(extra_b=False)
    record, bucket = bare_record(STAR, db)
    cght = ClosedGraphHashTable()
    add_closed_graph(cght, record)
    proj = project_code(B_C, db)
    assert bucket.gids == [0, 0, 1, 1]
    assert proj.gids == [0, 1]
    assert early_termination(B_C, proj, cght) == (True, record, (0, 3))
    assert reference_cover(B_C, proj, record, bucket) == (0, 3)
    assert not is_closed(B_C, db)


def test_cover_fails_when_distinct_projections_are_one_short():
    # Near miss: a second B vertex joins the C leaf, so B-C has two hits
    # per graph, as many as the star has maps, but both star maps project
    # onto the same B-C map and the other is left uncovered.
    db = star_database(extra_b=True)
    record, bucket = bare_record(STAR, db)
    cght = ClosedGraphHashTable()
    add_closed_graph(cght, record)
    proj = project_code(B_C, db)
    assert bucket.gids == [0, 0, 1, 1]
    assert proj.gids == [0, 0, 1, 1]
    assert early_termination(B_C, proj, cght) == (False, None, None)
    assert reference_cover(B_C, proj, record, bucket) is None


# ----------------------------------------------------- early termination


def test_early_termination_empty_table(sample_db):
    alpha = DFSCode([(0, 1, W, EA, X)])
    proj = project_code(alpha, sample_db)
    assert early_termination(alpha, proj, ClosedGraphHashTable()) == (False, None, None)


def test_early_termination_key_miss(sample_db, sample_closed):
    cght = build_table(sample_closed, sample_db)
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
    cght = ClosedGraphHashTable()
    add_closed_graph(cght, bare_record(stored, db)[0])
    s = DFSCode([(0, 1, 0, 0, 1), (0, 2, 0, 1, 2)])  # A(-x-B)(-y-C)
    proj = project_code(s, db)
    assert early_termination(s, proj, cght) == (False, None, None)
    # The oracle agrees nothing covers s.
    assert is_closed(s, db)


def test_early_termination_accepts_equal_vertex_images():
    # Two copies of a 5-path with a chord. The chord graph is discovered
    # and closed before the plain path, has the same vertex set image, and
    # covers the path everywhere. The chord is not a right-most extension
    # of the path, so the closure check settles the path by its walk.
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
    closed = mine_closed(db, MiningConfig(min_support=2, mode="closed"))
    # Direct check: the stored cover terminates the path via an equal-size
    # vertex image.
    cght = build_table(closed, db)
    proj = project_code(path, db)
    terminate, record, rho = early_termination(path, proj, cght)
    assert terminate
    assert code_to_graph(record.pattern.code).vertex_count == code_to_graph(path).vertex_count
    assert sorted(rho) == [0, 1, 2, 3, 4]
    # End to end the database has one closed pattern, and not the path.
    verdict = closed_verdict(db, 2)
    assert verdict.closed_ok and len(verdict.closed) == 1


def test_early_termination_one_edge_pattern():
    # Two copies of the path 0-(5)-1-(6)-2. The stored path covers its
    # first edge in both graphs through rho (0, 1), a rho of length 2.
    path_db = parse_dataset_text(
        "".join(f"t # {i}\nv 0 0\nv 1 1\nv 2 2\ne 0 1 5\ne 1 2 6\n" for i in range(2))
    )
    stored = DFSCode([(0, 1, 0, 5, 1), (1, 2, 1, 6, 2)])
    record, bucket = bare_record(stored, path_db)
    cght = ClosedGraphHashTable()
    add_closed_graph(cght, record)
    edge = DFSCode([(0, 1, 0, 5, 1)])
    proj = project_code(edge, path_db)
    assert early_termination(edge, proj, cght) == (True, record, (0, 1))
    assert reference_cover(edge, proj, record, bucket) == (0, 1)

    # Two copies of 0-(5)-0-(6)-1. The edge 0-(5)-0 occurs in both
    # orientations and the stored path takes one of them, so both rhos,
    # (0, 1) and (1, 0), leave a map uncovered; the edge is closed.
    sym_db = parse_dataset_text(
        "".join(f"t # {i}\nv 0 0\nv 1 0\nv 2 1\ne 0 1 5\ne 1 2 6\n" for i in range(2))
    )
    stored = DFSCode([(0, 1, 0, 5, 0), (1, 2, 0, 6, 1)])
    record, bucket = bare_record(stored, sym_db)
    cght = ClosedGraphHashTable()
    add_closed_graph(cght, record)
    edge = DFSCode([(0, 1, 0, 5, 0)])
    proj = project_code(edge, sym_db)
    assert len(proj) == 4
    assert early_termination(edge, proj, cght) == (False, None, None)
    assert reference_cover(edge, proj, record, bucket) is None
    assert is_closed(edge, sym_db)


# --------------------------------------------------- pattern containment


def embeds_in(pattern, host) -> bool:
    """Does pattern embed in host?"""
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
    # Regression: a closed tree record covers the 2-edge path 0 -e0- 1 -e1-
    # 2 at all of its occurrences, yet two closed patterns have minimum
    # codes passing through it (the record minus its second e0 spoke, and
    # that pattern's extension). Cutting the path's branch loses both; a
    # failure detector once vetoed that cut only through a leaf-deletion
    # witness. Mode closed makes no cut.
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
    verdict = closed_verdict(parse_dataset_text(text), 2)
    assert ((0, 1, 0, 0, 1), (1, 2, 1, 1, 2), (2, 3, 2, 1, 1)) in verdict.closed
    assert (
        (0, 1, 0, 0, 1),
        (1, 2, 1, 1, 2),
        (2, 3, 2, 1, 1),
        (3, 4, 1, 0, 1),
    ) in verdict.closed
    assert verdict.closed_ok


# ------------------------------------------------------------ fuzz seeds


# Seeds of the differential fuzz (seeds 0-7199 at supports 1-3) where
# closed mining, when it still cut branches through the hash table behind a
# failure detector, lost closed patterns: every seed but 1227 at support 1,
# and seeds 3277 and 4843 at support 2 too. Seed 1227 lost one at support 1
# until a reordering of the table's records changed which cut was vetoed.
REGRESSION_SEEDS = (1227, 1307, 1712, 2079, 2394, 3217, 3242, 3277, 4843, 5026, 5851, 6013, 6330)


def fuzz_runs(mode: str):
    """The recorded runs of the fuzz checks below: seeds 0-119 at supports
    1-3. Yields ``(seed, db, config, events, mined)``, ``events`` from
    ``recording()``."""
    for seed in range(120):
        db = fuzz_database(seed)
        for sup in (1, 2, 3):
            config = MiningConfig(min_support=sup, mode=mode)
            events, mined = record_run(db, config)
            yield seed, db, config, events, mined


# ROADMAP P4's one-graph witnesses of the same loss, from an exhaustive
# sweep of small graphs with one edge label: vertex labels, edges, and the
# closed pattern that the vetoed cuts lost at support 1.
P4_WITNESSES = {
    "k4-minus-edge": (
        [0, 1, 0, 0],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
        ((0, 1, 0, 0, 1), (1, 2, 1, 0, 0), (1, 3, 1, 0, 0)),
    ),
    "k4-minus-edge-plus-leaf": (
        [0, 1, 0, 0, 0],
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)],
        ((0, 1, 0, 0, 1), (1, 2, 1, 0, 0), (1, 3, 1, 0, 0)),
    ),
    "bowtie": (
        [1, 0, 0, 0, 0],
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)],
        ((0, 1, 0, 0, 1), (1, 2, 1, 0, 0), (1, 3, 1, 0, 0), (1, 4, 1, 0, 0)),
    ),
}


def witness_graph(name: str) -> LabeledGraph:
    vlabels, edges, _ = P4_WITNESSES[name]
    g = LabeledGraph()
    for lbl in vlabels:
        g.add_vertex(lbl)
    for u, v in edges:
        g.add_edge(u, v, 0)
    return g


@pytest.mark.parametrize("name", list(P4_WITNESSES))
def test_one_graph_witnesses_match_oracle(name):
    verdict = closed_verdict(GraphDatabase([witness_graph(name)]), 1)
    assert verdict.closed_ok and verdict.no_etf_ok
    assert P4_WITNESSES[name][2] in verdict.closed


@functools.cache
def regression_seed_verdict(seed: int, sup: int):
    return closed_verdict(fuzz_database(seed), sup)


@pytest.mark.parametrize("seed,sup", [(s, sup) for s in REGRESSION_SEEDS for sup in (1, 2, 3)])
def test_fuzz_regression_seeds_match_oracle(seed, sup):
    assert regression_seed_verdict(seed, sup).closed_ok


@pytest.mark.parametrize("seed,sup", [(s, sup) for s in REGRESSION_SEEDS for sup in (1, 2, 3)])
def test_fuzz_regression_seeds_emit_only_closed_patterns(seed, sup):
    # Early termination only prunes: in mode closed_no_etf a wrong cut can
    # lose closed patterns, never make the miner emit one that is not closed
    # or emit closed's patterns out of their order.
    assert regression_seed_verdict(seed, sup).no_etf_ok


# ------------------------------------------------------------ lazy index


def reference_cover(code, projected, record, bucket):
    """The rho through which ``record``, inserted with ``bucket``, covers
    the pattern, or None, from the definition: candidate rhos are read off
    the pattern maps inside the record's reference embedding (its first
    hit), in hit order, and keep every pattern edge on a record edge; the
    first rho under which every pattern map equals some record map of its
    graph composed with rho wins."""
    fmaps = list(zip(projected.gids, vertex_maps(code, projected)))
    rmaps = list(vertex_maps(record.pattern.code, bucket))
    by_gid: dict[int, list] = {}
    for gid, m in zip(bucket.gids, rmaps):
        by_gid.setdefault(gid, []).append(m)
    ref_gid, ref_map = bucket.gids[0], rmaps[0]
    record_edges = {frozenset((t[0], t[1])) for t in record.pattern.code}
    tried = set()
    for gid, fmap in fmaps:
        if gid != ref_gid or not set(fmap) <= set(ref_map):
            continue
        rho = tuple(ref_map.index(v) for v in fmap)
        if rho in tried:
            continue
        tried.add(rho)
        if not all(frozenset((rho[t[0]], rho[t[1]])) in record_edges for t in code):
            continue
        if all(
            any(all(m[rho[i]] == fmap[i] for i in range(len(fmap))) for m in by_gid.get(gid, ()))
            for gid, fmap in fmaps
        ):
            return rho
    return None


@pytest.mark.parametrize("mode", ["closed_no_etf"])
def test_lazy_lookup_matches_eager_index_on_fuzz(mode):
    # Reference: every record is filed under each of its edge image sets as
    # it is inserted, and a lookup returns the first record of the pattern's
    # bucket that covers the pattern, by the test-local coverage check on
    # the bucket the record was inserted with (a lookup drops it).
    lookups = hits = 0

    def summary(result):
        terminate, record, rho = result
        return terminate, record and record.pattern.discovery_index, rho

    for seed, _, config, events, _ in fuzz_runs(mode):
        eager: dict[frozenset, list] = {}
        inserted: dict[ClosedGraphRecord, list] = {}
        for kind, code, payload in events:
            if kind == "insert":
                _, record, bucket = payload
                inserted[record] = bucket
                for images in edge_image_sets(record.pattern.code, bucket):
                    bucket = eager.setdefault(images, [])
                    if not any(r is record for r in bucket):
                        bucket.append(record)
            elif kind == "lookup":
                projected, got = payload
                want = (False, None, None)
                last = frozenset((gid, e[2]) for gid, e in zip(projected.gids, projected.edges))
                for record in eager.get(last, ()):
                    rho = reference_cover(code, projected, record, inserted[record])
                    if rho is not None:
                        want = (True, record, rho)
                        break
                assert summary(got) == summary(want), (seed, config.min_support, code)
                lookups += 1
                hits += got[0]
    assert lookups > 0 and hits > 0


@pytest.mark.parametrize("mode", ["closed_no_etf"])
def test_covering_record_has_the_pattern_edge_images_on_fuzz(mode):
    # Why a lookup needs no edge-image key: when a record covers the pattern
    # under rho, every pattern edge (a, b) has exactly the image set of the
    # record's edge rho(a)-rho(b), the last edge's set being the paper's
    # key, and the record has at least as many embeddings as the pattern.
    # The images are read off the bucket the record was inserted with.
    hits = 0
    for _, _, _, events, _ in fuzz_runs(mode):
        inserted = {record: bucket for _, (_, record, bucket) in calls(events, "insert")}
        for code, (projected, (terminate, record, rho)) in calls(events, "lookup"):
            if not terminate:
                continue
            hits += 1
            bucket = inserted[record]
            assert record.pattern.occurrence == len(bucket) >= len(projected)
            images = edge_image_sets(record.pattern.code, bucket)
            pairs = [frozenset((t[0], t[1])) for t in record.pattern.code]
            for t, want in zip(code, edge_image_sets(code, projected)):
                assert images[pairs.index(frozenset((rho[t[0]], rho[t[1]])))] == want
    assert hits > 0


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_hook_embedding_lists_are_in_graph_id_order_on_fuzz(mode):
    # The lookup reads each graph's hits as one run and the reference
    # graph's hits first, so every bucket ``enter`` and ``settle`` receive,
    # and with it every record's bucket, must be in graph-id order.
    seen = 0
    for _, _, _, events, _ in fuzz_runs(mode):
        for kind, _, payload in events:
            if kind in ("enter", "settle"):
                gids = payload[0].gids
                assert gids == sorted(gids)
                seen += 1
    assert seen > 0


@pytest.mark.parametrize("mode", ["closed_no_etf"])
def test_group_keys_are_the_patterns_support_set_tuples_on_fuzz(mode):
    # The table files each record under the very tuple its pattern holds as
    # ``containing_graphs``, and holds that very pattern; a record no lookup
    # reads has built no edge set, and one that was read has every code edge.
    unread = read = 0
    for _, _, _, events, mined in fuzz_runs(mode):
        if not mined:
            continue
        tables = {id(cght): cght for _, (cght, _, _) in calls(events, "insert")}
        (cght,) = tables.values()
        by_index = {p.discovery_index: p for p in mined}
        filed = 0
        for key, records in cght.items():
            assert type(key) is tuple
            for record in records:
                assert by_index[record.pattern.discovery_index] is record.pattern
                assert record.pattern.containing_graphs is key
                if record.maps is None:
                    assert record.edges is None and record.bucket is not None
                    unread += 1
                else:
                    pairs = {(t[0], t[1]) for t in record.pattern.code}
                    assert record.edges == pairs | {(b, a) for a, b in pairs}
                    read += 1
            filed += len(records)
        assert filed == len(mined)
    assert unread > 0 and read > 0


def test_lookup_digest_is_pinned():
    # One digest over the patterns, counters and every lookup answer of
    # the first 100 fuzz seeds (see lookup_digest.py): any change to a
    # lookup's (terminate, record, rho) fails here.
    from lookup_digest import lookup_digest

    assert lookup_digest(100) == (
        600,
        1328,
        "3643785bd8abb0f6f340239c898e03f55e398679223e060c5264837cc0111dc8",
    )


# ------------------------------------------------------- closure decision


def closure_decisions(db, events, mined) -> int:
    """Hold every closure decision of a recorded closed run to the oracle:
    at every node, ``equivalent_occurrence`` answers False and the pattern
    is emitted exactly when ``is_closed`` says so. Returns how many nodes
    only the walk settled: not closed, yet the tuple of no kept bucket
    covers every hit among the oracle's extensions."""
    emitted = key_set(mined)
    walk_only = 0
    for code, (projected, exts, answer) in calls(events, "closure"):
        closed = is_closed(code, db)
        assert answer != closed and (code in emitted) == closed, code
        if answer:
            found = all_extensions(code, db)
            walk_only += all(len(found[rm_as_key(t)]) < len(projected) for t in exts)
    return walk_only


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_closure_decision_matches_unrestricted_rule_on_sample(sample_db, etf_db, mode):
    for db in (sample_db, etf_db):
        for sup in (1, 2, 3):
            config = MiningConfig(min_support=sup, mode=mode)
            closure_decisions(db, *record_run(db, config))


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_closure_decision_matches_unrestricted_rule_on_fuzz(mode):
    alphabets, walk_only = set(), 0
    for _, db, _, events, mined in fuzz_runs(mode):
        alphabets.add(len({lbl for g in db.graphs for lbl in g.vlabels}))
        walk_only += closure_decisions(db, events, mined)
    assert alphabets == {1, 2, 3}
    assert walk_only > 0


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_settle_makes_one_closure_call(sample_db, etf_db, mode):
    # Each settle asks the closure test once, about its own node and
    # buckets, before any other recorded call, and emits the pattern
    # exactly when the answer is False; frequent mining never asks it.
    dbs = [sample_db, etf_db] + [fuzz_database(seed) for seed in range(30)]
    asked = set()
    for db in dbs:
        for sup in (1, 2, 3):
            config = MiningConfig(min_support=sup, mode=mode)
            events, mined = record_run(db, config)
            settles = [i for i, e in enumerate(events) if e[0] == "settle"]
            assert len(settles) == len(calls(events, "closure"))
            for i in settles:
                (_, code, (projected, exts)), (kind, about, payload) = events[i : i + 2]
                assert (kind, about) == ("closure", code)
                assert payload[0] is projected and payload[1] == exts
                asked.add(payload[2])
            assert codes(mined) == [code for code, (*_, answer) in calls(events, "closure") if not answer]
            events, _ = record_run(db, MiningConfig(min_support=sup))
            assert not calls(events, "closure")
    assert asked == {True, False}


def test_walk_alone_settles_closure():
    # In mode closed_no_etf every visited node is uncovered; at support 1
    # on fuzz database 0 this 3-edge star has no kept bucket with
    # equivalent occurrence, yet a tuple the scan does not build extends
    # every hit, so it is not closed.
    db = fuzz_database(0)
    code = DFSCode([(0, 1, 0, 1, 0), (1, 2, 0, 1, 1), (1, 3, 0, 1, 1)])
    projected = project_code(code, db)
    kept = rightmost_extensions(code, projected, db)
    assert kept and not any(b.covers_parent() for b in kept.values())
    assert equivalent_occurrence(code, projected, db, kept)
    events, mined = record_run(db, MiningConfig(min_support=1, mode="closed_no_etf"))
    assert code_key(code) not in key_set(mined)
    assert closure_decisions(db, events, mined) > 0


def reordered(bucket, order) -> Bucket:
    """A visited bucket's hits in another order, under the same parent."""
    out = Bucket(bucket.parent)
    out.prevs = [bucket.prevs[i] for i in order]
    out.edges = [bucket.edges[i] for i in order]
    out.gids = [bucket.gids[i] for i in order]
    return out


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_equivalent_occurrence_matches_the_definition_on_fuzz(mode):
    # At every node ``settle`` reaches, the closure test's answer is the
    # definition: some key of the oracle's extensions at every vertex,
    # kept tuples included, covers as many parents as the pattern has
    # hits. A kept bucket covers exactly when its key does. ``by_kept``
    # counts the True answers a kept bucket gives, ``by_walk`` those only
    # the walk gives. ``kinds`` and ``answers`` are read at the nodes with
    # several hits and keys outside the kept ones, which the walk tests.
    # ``off_path`` counts the True answers that only an extension the
    # right-most scan cannot build settles. The walk may read the hits in
    # any order: the reversed bucket and a rotation, each with another hit
    # first, give the same answer. ``other_graph`` counts the nodes whose
    # reversed bucket starts in another graph.
    kinds, answers, off_path, other_graph, by_kept, by_walk = set(), set(), 0, 0, 0, 0
    for seed, db, config, events, _ in fuzz_runs(mode):
        for code, (projected, kept, got) in calls(events, "closure"):
            n = len(projected)
            for order in (range(n - 1, -1, -1), [*range(n // 2, n), *range(n // 2)]):
                again = reordered(projected, order)
                assert equivalent_occurrence(code, again, db, kept) == got, (seed, config, code)
            other_graph += projected.gids[0] != projected.gids[-1]
            exts_all = all_extensions(code, db)
            covering = {k for k, parents in exts_all.items() if len(parents) == n}
            kept_keys = {rm_as_key(t) for t in kept}
            candidates = exts_all.keys() - kept_keys
            if candidates and n > 1:
                kinds |= {k.kind for k in candidates}
                answers.add(got)
            rightmost = reference_rightmost_extensions(code, projected, db, restricted=False)
            for t, b in kept.items():
                assert b.support() == support_of(rightmost[t])
                assert_links_match(b, rightmost[t])
                assert b.covers_parent() == (rm_as_key(t) in covering)
            rightmost = {rm_as_key(t) for t in rightmost}
            off_path += bool(covering) and not covering & rightmost
            by_kept += bool(covering & kept_keys)
            by_walk += bool(covering) and not covering & kept_keys
            assert got == bool(covering), (seed, config, code)
    assert kinds == {"f", "b"}
    assert answers == {True, False}
    assert off_path > 0
    assert other_graph > 0
    assert by_kept > 0 and by_walk > 0


def test_dropped_backward_tuple_settles_closure():
    # Two triangles, each two label-1 edges closed by a label-0 edge. The
    # label-1 path's only extension is the closing edge, a backward tuple
    # whose label is below the path's, so the scan does not build it.
    def triangles(closed):
        return parse_dataset_text(
            "".join(
                f"t # {i}\nv 0 0\nv 1 0\nv 2 0\ne 0 1 1\ne 1 2 1\n" + ("e 0 2 0\n" if c else "")
                for i, c in enumerate(closed)
            )
        )

    code = DFSCode([(0, 1, 0, 1, 0), (1, 2, 0, 1, 0)])
    db = triangles((True, True))
    projected = project_code(code, db)
    assert len(projected) == 4
    assert list(reference_rightmost_extensions(code, projected, db, False)) == [(2, 0, 0, 0, 0)]
    kept = rightmost_extensions(code, projected, db)
    assert kept == {}
    assert equivalent_occurrence(code, projected, db, kept)
    assert not is_closed(code, db)
    # Without one graph's closing edge no tuple extends every hit,
    # whichever graph holds hit 0.
    for closed in ((True, False), (False, True)):
        db = triangles(closed)
        projected = project_code(code, db)
        assert not equivalent_occurrence(code, projected, db, {})
        assert is_closed(code, db)


def test_walk_reads_the_last_chain_second(monkeypatch):
    # Five graphs hold the edge 0-1, and all but the last a label-2 leaf
    # at vertex 0: the one candidate hit 0 offers. The walk reads the
    # last hit right after hit 0, drops the candidate there and stops
    # after two vertex maps; with a leaf in every graph it reads all five.
    def leaves(n):
        return parse_dataset_text(
            "".join(
                f"t # {i}\nv 0 0\nv 1 1\n"
                + ("v 2 2\ne 0 1 0\ne 0 2 0\n" if i < n else "e 0 1 0\n")
                for i in range(5)
            )
        )

    read = []
    maps_of = cgspan.vertex_maps

    def counting_maps(code, node, hits=None):
        for vmap in maps_of(code, node, hits):
            read.append(vmap)
            yield vmap

    monkeypatch.setattr(cgspan, "vertex_maps", counting_maps)
    code = DFSCode([(0, 1, 0, 0, 1)])
    for n, covers, maps_read in ((4, False, 2), (5, True, 5)):
        db = leaves(n)
        projected = project_code(code, db)
        assert projected.gids == [0, 1, 2, 3, 4]
        read.clear()
        assert equivalent_occurrence(code, projected, db, {}) == covers
        assert len(read) == maps_read
