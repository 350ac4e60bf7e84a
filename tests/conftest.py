"""Shared fixtures: the two worked-example databases, a seeded random
database generator, the verdict every check of a closed run against the
oracle reads, a recorder of the search's calls, a brute-force
frequent-pattern enumerator, a reference right-most extension scan (with
helpers that compare its hits with the package's buckets), and a
brute-force DFS-code enumerator used as the canonical-form oracle."""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import pytest

from graphmine import cgspan, gspan
from graphmine.cgspan import mine_closed
from graphmine.gspan import MiningConfig, MiningStats, mine_frequent
from graphmine.dfscode import DFSCode, code_to_graph, min_dfs_code, rightmost_path
from graphmine.embeddings import Bucket
from graphmine.graphs import GraphDatabase, LabeledGraph, subgraph_isomorphisms
from graphmine.datasets import parse_dataset_text
from graphmine.oracle import ExtensionKey, filter_closed

# Two graphs whose closed patterns at support 2 are the 4-edge W-a-X(-b-Y)
# (-d-Z) + Z-f-W pattern and the 2-edge X-a-W-f-Z path. Edge lines follow
# the enumeration used by the hash-table checks. Interned ids: W=0 X=1 Y=2
# S=3 Z=4 T=5; a=0 b=1 c=2 d=3 f=4 e=5.
SAMPLE_TEXT = """t # 0
v 0 W
v 1 X
v 2 X
v 3 Y
v 4 S
v 5 Z
e 0 1 a
e 0 2 a
e 2 3 b
e 2 4 c
e 2 5 d
e 0 5 f
t # 1
v 0 W
v 1 X
v 2 Y
v 3 T
v 4 Z
e 0 1 a
e 1 2 b
e 1 3 e
e 1 4 d
e 0 4 f
"""

# Two graphs exhibiting the early-termination failure: in mode
# closed_no_etf, which has no failure detection, the branch of
# X(-a-Y)(-c-Z) is cut by the closed graph X(-a-Y-b-X)(-c-Z) and the
# closed graph X(-a-Y)(-c-Z-d-X) is lost.
# Interned ids: X=0 Y=1 Z=2; a=0 b=1 c=2 d=3.
ETF_TEXT = """t # 0
v 0 X
v 1 Y
v 2 X
v 3 Z
e 0 1 a
e 1 2 b
e 0 3 c
e 2 3 d
t # 1
v 0 X
v 1 Y
v 2 X
v 3 Z
v 4 X
e 0 1 a
e 1 2 b
e 0 3 c
e 3 4 d
"""

# Interned label ids for the two fixtures.
W, X, Y, S, Z, T = 0, 1, 2, 3, 4, 5
EA, EB, EC, ED, EF, EE_ = 0, 1, 2, 3, 4, 5

P1 = DFSCode([(0, 1, W, EA, X), (1, 2, X, EB, Y), (1, 3, X, ED, Z), (3, 0, Z, EF, W)])
P2 = DFSCode([(0, 1, W, EA, X), (0, 2, W, EF, Z)])

CG1 = DFSCode([(0, 1, 0, 0, 1), (1, 2, 1, 1, 0), (0, 3, 0, 2, 2)])
CG2 = DFSCode([(0, 1, 0, 0, 1), (0, 2, 0, 2, 2), (2, 3, 2, 3, 0)])


def key_set(patterns) -> set[tuple]:
    """Canonical comparable form of a pattern list."""
    return {code_key(p.code) for p in patterns}


def mine(db, config, stats=None) -> list:
    """Mine with the miner of ``config.mode``."""
    return (mine_frequent if config.mode == "frequent" else mine_closed)(db, config, stats)


@contextmanager
def recording():
    """Record the calls the miners make, and restore what is patched on exit.

    Yields one list that each call appends ``(kind, code, payload)`` to, in
    the order the calls begin, ``code`` being the call's code as a tuple of
    tuples. The kinds and their payloads:

    - ``enter``: ``(projected, cut)``, the node's bucket and the hook's
      answer (True cuts the branch);
    - ``scan``: ``(projected, sources, exts)``, the arguments and answer of
      ``rightmost_extensions``, infrequent buckets included;
    - ``settle``: ``(projected, exts)``, a copy of the frequent buckets the
      hook gets;
    - ``is_min``: whether a child's code is minimal, the answer's truth
      value (a minimal code's answer is its automorphisms);
    - ``closure``: ``(projected, exts, answer)``, the node's bucket, a
      copy of the frequent buckets and what ``equivalent_occurrence``
      answers (True: the pattern is not closed);
    - ``lookup``: ``(projected, (terminate, record, rho))``, what
      ``early_termination`` answers;
    - ``insert``: ``(cght, record, bucket)``, the table and record
      ``add_closed_graph`` gets, with the bucket the record holds then
      (``materialize`` drops it).

    It wraps the names the miners call: ``gspan.search`` and
    ``cgspan.search`` (their ``enter`` and ``settle`` hooks),
    ``gspan.rightmost_extensions``, ``gspan.is_min``,
    ``cgspan.equivalent_occurrence``, ``cgspan.early_termination`` and
    ``cgspan.add_closed_graph``. Every recorded object lives as long as
    the list.
    """
    events: list = []
    real_search, real_scan, real_is_min = gspan.search, gspan.rightmost_extensions, gspan.is_min
    real_closure = cgspan.equivalent_occurrence
    real_lookup, real_insert = cgspan.early_termination, cgspan.add_closed_graph

    def search(db, config, stats, enter, settle):
        def recorded_enter(code, projected):
            at = len(events)
            events.append(None)  # the lookup ``enter`` makes comes after it
            cut = enter(code, projected)
            events[at] = ("enter", code_key(code), (projected, cut))
            return cut

        def recorded_settle(code, projected, exts, emit):
            events.append(("settle", code_key(code), (projected, dict(exts))))
            return settle(code, projected, exts, emit)

        return real_search(db, config, stats, recorded_enter, recorded_settle)

    def scan(code, projected, db, sources=None):
        exts = real_scan(code, projected, db, sources)
        events.append(("scan", code_key(code), (projected, sources, exts)))
        return exts

    def is_min(code):
        passed = real_is_min(code)
        events.append(("is_min", code_key(code), bool(passed)))
        return passed

    def closure(code, projected, db, exts):
        answer = real_closure(code, projected, db, exts)
        events.append(("closure", code_key(code), (projected, dict(exts), answer)))
        return answer

    def lookup(code, projected, cght):
        result = real_lookup(code, projected, cght)
        events.append(("lookup", code_key(code), (projected, result)))
        return result

    def insert(cght, record):
        payload = (cght, record, record.bucket)
        events.append(("insert", code_key(record.pattern.code), payload))
        return real_insert(cght, record)

    patches = [
        (gspan, "search", search),
        (cgspan, "search", search),
        (gspan, "rightmost_extensions", scan),
        (gspan, "is_min", is_min),
        (cgspan, "equivalent_occurrence", closure),
        (cgspan, "early_termination", lookup),
        (cgspan, "add_closed_graph", insert),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield events
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def record_run(db, config, stats=None) -> tuple[list, list]:
    """Mine under ``recording()``: the run's events and its patterns."""
    with recording() as events:
        mined = mine(db, config, stats)
    return events, mined


class ClosedVerdict(NamedTuple):
    """One closed-mining run judged: ``closed`` against the oracle, and
    ``closed_no_etf`` against ``closed``. Codes are tuples of tuples."""

    frequent: list[tuple]  # mine_frequent's codes, in pre-order
    closed: list[tuple]  # mode closed's codes, in output order
    closed_ok: bool  # closed == filter_closed(frequent), same visits, no cut
    no_etf_ok: bool  # closed_no_etf's list is a subsequence of closed's
    lost: list[tuple]  # closed's codes that closed_no_etf lacks, in order


def closed_verdict(db, min_support: int) -> ClosedVerdict:
    """Mine ``db`` once in each mode and judge both closed modes.

    ``closed`` must emit the oracle's closed subset of the frequent list, in
    order, and make no cut: its counters but ``pattern_count`` equal
    ``mine_frequent``'s. ``closed_no_etf`` may lose closed patterns, but
    emits none that ``closed`` does not, nor out of its order, so it stays
    inside the oracle set."""
    config = MiningConfig(min_support=min_support)

    def run(mode):
        stats = MiningStats()
        return mine(db, replace(config, mode=mode), stats), stats

    frequent, frequent_stats = run("frequent")
    closed, closed_stats = run("closed")
    closed_codes, no_etf_codes = codes(closed), codes(run("closed_no_etf")[0])
    rest, kept = iter(closed_codes), set(no_etf_codes)
    return ClosedVerdict(
        frequent=codes(frequent),
        closed=closed_codes,
        closed_ok=closed_codes == codes(filter_closed(frequent, db))
        and replace(closed_stats, pattern_count=0) == replace(frequent_stats, pattern_count=0),
        no_etf_ok=all(code in rest for code in no_etf_codes),
        lost=[code for code in closed_codes if code not in kept],
    )


def codes(patterns) -> list[tuple]:
    """Pattern codes as tuples of tuples, in output order."""
    return [code_key(p.code) for p in patterns]


def calls(events, kind: str) -> list[tuple]:
    """The ``(code, payload)`` of each event of one kind, in call order."""
    return [(code, payload) for k, code, payload in events if k == kind]


def code_key(code) -> tuple:
    """A code as a tuple of plain tuples."""
    return tuple(map(tuple, code))


@pytest.fixture
def sample_db() -> GraphDatabase:
    return parse_dataset_text(SAMPLE_TEXT)


@pytest.fixture
def etf_db() -> GraphDatabase:
    return parse_dataset_text(ETF_TEXT)


@pytest.fixture
def sample_file(tmp_path) -> Path:
    p = tmp_path / "sample.graphs"
    p.write_text(SAMPLE_TEXT)
    return p


@pytest.fixture
def etf_file(tmp_path) -> Path:
    p = tmp_path / "etf.graphs"
    p.write_text(ETF_TEXT)
    return p


def random_database(
    rng: random.Random,
    n_graphs: int | None = None,
    max_vertices: int = 8,
    n_vlabels: int = 3,
    n_elabels: int = 2,
) -> GraphDatabase:
    """A database of 5-10 small random graphs over a tiny label alphabet."""
    graphs = []
    for _ in range(n_graphs if n_graphs is not None else rng.randint(5, 10)):
        nv = rng.randint(2, max_vertices)
        g = LabeledGraph()
        for _ in range(nv):
            g.add_vertex(rng.randrange(n_vlabels))
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        rng.shuffle(pairs)
        for u, v in pairs[: rng.randint(1, min(len(pairs), nv + 2))]:
            g.add_edge(u, v, rng.randrange(n_elabels))
        graphs.append(g)
    return GraphDatabase(graphs)


def fuzz_database(seed: int):
    """The fuzz database of one seed: ``random_database`` over 3-8 graphs
    with one to three vertex labels and one or two edge labels, in its
    exact draw order. The fuzz tests and scripts all draw from it."""
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


def brute_code_supports(db) -> dict[tuple, int]:
    """Every connected pattern that occurs in ``db``, with its support, by
    enumerating connected edge subsets of every graph, deduplicating on
    canonical code and counting the graphs each code embeds in."""
    candidates: set[tuple] = set()
    for g in db:
        for size in range(1, g.edge_count + 1):
            for subset in combinations(range(g.edge_count), size):
                sub = LabeledGraph()
                vmap: dict[int, int] = {}
                for eid in subset:
                    u, v, lbl = g.edges[eid]
                    for w in (u, v):
                        if w not in vmap:
                            vmap[w] = sub.add_vertex(g.vlabels[w])
                    sub.add_edge(vmap[u], vmap[v], lbl)
                seen = {0}
                stack = [0]
                while stack:
                    for e in sub.adj[stack.pop()]:
                        if e[1] not in seen:
                            seen.add(e[1])
                            stack.append(e[1])
                if len(seen) != sub.vertex_count:
                    continue
                candidates.add(tuple(map(tuple, min_dfs_code(sub))))
    supports = {}
    for code in candidates:
        pattern = code_to_graph(code)
        supports[code] = sum(
            1 for g in db if next(subgraph_isomorphisms(pattern, g), None) is not None
        )
    return supports


def brute_frequent_codes(db, min_freq: int) -> set[tuple]:
    """All connected frequent patterns of ``db``, by brute force."""
    return {code for code, sup in brute_code_supports(db).items() if sup >= min_freq}


def read_hit(bucket, i) -> tuple[int, list]:
    """A hit's graph id and edge images in code order, read up its parent
    indices to the empty pattern's bucket, whose hit i is graph i."""
    edges = []
    while bucket.parent is not None:
        edges.append(bucket.edges[i])
        i = bucket.prevs[i]
        bucket = bucket.parent
    return i, edges[::-1]


def edge_image_sets(code, bucket) -> list[frozenset]:
    """A pattern's edge image sets in code order: for each edge, the
    ``(gid, eid)`` pairs it maps onto over the bucket's hits."""
    images = [read_hit(bucket, i) for i in range(len(bucket))]
    return [frozenset((gid, edges[pos][2]) for gid, edges in images) for pos in range(len(code))]


def reference_rightmost_extensions(code, projected, db, restricted=True):
    """Right-most extensions, written independently of the package's scan:
    per hit of ``projected`` its edges read by ``read_hit``, a used-vertex
    and a used-edge set, one adjacency scan per backward target, then the
    forward scans. With ``restricted`` the growth filters of canonical
    search apply, as in the package's scan; without, every right-most
    extension is built. Each tuple maps to its hits as plain tuples
    ``(gid, half-edge, parent hit index)``."""
    graphs = db.graphs
    m = len(code)
    positions = rightmost_path(code)
    rm_pos = positions[-1]
    maxtoc = code[rm_pos][1]
    rmlbl = code[rm_pos][4]
    min_vlb = code[0][2]
    back = [
        (pos, code[pos][0], code[pos][3], code[pos][4] <= rmlbl, code[pos][2])
        for pos in positions[:-1]
    ]
    fwd = [
        (pos, code[pos][0], code[pos][3], code[pos][4], code[pos][2])
        for pos in reversed(positions)
    ]
    newv = maxtoc + 1
    buckets = {}

    for prev in range(len(projected)):
        gid, edges = read_hit(projected, prev)
        assert len(edges) == m
        g = graphs[gid]
        adj = g.adj
        vl = g.vlabels
        vused = set()
        eused = set()
        for e in edges:
            vused.add(e[0])
            vused.add(e[1])
            eused.add(e[2])
        rm_img = edges[rm_pos][1]

        for pos, tgt, e1lbl, alloweq, tgtlbl in back:
            w_img = edges[pos][0]
            for e in adj[rm_img]:
                if e[1] == w_img and e[2] not in eused:
                    if not restricted or e[3] > e1lbl or (e[3] == e1lbl and alloweq):
                        t = (maxtoc, tgt, rmlbl, e[3], tgtlbl)
                        buckets.setdefault(t, []).append((gid, e, prev))
                    break

        for e in adj[rm_img]:
            to = e[1]
            if to in vused:
                continue
            nlbl = vl[to]
            if restricted and nlbl < min_vlb:
                continue
            t = (maxtoc, newv, rmlbl, e[3], nlbl)
            buckets.setdefault(t, []).append((gid, e, prev))

        for pos, frm_dfs, e1lbl, e1tolbl, frmlbl in fwd:
            u_img = edges[pos][0]
            for e in adj[u_img]:
                to = e[1]
                if to in vused:
                    continue
                nlbl = vl[to]
                if restricted and (
                    nlbl < min_vlb
                    or e[3] < e1lbl
                    or (e[3] == e1lbl and nlbl < e1tolbl)
                ):
                    continue
                t = (frm_dfs, newv, frmlbl, e[3], nlbl)
                buckets.setdefault(t, []).append((gid, e, prev))

    return buckets


def support_of(hits) -> int:
    """The number of graphs a reference scan's hits lie in."""
    return len({gid for gid, _, _ in hits})


def as_bucket(projected, hits) -> Bucket:
    """A reference scan's hits of one tuple in the package's form: a
    bucket under ``projected`` holding each hit's parent index and edge."""
    bucket = Bucket(projected)
    for _, e, prev in hits:
        bucket.prevs.append(prev)
        bucket.edges.append(e)
    return bucket


def bucket_hits(bucket) -> list[tuple]:
    """A package bucket's hits in the reference scan's form, the graph id
    read off the parent's column."""
    parent_gids = bucket.parent.gids
    return [(parent_gids[prev], e, prev) for prev, e in zip(bucket.prevs, bucket.edges)]


def assert_links_match(bucket, hits) -> None:
    """The bucket holds exactly the reference hits: as many, and per hit
    the same graph id, half-edge and parent index, in order."""
    assert bucket_hits(bucket) == list(hits)


def rm_as_key(t) -> ExtensionKey:
    """The oracle key describing a right-most extension tuple."""
    frm, to = t[0], t[1]
    if to > frm:  # forward: new vertex
        return ExtensionKey("f", frm, -1, t[3], t[4])
    return ExtensionKey("b", min(frm, to), max(frm, to), t[3], -1)


def all_dfs_codes(g: LabeledGraph) -> list[tuple]:
    """Every DFS code of a connected graph, by direct traversal simulation.

    A partial state is the discovery order, the right-most path, and the
    used edge set. Legal continuations are backward edges from the
    right-most vertex to right-most-path vertices in ascending target
    order, and forward edges from any right-most-path vertex to an
    undiscovered vertex. Complete codes use every edge.
    """
    m = g.edge_count
    out: list[tuple] = []

    def walk(code, disc, pos, rmpath, used):
        if len(code) == m:
            out.append(tuple(code))
            return
        rm = rmpath[-1]
        back_targets = []
        for e in g.adj[rm]:
            o = e[1]
            if o in pos and frozenset((rm, o)) not in used and o in rmpath[:-2]:
                back_targets.append(o)
        if back_targets:
            # A valid traversal emits the lowest backward target next.
            o = min(back_targets, key=lambda v: pos[v])
            elb = next(h[3] for h in g.adj[rm] if h[1] == o)
            t = (pos[rm], pos[o], g.vlabels[rm], elb, g.vlabels[o])
            walk(code + [t], disc, pos, rmpath, used | {frozenset((rm, o))})
            return
        for i in range(len(rmpath) - 1, -1, -1):
            v = rmpath[i]
            for e in g.adj[v]:
                o = e[1]
                if o in pos:
                    continue
                t = (pos[v], len(disc), g.vlabels[v], e[3], g.vlabels[o])
                walk(
                    code + [t],
                    disc + [o],
                    {**pos, o: len(disc)},
                    rmpath[: i + 1] + [o],
                    used | {frozenset((v, o))},
                )

    for start in range(g.vertex_count):
        walk([], [start], {start: 0}, [start], frozenset())
    return out


def extension_family(rng):
    """Draw tuples that can extend one shared prefix state, the domain on
    which the tuple order is total."""
    r = rng.randint(1, 4)  # right-most vertex id
    n = r + 1  # next fresh vertex id
    vlabels = [rng.randrange(3) for _ in range(n)]

    def draw() -> tuple:
        if r >= 2 and rng.random() < 0.5:
            j = rng.randrange(r - 1)  # backward target, parent excluded
            return (r, j, vlabels[r], rng.randrange(3), vlabels[j])
        i = rng.randrange(r + 1)  # forward growth point
        return (i, n, vlabels[i], rng.randrange(3), rng.randrange(3))

    return draw


def tuple_precedes(a, b) -> bool:
    """Strict DFS-code tuple order, restated from its definition so the
    brute-force canonical form shares nothing with the library comparator.

    For tuples extending one prefix: among forwards, a smaller target wins,
    then a deeper source, then the label triple; among backwards, the
    earlier source wins, then the earlier target, then the edge label; a
    backward from source i precedes a forward to target j iff i < j, and a
    forward to j precedes a backward from i iff j <= i.
    """
    afwd, bfwd = a[0] < a[1], b[0] < b[1]
    if afwd and bfwd:
        if a[1] != b[1]:
            return a[1] < b[1]
        if a[0] != b[0]:
            return a[0] > b[0]
        return a[2:] < b[2:]
    if afwd:
        return a[1] <= b[0]
    if bfwd:
        return a[0] < b[1]
    if a[0] != b[0]:
        return a[0] < b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[3] < b[3]


def code_precedes(a: tuple, b: tuple) -> bool:
    """First-divergence order on complete codes of one graph."""
    for ta, tb in zip(a, b):
        if ta != tb:
            return tuple_precedes(ta, tb)
    return len(a) < len(b)


def least_code(codes: list[tuple]) -> tuple:
    """The least of one graph's DFS codes, by ``code_precedes``."""
    if not codes:
        raise ValueError("graph has no edges")
    best = codes[0]
    for c in codes[1:]:
        if code_precedes(c, best):
            best = c
    return best


def brute_min_code(g: LabeledGraph) -> tuple:
    return least_code(all_dfs_codes(g))


def connected_labeled_graphs(max_edges: int = 4, n_vlabels: int = 2, n_elabels: int = 2, lowest_label: int = 0):
    """Every connected labeled graph with 1..max_edges edges, one instance
    per edge-set skeleton and labeling, with vertex and edge labels counted
    up from ``lowest_label``. Yields LabeledGraph."""
    from itertools import product

    for nv in range(2, max_edges + 2):
        all_pairs = list(combinations(range(nv), 2))
        for ne in range(max(1, nv - 1), max_edges + 1):
            if ne > len(all_pairs):
                continue
            for pairs in combinations(all_pairs, ne):
                # Connectivity over exactly nv vertices.
                seen = {0}
                frontier = [0]
                adj: dict[int, list[int]] = {}
                for u, v in pairs:
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)
                while frontier:
                    nxt = frontier.pop()
                    for o in adj.get(nxt, ()):
                        if o not in seen:
                            seen.add(o)
                            frontier.append(o)
                if len(seen) != nv or any(v not in adj for v in range(nv)):
                    continue
                for vlabels in product(range(lowest_label, lowest_label + n_vlabels), repeat=nv):
                    for elabels in product(range(lowest_label, lowest_label + n_elabels), repeat=ne):
                        g = LabeledGraph()
                        for lbl in vlabels:
                            g.add_vertex(lbl)
                        for (u, v), lbl in zip(pairs, elabels):
                            g.add_edge(u, v, lbl)
                        yield g
