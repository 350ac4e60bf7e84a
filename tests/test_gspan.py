import dataclasses
import random
import sys
import weakref

import pytest

from graphmine import embeddings, gspan
from graphmine.cgspan import mine_closed
from graphmine.dfscode import code_to_graph, is_min, min_dfs_code, rightmost_path
from graphmine.graphs import GraphDatabase, LabeledGraph
from graphmine.gspan import MODES, MiningConfig, MiningStats, mine_frequent
from graphmine.oracle import verify_run

from conftest import (
    brute_frequent_codes,
    calls,
    code_key,
    fuzz_database,
    key_set,
    mine,
    random_database,
    record_run,
)


def test_frequent_set_matches_brute_force(sample_db):
    mined = mine_frequent(sample_db, MiningConfig(min_support=2))
    assert key_set(mined) == brute_frequent_codes(sample_db, 2)
    assert len(mined) == 14


def test_frequent_set_matches_brute_force_on_etf_db(etf_db):
    mined = mine_frequent(etf_db, MiningConfig(min_support=2))
    assert key_set(mined) == brute_frequent_codes(etf_db, 2)


def test_frequent_set_matches_brute_force_random():
    rng = random.Random(5)
    for _ in range(5):
        db = random_database(rng, max_vertices=6)
        mined = mine_frequent(db, MiningConfig(min_support=2))
        assert key_set(mined) == brute_frequent_codes(db, 2)


def test_all_frequent_patterns_are_minimal_and_distinct(sample_db):
    mined = mine_frequent(sample_db, MiningConfig(min_support=2))
    codes = key_set(mined)
    assert len(codes) == len(mined)
    for p in mined:
        assert list(min_dfs_code(code_to_graph(p.code))) == list(p.code)


def test_emission_is_preorder(sample_db):
    mined = mine_frequent(sample_db, MiningConfig(min_support=2))
    index = {tuple(map(tuple, p.code)): p.discovery_index for p in mined}
    assert sorted(index.values()) == list(range(len(mined)))
    for p in mined:
        if len(p.code) > 1:
            parent = tuple(map(tuple, list(p.code)[:-1]))
            assert index[parent] < p.discovery_index


def test_fraction_and_absolute_support_agree(sample_db):
    frac = mine_frequent(sample_db, MiningConfig(min_support=1.0))
    absolute = mine_frequent(sample_db, MiningConfig(min_support=2))
    assert key_set(frac) == key_set(absolute)


def test_stats_counters(sample_db):
    stats = MiningStats()
    mined = mine_frequent(sample_db, MiningConfig(min_support=2), stats)
    assert stats.pattern_count == len(mined) == 14
    assert stats.visited_nodes >= stats.pattern_count
    assert stats.early_terminations_applied == 0
    assert stats.trie_size == 0
    d = stats.as_dict()
    assert d["pattern_count"] == 14


def test_support_must_be_sane():
    with pytest.raises(ValueError):
        MiningConfig(min_support=0)
    with pytest.raises(ValueError):
        MiningConfig(min_support=-1)
    with pytest.raises(ValueError):
        MiningConfig(min_support=1.5)
    with pytest.raises(ValueError):
        MiningConfig(min_support=True)
    with pytest.raises(ValueError):
        MiningConfig(mode="bogus")
    assert set(MODES) == {"frequent", "closed", "closed_no_etf"}


def test_mining_config_holds_support_and_mode_only():
    assert [f.name for f in dataclasses.fields(MiningConfig)] == ["min_support", "mode"]


@pytest.mark.parametrize("mode", ["closed", "closed_no_etf"])
def test_mine_frequent_rejects_closed_modes(sample_db, mode):
    with pytest.raises(ValueError):
        mine_frequent(sample_db, MiningConfig(min_support=2, mode=mode))


def test_min_frequency_scaling():
    cfg = MiningConfig(min_support=0.1)
    assert cfg.min_frequency(340) == 34
    assert cfg.min_frequency(5) == 1
    assert MiningConfig(min_support=3).min_frequency(10) == 3
    # Float products that land just above an integer: 0.07 * 100 is
    # 7.000000000000001, and so on. The threshold is the ceiling of the
    # decimal fraction, so a pattern at exactly 7 graphs stays frequent.
    assert MiningConfig(min_support=0.07).min_frequency(100) == 7
    assert MiningConfig(min_support=0.28).min_frequency(25) == 7
    assert MiningConfig(min_support=0.14).min_frequency(50) == 7
    # The benchmark workloads' thresholds.
    assert MiningConfig(min_support=0.2).min_frequency(300) == 60
    assert MiningConfig(min_support=0.5).min_frequency(1000) == 500
    # Every two-decimal fraction against exact integer arithmetic.
    for k in range(1, 101):
        cfg = MiningConfig(min_support=k / 100)
        for n in range(1, 1001):
            assert cfg.min_frequency(n) == max(1, -(-k * n // 100)), (k, n)


def test_patterns_with_one_support_set_share_one_tuple():
    # ``containing_graphs`` is interned per run: a sorted tuple, one object
    # per distinct support set, shared by every pattern that has it.
    for seed in range(20):
        db = random_database(random.Random(seed))
        for mode in MODES:
            mined = mine(db, MiningConfig(min_support=2, mode=mode))
            shared: dict[tuple, tuple] = {}
            for p in mined:
                gids = p.containing_graphs
                assert type(gids) is tuple and list(gids) == sorted(set(gids))
                assert len(gids) == p.support
                assert shared.setdefault(gids, gids) is gids, (seed, mode, gids)
            assert len({id(p.containing_graphs) for p in mined}) == len(shared)
    # Separate runs do not share.
    a, b = (mine_frequent(db, MiningConfig(min_support=2)) for _ in range(2))
    assert a[0].containing_graphs == b[0].containing_graphs
    assert a[0].containing_graphs is not b[0].containing_graphs


def test_emitted_codes_share_their_parents_tuples():
    # A child's code is its parent's plus one EdgeTuple, and ``DFSCode``
    # keeps the tuples it is given: each pattern adds one tuple object.
    for seed in range(30):
        db = random_database(random.Random(seed))
        mined = mine_frequent(db, MiningConfig(min_support=2))
        by_code = {tuple(p.code): p for p in mined}
        for p in mined:
            if len(p.code) > 1:
                parent = by_code[tuple(p.code[:-1])]
                assert all(p.code[i] is parent.code[i] for i in range(len(parent.code))), (seed, p.code)
        assert len({id(t) for p in mined for t in p.code}) == len(mined), seed


def test_unpushed_buckets_are_freed_before_the_next_visit(sample_db, monkeypatch):
    # Memory peaks in a scan, after the next visit. By then the frequent
    # buckets of the last node's children that fail ``is_min``, which
    # nothing reads again, must be gone.
    class WeakBucket(embeddings.Bucket):
        __slots__ = ("__weakref__",)

    real_scan = gspan.rightmost_extensions
    unpushed: list[weakref.ref] = []

    def spy_scan(code, projected, db_, sources=None):
        exts = real_scan(code, projected, db_, sources)
        for t, bucket in exts.items():
            if bucket.support() >= min_freq and not gspan.is_min(list(code) + [t]):
                unpushed.append(weakref.ref(bucket))
        return exts

    def enter(code, projected):
        assert all(ref() is None for ref in unpushed), code
        return False

    def settle(code, projected, exts, emit):
        emit(code, projected)

    monkeypatch.setattr(embeddings, "Bucket", WeakBucket)
    monkeypatch.setattr(gspan, "rightmost_extensions", spy_scan)
    checked = 0
    for db in [sample_db] + [random_database(random.Random(seed)) for seed in range(10)]:
        config = MiningConfig(min_support=2)
        min_freq = config.min_frequency(len(db.graphs))
        unpushed.clear()
        mined = gspan.search(db, config, MiningStats(), enter, settle)
        assert len(mined) == len(mine_frequent(db, config))
        checked += len(unpushed)
    assert checked > 0


@pytest.mark.parametrize("mode", MODES)
def test_is_min_runs_when_a_child_is_pushed(mode):
    # A node's children are tested right after its scan, before any other
    # node is visited, in push order (descending), once each; exactly the
    # minimal ones are visited and the 1-edge roots are never tested. The
    # tested children are the frequent tuples of the sources that no
    # automorphism maps deeper on the right-most path: the scan reads none
    # of those.
    for seed in range(20):
        db = random_database(random.Random(seed))
        stats = MiningStats()
        events, mined = record_run(db, MiningConfig(min_support=2, mode=mode), stats)
        events = [e for e in events if e[0] in ("enter", "scan", "is_min")]
        roots = sum(1 for kind, code, _ in events if kind == "scan" and len(code) == 1)
        passed = 0
        for i, (kind, code, payload) in enumerate(events):
            if kind != "scan":
                continue
            skipped = gspan.dominated_sources(list(code), is_min(list(code)))
            assert not payload[1] & skipped, code
            kept = [t for t, b in payload[2].items() if b.support() >= 2]
            assert not any(t[0] in skipped for t in kept), code
            want = [code + (t,) for t in sorted(kept, key=gspan.child_sort_key, reverse=True)]
            tested = events[i + 1 : i + 1 + len(want)]
            assert [e[:2] for e in tested] == [("is_min", c) for c in want], (seed, code)
            passed += sum(e[2] for e in tested)
        tested = calls(events, "is_min")
        assert all(len(code) > 1 for code, _ in tested)
        assert len(tested) == len({code for code, _ in tested})
        visited = [code for code, _ in calls(events, "enter") if len(code) > 1]
        assert sorted(visited) == sorted(code for code, minimal in tested if minimal)
        if mode == "frequent":
            assert stats.visited_nodes == len(mined) == roots + passed


def test_scans_skip_dominated_sources_on_one_label_fuzz():
    # On one-label databases automorphisms abound: some scan leaves out a
    # path source that an automorphism maps deeper on the right-most path,
    # and the frequent output still equals brute force.
    skips = runs = 0
    for seed in range(60):
        db = fuzz_database(seed)
        if len({lbl for g in db.graphs for lbl in g.vlabels}) != 1:
            continue
        for sup in (1, 2):
            runs += 1
            events, mined = record_run(db, MiningConfig(min_support=sup))
            assert key_set(mined) == brute_frequent_codes(db, sup), (seed, sup)
            for code, (_, sources, _) in calls(events, "scan"):
                code = list(code)
                path = {code[pos][0] for pos in rightmost_path(code)}
                skipped = gspan.dominated_sources(code, is_min(code))
                assert skipped <= path and not sources & skipped
                skips += bool(skipped)
    assert runs > 0 and skips > 0


@pytest.mark.parametrize("mode", MODES)
def test_both_miners_take_one_path_through_a_node(sample_db, etf_db, mode):
    # Every visit runs enter, then (unless enter cut the branch) the scan,
    # then settle with exactly the scan's frequent buckets, which are the
    # children's; children are visited in pre-order, ascending.
    dbs = [sample_db, etf_db] + [random_database(random.Random(seed)) for seed in range(6)]
    cuts = 0
    for db in dbs:
        for sup in (1, 2):
            config = MiningConfig(min_support=sup, mode=mode)
            min_freq = config.min_frequency(len(db.graphs))
            stats = MiningStats()
            events, mined = record_run(db, config, stats)
            events = [e for e in events if e[0] in ("enter", "scan", "settle")]
            entered = [(code, cut) for code, (_, cut) in calls(events, "enter")]
            assert len(entered) == stats.visited_nodes
            path, last_child = [], {}
            for code, _ in entered:
                del path[len(code) - 1 :]
                assert path == [code[:k] for k in range(1, len(code))], code
                key = gspan.child_sort_key(code[-1])
                assert last_child.get(code[:-1], key) <= key
                last_child[code[:-1]] = key
                path.append(code)
            pos = 0
            for code, cut in entered:
                assert events[pos][:2] == ("enter", code)
                pos += 1
                if cut:
                    cuts += 1
                    continue
                kind, scanned, (_, _, scan) = events[pos]
                assert (kind, scanned) == ("scan", code)
                kind, settled, (_, exts) = events[pos + 1]
                assert (kind, settled) == ("settle", code)
                pos += 2
                frequent = {t: b for t, b in scan.items() if b.support() >= min_freq}
                assert exts.keys() == frequent.keys()
                assert all(exts[t] is b for t, b in frequent.items())
                children = {c for c, _ in entered if len(c) == len(code) + 1 and c[:-1] == code}
                minimal = {code + (t,) for t in exts if gspan.is_min(list(code) + [t])}
                assert children == minimal, code
            assert pos == len(events)
            if mode == "frequent":
                assert [code_key(p.code) for p in mined] == [c for c, _ in entered]
    assert (cuts > 0) == (mode == "closed_no_etf")


@pytest.mark.parametrize("mode", MODES)
def test_recursion_limit_is_restored(sample_db, mode):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        mine(sample_db, MiningConfig(min_support=2, mode=mode))
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


@pytest.mark.parametrize("mode", MODES)
def test_search_leaves_recursion_limit_alone(sample_db, mode, monkeypatch):
    seen = []
    real_is_min = gspan.is_min

    def spy(code):
        seen.append(sys.getrecursionlimit())
        return real_is_min(code)

    monkeypatch.setattr(gspan, "is_min", spy)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        mine(sample_db, MiningConfig(min_support=2, mode=mode))
    finally:
        sys.setrecursionlimit(saved)
    assert seen and set(seen) == {1000}


def path_pair(edges: int) -> GraphDatabase:
    """Two copies of one path with vertex labels cycling through 0, 1, 2."""
    graphs = []
    for _ in range(2):
        g = LabeledGraph()
        for i in range(edges + 1):
            g.add_vertex(i % 3)
        for i in range(edges):
            g.add_edge(i, i + 1, 0)
        graphs.append(g)
    return GraphDatabase(graphs)


def call_under_tight_recursion_limit(fn, *args):
    """``fn(*args)`` with the recursion limit 40 frames above this call."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(saved)


def test_long_path_mines_under_a_tight_recursion_limit():
    db = path_pair(80)
    mined = call_under_tight_recursion_limit(mine_frequent, db, MiningConfig(min_support=2))
    assert len(mined) == 237
    assert max(len(p.code) for p in mined) == 80
    # Closed mode also runs the closure check at every node.
    closed = call_under_tight_recursion_limit(mine_closed, db, MiningConfig(mode="closed"))
    assert len(closed) == 27
    assert max(len(p.code) for p in closed) == 80
    # The oracle enumerates embeddings of every frequent pattern.
    report = call_under_tight_recursion_limit(verify_run, path_pair(50))
    assert report.ok and report.oracle_count == report.mined_count
