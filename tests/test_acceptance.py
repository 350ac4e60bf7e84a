"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Dataset tests expect the SPMF files data/CHEM_340.txt and
data/COMPOUND_422.txt next to the repository root and skip when absent.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from graphmine.cgspan import (
    ClosedGraphHashTable,
    ClosedGraphRecord,
    add_closed_graph,
    early_termination,
    mine_closed,
)
from graphmine.datasets import parse_dataset, parse_dataset_text, write_patterns
from graphmine.dfscode import DFSCode, is_min, min_dfs_code
from graphmine.embeddings import project_code
from graphmine.gspan import MiningConfig, MiningStats, mine_frequent
from graphmine.oracle import all_extensions, total_occurrence

from conftest import (
    CG1,
    CG2,
    EA,
    ED,
    SAMPLE_TEXT,
    ETF_TEXT,
    P1,
    P2,
    W,
    X,
    Z,
    all_dfs_codes,
    as_bucket,
    assert_links_match,
    closed_verdict,
    connected_labeled_graphs,
    edge_image_sets,
    extension_family,
    key_set,
    least_code,
    mine,
    random_database,
    reference_rightmost_extensions,
    rm_as_key,
    tuple_precedes,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
CHEMICAL = DATA_DIR / "CHEM_340.txt"
COMPOUNDS = DATA_DIR / "COMPOUND_422.txt"

needs_chemical = pytest.mark.skipif(
    not CHEMICAL.is_file(), reason=f"dataset not present: {CHEMICAL}"
)
needs_compounds = pytest.mark.skipif(
    not COMPOUNDS.is_file(), reason=f"dataset not present: {COMPOUNDS}"
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}", flush=True)
        raise
    print(f"PASS  {name}", flush=True)


# ------------------------------------------------- 1. worked micro-examples


def test_sample_db_closed_patterns_and_occurrences():
    with criterion("two-graph sample: closed set is exactly {P1, P2} with occurrences 2 and 3"):
        start = time.perf_counter()
        db = parse_dataset_text(SAMPLE_TEXT)
        mined = mine_closed(db, MiningConfig(min_support=2, mode="closed"))
        got = {tuple(map(tuple, p.code)): (p.support, p.occurrence) for p in mined}
        assert got == {
            tuple(map(tuple, P1)): (2, 2),
            tuple(map(tuple, P2)): (2, 3),
        }
        assert time.perf_counter() - start < 1.0


def test_etf_db_ablation():
    with criterion("etf example: closed keeps CG1+CG2, closed-no-etf loses CG2"):
        start = time.perf_counter()
        db = parse_dataset_text(ETF_TEXT)
        on = key_set(mine_closed(db, MiningConfig(min_support=2, mode="closed")))
        off = key_set(mine_closed(db, MiningConfig(min_support=2, mode="closed_no_etf")))
        cg1, cg2 = tuple(map(tuple, CG1)), tuple(map(tuple, CG2))
        assert on == {cg1, cg2}
        assert off == {cg1}
        assert time.perf_counter() - start < 1.0


def test_hash_key_and_termination_example():
    with criterion("hash key {(0,4),(1,3)} and termination via P1 with rho (0,1,3)"):
        start = time.perf_counter()
        db = parse_dataset_text(SAMPLE_TEXT)
        mined = mine_closed(db, MiningConfig(min_support=2, mode="closed"))
        cght = ClosedGraphHashTable()
        buckets = {p.discovery_index: project_code(p.code, db) for p in mined}
        for p in mined:
            add_closed_graph(cght, ClosedGraphRecord(p, buckets[p.discovery_index]))
        alpha = DFSCode([(0, 1, W, EA, X), (1, 2, X, ED, Z)])
        proj = project_code(alpha, db)
        # The images of edge (1, 2), alpha's last.
        key = frozenset((gid, e[2]) for gid, e in zip(proj.gids, proj.edges))
        assert key == frozenset({(0, 4), (1, 3)})
        terminate, record, rho = early_termination(alpha, proj, cght)
        assert terminate
        assert tuple(map(tuple, record.pattern.code)) == tuple(map(tuple, P1))
        assert rho == (0, 1, 3)
        # The cover implies the paper's key: P1's edge rho(1)-rho(2) has
        # exactly the images of alpha's last edge, read off the bucket P1
        # was inserted with (the lookup dropped the record's own).
        code = record.pattern.code
        pos = [frozenset((t[0], t[1])) for t in code].index(frozenset((rho[1], rho[2])))
        assert edge_image_sets(code, buckets[record.pattern.discovery_index])[pos] == key
        assert time.perf_counter() - start < 1.0


def test_hash_table_state():
    with criterion("closed-graph hash table: 5 edge image sets, {(0,5),(1,4)} in both"):
        start = time.perf_counter()
        db = parse_dataset_text(SAMPLE_TEXT)
        mined = mine_closed(db, MiningConfig(min_support=2, mode="closed"))
        cght = ClosedGraphHashTable()
        for p in mined:
            add_closed_graph(cght, ClosedGraphRecord(p, project_code(p.code, db)))
        # Both patterns occur in graphs 0 and 1 and share one support set.
        assert list(cght) == [(0, 1)]
        names = {tuple(map(tuple, P1)): "p1", tuple(map(tuple, P2)): "p2"}
        state: dict[tuple, list[str]] = {}
        for record in cght[(0, 1)]:
            code = record.pattern.code
            for images in dict.fromkeys(edge_image_sets(code, record.bucket)):
                state.setdefault(tuple(sorted(images)), []).append(names[tuple(map(tuple, code))])
        assert state == {
            ((0, 1), (1, 0)): ["p1"],
            ((0, 2), (1, 1)): ["p1"],
            ((0, 4), (1, 3)): ["p1"],
            ((0, 5), (1, 4)): ["p1", "p2"],
            ((0, 0), (0, 1), (1, 0)): ["p2"],
        }
        assert time.perf_counter() - start < 1.0


# ------------------------------------------------- 2. dataset regressions


@needs_chemical
@pytest.mark.parametrize(
    "support,frequent_count,closed_count", [(0.10, 844, 459), (0.05, 3608, 1771)]
)
def test_chemical_counts(support, frequent_count, closed_count):
    with criterion(
        f"Chemical_340 @ {support:.0%}: frequent {frequent_count}, closed {closed_count}"
    ):
        db = parse_dataset(CHEMICAL)
        frequent = mine_frequent(db, MiningConfig(min_support=support))
        assert len(frequent) == frequent_count
        closed = mine_closed(db, MiningConfig(min_support=support, mode="closed"))
        assert len(closed) == closed_count


@needs_compounds
@pytest.mark.parametrize(
    "support,frequent_count,closed_count", [(0.10, 15832, 1246), (0.08, 24402, 1856)]
)
def test_compounds_counts(support, frequent_count, closed_count):
    with criterion(
        f"Compounds_422 @ {support:.0%}: frequent {frequent_count}, closed {closed_count}"
    ):
        db = parse_dataset(COMPOUNDS)
        frequent = mine_frequent(db, MiningConfig(min_support=support))
        assert len(frequent) == frequent_count
        closed = mine_closed(db, MiningConfig(min_support=support, mode="closed"))
        assert len(closed) == closed_count


@needs_compounds
@pytest.mark.parametrize("support,no_etf_count", [(0.10, 1092), (0.08, 1576)])
def test_compounds_no_etf_counts(support, no_etf_count):
    with criterion(f"Compounds_422 closed-no-etf @ {support:.0%}: {no_etf_count}"):
        db = parse_dataset(COMPOUNDS)
        off = mine_closed(db, MiningConfig(min_support=support, mode="closed_no_etf"))
        assert len(off) == no_etf_count


@needs_chemical
def test_chemical_no_etf_ablation():
    with criterion("Chemical_340: no-etf equals closed at 10-6%, 1765 vs 1771 at 5%"):
        db = parse_dataset(CHEMICAL)
        for support in (0.10, 0.09, 0.08, 0.07, 0.06):
            on = key_set(mine_closed(db, MiningConfig(min_support=support, mode="closed")))
            off = key_set(
                mine_closed(db, MiningConfig(min_support=support, mode="closed_no_etf"))
            )
            assert on == off, f"mode sets diverge at {support:.0%}"
        on = mine_closed(db, MiningConfig(min_support=0.05, mode="closed"))
        off = mine_closed(db, MiningConfig(min_support=0.05, mode="closed_no_etf"))
        assert len(on) == 1771
        assert len(off) == 1765


# ------------------------------------------------- 3. performance direction


@needs_compounds
def test_closed_mining_is_faster_than_frequent():
    with criterion("Compounds_422 @ 7%: closed wall < 0.5 x frequent wall"):
        db = parse_dataset(COMPOUNDS)
        t0 = time.perf_counter()
        mine_frequent(db, MiningConfig(min_support=0.07))
        t1 = time.perf_counter()
        mine_closed(db, MiningConfig(min_support=0.07, mode="closed"))
        t2 = time.perf_counter()
        frequent_wall, closed_wall = t1 - t0, t2 - t1
        assert closed_wall < 0.5 * frequent_wall, (
            f"closed {closed_wall:.2f}s vs frequent {frequent_wall:.2f}s"
        )


# ------------------------------------------------- 4. property-based suites


def test_oracle_equivalence_on_seeded_databases():
    with criterion("oracle equivalence: 100 seeded databases, supports 2 and 3"):
        rng = random.Random(20260819)
        for i in range(100):
            db = random_database(rng, n_graphs=rng.randint(5, 10))
            for sup in (2, 3):
                verdict = closed_verdict(db, sup)
                assert verdict.closed_ok and verdict.no_etf_ok, f"db {i} support {sup}"


def test_canonical_form_oracle_exhaustive():
    # Isomorphic graphs have the same DFS codes, so the graphs fall into
    # classes keyed by their brute-force minimum, each with one code set,
    # and is_min runs once per distinct code.
    with criterion(
        "canonical form: min_dfs_code and is_min match brute force on all"
        " connected <=4-edge graphs over a 2x2 alphabet"
    ):
        graphs = 0
        classes: dict[tuple, frozenset] = {}
        for g in connected_labeled_graphs(max_edges=4, n_vlabels=2, n_elabels=2):
            graphs += 1
            codes = all_dfs_codes(g)
            expected = least_code(codes)
            assert tuple(min_dfs_code(g)) == expected
            assert classes.setdefault(expected, frozenset(codes)) == frozenset(codes)
        distinct = 0
        for expected, codes in classes.items():
            for c in codes:
                assert is_min(DFSCode(c)) == (c == expected)
                distinct += 1
        assert (graphs, len(classes), distinct) == (70056, 1031, 9736)


def test_order_laws_on_random_inputs():
    # The package's one tuple order is a sort key, so it is a strict order
    # by construction; it must also be total on tuples extending one code
    # and agree with the order restated from its definition.
    with criterion("order laws: strict total order on 10^4 random inputs"):
        from graphmine.dfscode import child_sort_key

        rng = random.Random(97)
        for _ in range(10_000):
            draw = extension_family(rng)
            a, b = draw(), draw()
            ka, kb = child_sort_key(a), child_sort_key(b)
            assert (ka < kb) == tuple_precedes(a, b)
            assert (kb < ka) == tuple_precedes(b, a)
            assert (ka == kb) == (a == b)


def test_counting_oracle_on_random_databases():
    with criterion("counting: support/occurrence/equivalence match brute force"):
        from graphmine.embeddings import containing_graphs, rightmost_extensions

        rng = random.Random(4242)
        for _ in range(6):
            db = random_database(rng, n_graphs=rng.randint(4, 7))
            mined = mine_frequent(db, MiningConfig(min_support=2))
            for p in mined:
                projected = project_code(p.code, db)
                total = total_occurrence(p.code, db)
                assert p.occurrence == len(projected) == total
                oracle_exts = all_extensions(p.code, db)
                gids = {
                    gid for parents in oracle_exts.values() for gid, _ in parents
                }
                assert len(containing_graphs(projected)) == p.support
                rm = reference_rightmost_extensions(
                    p.code, projected, db, restricted=False
                )
                scanned = rightmost_extensions(p.code, projected, db)
                assert scanned.keys() <= rm.keys()
                for t, bucket in scanned.items():
                    assert_links_match(bucket, rm[t])
                for t, hits in rm.items():
                    covered = len(oracle_exts[rm_as_key(t)])
                    assert as_bucket(projected, hits).covers_parent() == (covered == total)
                    if t in scanned:
                        assert scanned[t].covers_parent() == (covered == total)


def test_determinism():
    with criterion("determinism: byte-identical pattern files and equal stats"):
        rng = random.Random(7)
        dbs = [parse_dataset_text(SAMPLE_TEXT), parse_dataset_text(ETF_TEXT)]
        dbs += [random_database(rng) for _ in range(3)]
        for db in dbs:
            for mode in ("frequent", "closed", "closed_no_etf"):
                outputs = []
                stats_dicts = []
                for _ in range(2):
                    stats = MiningStats()
                    config = MiningConfig(min_support=2, mode=mode)
                    patterns = mine(db, config, stats)
                    outputs.append(write_patterns(patterns, db))
                    stats_dicts.append(stats.as_dict())
                assert outputs[0] == outputs[1]
                assert stats_dicts[0] == stats_dicts[1]
