#!/usr/bin/env python3
"""Step-by-step tour of early termination and its failure handling.

The closed miner cuts a branch when the pattern at its root has equivalent
occurrence with an already-stored closed graph: every occurrence of the
pattern extends to an occurrence of that graph, so nothing below the branch
can be closed. The cut is usually sound, but a stored graph can shadow a
branch that still hides an unreached closed pattern; the miner therefore
registers every prefix of such risky codes as unsafe (detect_etf) and
abandons exactly the terminations that walk into one (reject_early_termination).

This database is the smallest shape that trips the failure: cutting the
branch of X(-a-Y)(-c-Z) after storing X(-a-Y-b-X)(-c-Z) would lose the
closed pattern X(-a-Y)(-c-Z-d-X). The script first shows the end-to-end
difference between the two modes, then replays the low-level calls.
"""

from __future__ import annotations

from graphmine import MiningConfig, MiningStats, mine_closed, parse_dataset_text, verify_run
from graphmine.cgspan import (
    ClosedGraphHashTable,
    ClosedGraphRecord,
    add_closed_graph,
    detect_etf,
    early_termination,
    reject_early_termination,
)
from graphmine.dfscode import DFSCode
from graphmine.embeddings import containing_graphs, project_code

LINE = "=" * 72

DB_TEXT = """t # 0
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

# Interned label ids, in order of first appearance in the text above.
X, Y, Z = 0, 1, 2
A, B, C, D = 0, 1, 2, 3

# The two closed patterns at support 2, as minimum DFS codes.
CG1 = DFSCode([(0, 1, X, A, Y), (1, 2, Y, B, X), (0, 3, X, C, Z)])  # X(-a-Y-b-X)(-c-Z)
CG2 = DFSCode([(0, 1, X, A, Y), (0, 2, X, C, Z), (2, 3, Z, D, X)])  # X(-a-Y)(-c-Z-d-X)

# The pattern whose branch the table tries to cut; CG2 lives below it.
DOOMED = DFSCode([(0, 1, X, A, Y), (0, 2, X, C, Z)])  # X(-a-Y)(-c-Z)


def render(code, db) -> str:
    vlabels: dict[int, int] = {}
    for t in code:
        vlabels.setdefault(t[0], t[2])
        vlabels.setdefault(t[1], t[4])
    verts = " ".join(f"{v}:{db.vertex_label_name(vlabels[v])}" for v in sorted(vlabels))
    edges = " ".join(f"{t[0]}-{db.edge_label_name(t[3])}-{t[1]}" for t in code)
    return f"[{verts}]  {edges}"


def main() -> int:
    db = parse_dataset_text(DB_TEXT)

    print(LINE)
    print("part 1: what failure handling buys, end to end")
    print(LINE)
    for mode in ("closed", "closed_no_etf"):
        stats = MiningStats()
        found = mine_closed(db, MiningConfig(min_support=2, mode=mode), stats)
        noun = "pattern" if len(found) == 1 else "patterns"
        print(f"\nmode={mode}: {len(found)} {noun}")
        for p in found:
            print(f"  {render(p.code, db)}")
        print(f"  terminations applied={stats.early_terminations_applied} "
              f"rejected={stats.early_terminations_rejected} "
              f"unsafe prefixes={stats.trie_size}")
        report = verify_run(db, MiningConfig(min_support=2, mode=mode))
        print(f"  oracle verdict: {'match' if report.ok else 'MISMATCH'}")
        for code in report.missing:
            print(f"    lost pattern: {render(code, db)}")

    print()
    print(LINE)
    print("part 2: the same decision replayed call by call")
    print(LINE)

    print(f"\nstored closed graph: {render(CG1, db)}")
    chains = project_code(CG1, db)
    record = ClosedGraphRecord(CG1, chains, 0, containing_graphs(chains))
    cght = ClosedGraphHashTable()
    add_closed_graph(cght, record)
    graphs = sorted(next(iter(cght)))
    print(f"hash table files it under its support set, graphs {graphs}; a lookup")
    print("reads the records of the pattern's own support set and no other.")

    print(f"\ncandidate for termination: {render(DOOMED, db)}")
    projected = project_code(DOOMED, db)
    terminate, rec, rho = early_termination(DOOMED, projected, cght)
    print(f"early_termination -> {terminate}, via stored graph #{rec.discovery_index}, "
          f"vertex map rho={rho}")
    print("every occurrence of the candidate extends to an occurrence of the")
    print("stored graph, so plain early termination would cut the branch here.")

    unsafe: set = set()
    registered = detect_etf(CG1, unsafe)
    print(f"\ndetect_etf on the stored graph's code -> {registered}")
    print("deleting its dfs-vertex 1 (the Y hub) leaves X-c-Z, a part that is")
    print("not in the code's parent and sorts after the code itself: a branch")
    print("that has not been searched yet. The code and its prefixes are now unsafe.")

    rejected = reject_early_termination(DOOMED, rec, rho, unsafe)
    print(f"\nreject_early_termination -> {rejected}")
    print("the candidate's edges map into the registered code's risky prefix,")
    print("so the cut is abandoned and the branch stays open; mining it finds")
    print(f"  {render(CG2, db)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
