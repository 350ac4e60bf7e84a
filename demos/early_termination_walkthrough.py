#!/usr/bin/env python3
"""Step-by-step tour of early termination and the closure check.

Mode closed_no_etf runs the paper's Early Termination: it cuts a branch
when the pattern at its root has equivalent occurrence with an
already-stored closed graph, so every occurrence of the pattern extends to
an occurrence of that graph. The cut is usually sound, but a stored graph
can shadow a branch that still hides an unreached closed pattern, and this
mode has no failure detection to stop it. Mode closed cuts nothing: it
visits every frequent pattern and emits those that the closure check
keeps.

This database is the smallest shape that trips the failure: cutting the
branch of X(-a-Y)(-c-Z) after storing X(-a-Y-b-X)(-c-Z) loses the closed
pattern X(-a-Y)(-c-Z-d-X). The script first shows the end-to-end
difference between the two modes, then replays the low-level calls.
"""

from __future__ import annotations

from graphmine import MiningConfig, MiningStats, mine_closed, parse_dataset_text, verify_run
from graphmine.cgspan import (
    ClosedGraphHashTable,
    ClosedGraphRecord,
    add_closed_graph,
    early_termination,
    equivalent_occurrence,
)
from graphmine.dfscode import DFSCode
from graphmine.embeddings import project_code, rightmost_extensions

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

# The pattern whose branch the table cuts; CG2 lives below it.
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
    print("part 1: what an unchecked cut costs, end to end")
    print(LINE)
    mined = {}
    for mode in ("closed", "closed_no_etf"):
        stats = MiningStats()
        found = mined[mode] = mine_closed(db, MiningConfig(min_support=2, mode=mode), stats)
        noun = "pattern" if len(found) == 1 else "patterns"
        print(f"\nmode={mode}: {len(found)} {noun}")
        for p in found:
            print(f"  {render(p.code, db)}")
        print(f"  nodes visited={stats.visited_nodes} "
              f"terminations applied={stats.early_terminations_applied}")
        report = verify_run(db, MiningConfig(min_support=2, mode=mode))
        print(f"  oracle verdict: {'match' if report.ok else 'MISMATCH'}")
        for code in report.missing:
            print(f"    lost pattern: {render(code, db)}")

    print()
    print(LINE)
    print("part 2: the same decision replayed call by call")
    print(LINE)

    print(f"\nstored closed graph: {render(CG1, db)}")
    (cg1,) = [p for p in mined["closed"] if p.code == CG1]
    cght = ClosedGraphHashTable()
    add_closed_graph(cght, ClosedGraphRecord(cg1, project_code(CG1, db)))
    graphs = sorted(next(iter(cght)))
    print(f"hash table files it under its support set, graphs {graphs}; a lookup")
    print("reads the records of the pattern's own support set and no other.")

    print(f"\ncandidate for termination: {render(DOOMED, db)}")
    projected = project_code(DOOMED, db)
    terminate, rec, rho = early_termination(DOOMED, projected, cght)
    print(f"early_termination -> {terminate}, via stored graph #{rec.pattern.discovery_index}, "
          f"vertex map rho={rho}")
    print("every occurrence of the candidate extends to an occurrence of the")
    print("stored graph, so mode closed_no_etf cuts the branch here and never")
    print(f"reaches its child {render(CG2, db)}")

    print("\nmode closed makes no lookup and cuts nothing. It settles each pattern")
    print("by one closure check, equivalent_occurrence: is there a one-edge")
    print("extension that extends every occurrence? It asks the frequent")
    print("right-most extensions first, then walks the hits for the extensions")
    print("the scan does not build.")
    for code in (DOOMED, CG2):
        projected = project_code(code, db)
        exts = rightmost_extensions(code, projected, db)
        kept = {t: b for t, b in exts.items() if b.support() >= 2}
        covering = [t for t, b in kept.items() if b.covers_parent()]
        answer = equivalent_occurrence(code, projected, db, kept)
        verdict = "not closed" if answer else "closed, emitted"
        print(f"\n  {render(code, db)}")
        print(f"    frequent extensions that extend every occurrence: {covering}")
        print(f"    equivalent_occurrence -> {answer}: {verdict}")
    print("\nthe candidate is not closed, as the stored graph proved, but its branch")
    print("stays open: the search visits its child and keeps it.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
