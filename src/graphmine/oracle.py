"""Brute-force closure oracle.

Everything here recomputes embeddings from scratch with
``graphs.subgraph_isomorphisms`` over the whole database. With the miners
it shares only the graph containers and canonical forms; it uses none of
their embedding lists, right-most extension scan or closed-graph hash
table. Intended for verification at desk scale, not for large datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .dfscode import DFSCode, code_to_graph
from .graphs import GraphDatabase, subgraph_isomorphisms


class ExtensionKey(NamedTuple):
    """Abstract description of a one-edge extension.

    kind 'f': a new vertex with label ``lbl_to`` hung on pattern vertex
    ``at`` by an edge labeled ``lbl_edge`` (``other`` is -1).
    kind 'b': a new edge labeled ``lbl_edge`` between pattern vertices
    ``at`` and ``other`` (at < other, ``lbl_to`` is -1).
    """

    kind: str
    at: int
    other: int
    lbl_edge: int
    lbl_to: int


def all_extensions(code: Sequence[Sequence[int]], db: GraphDatabase) -> dict[ExtensionKey, set]:
    """Every realized one-edge extension of the pattern, from any vertex,
    mapped to the set of parents it covers.

    A covered parent is an embedding ``(gid, parent map)`` of the pattern
    that extends that way, under the identity inclusion of the pattern in
    its child; the extension has equivalent occurrence with the pattern iff
    it covers every embedding in the database.
    """
    return _extensions_and_occurrence(code, db)[0]


def _extensions_and_occurrence(
    code: Sequence[Sequence[int]], db: GraphDatabase
) -> tuple[dict[ExtensionKey, set], int]:
    """``all_extensions`` plus the number of embeddings it walked, which is
    ``total_occurrence``."""
    pattern = code_to_graph(code)
    n = pattern.vertex_count
    existing = {frozenset((u, v)) for u, v, _ in pattern.edges}
    found: dict[ExtensionKey, set] = {}
    total = 0

    for gid, g in enumerate(db.graphs):
        vl = g.vlabels
        for fmap in subgraph_isomorphisms(pattern, g):
            total += 1
            parent = (gid, fmap)
            image = set(fmap)
            inverse = {img: k for k, img in enumerate(fmap)}
            for k in range(n):
                for frm, to, eid, elb in g.adj[fmap[k]]:
                    if to in image:
                        j = inverse[to]
                        if frozenset((k, j)) in existing or k > j:
                            continue
                        key = ExtensionKey("b", k, j, elb, -1)
                    else:
                        key = ExtensionKey("f", k, -1, elb, vl[to])
                    found.setdefault(key, set()).add(parent)
    return found, total


def total_occurrence(code: Sequence[Sequence[int]], db: GraphDatabase) -> int:
    pattern = code_to_graph(code)
    return sum(1 for g in db.graphs for _ in subgraph_isomorphisms(pattern, g))


def is_closed(code: Sequence[Sequence[int]], db: GraphDatabase) -> bool:
    """True iff no one-edge extension has equivalent occurrence."""
    found, total = _extensions_and_occurrence(code, db)
    return all(len(parents) != total for parents in found.values())


def filter_closed(patterns: Sequence, db: GraphDatabase) -> list:
    """The closed subset of mined patterns, order preserved."""
    return [p for p in patterns if is_closed(p.code, db)]


@dataclass
class VerifyReport:
    ok: bool
    mined_count: int
    oracle_count: int
    missing: list[DFSCode]  # closed per oracle, absent from the mined set
    extra: list[DFSCode]  # mined, not closed per oracle

    def lines(self) -> list[str]:
        out = [
            f"mined closed patterns:  {self.mined_count}",
            f"oracle closed patterns: {self.oracle_count}",
        ]
        for code in self.missing:
            out.append(f"missing: {code!r}")
        for code in self.extra:
            out.append(f"extra:   {code!r}")
        out.append("verdict: " + ("match" if self.ok else "MISMATCH"))
        return out


def verify_run(db: GraphDatabase, config=None) -> VerifyReport:
    """Compare mine_closed against the oracle filter over mine_frequent."""
    from .cgspan import mine_closed
    from .gspan import MiningConfig, mine_frequent

    config = config or MiningConfig(mode="closed")
    mined = mine_closed(db, config)
    expected = filter_closed(mine_frequent(db, replace(config, mode="frequent")), db)

    mined_keys = {tuple(map(tuple, p.code)) for p in mined}
    oracle_keys = {tuple(map(tuple, p.code)) for p in expected}
    missing = sorted(oracle_keys - mined_keys)
    extra = sorted(mined_keys - oracle_keys)
    return VerifyReport(
        ok=not missing and not extra,
        mined_count=len(mined),
        oracle_count=len(expected),
        missing=[DFSCode(c) for c in missing],
        extra=[DFSCode(c) for c in extra],
    )
