"""Transactional graph dataset parsing and pattern serialization.

File format, one record per line, whitespace separated:

    t # <graph-id>        start of a graph; an integer suffix ``* <n>`` is
                          the only thing allowed after the id, so mining
                          output is itself parseable
    v <vid> <label>       vertex
    e <u> <v> <label>     undirected edge between existing vertices
    x ...                 ignored (pattern-file occurrence lists)
    t # -1                explicit terminator; EOF works too

Labels: when every label token in a namespace (vertex or edge) is an integer
written the way ``str`` writes it (ASCII digits, an optional leading ``-``,
no leading zeros), the numeric values are used directly; otherwise tokens are
interned to ints by first appearance and the vocabulary is kept for output.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import TextIO

from .graphs import GraphDatabase, LabeledGraph


class DatasetError(ValueError):
    """Malformed dataset input; the message names the offending line."""


def _fail(lineno: int, msg: str):
    raise DatasetError(f"line {lineno}: {msg}")


def parse_dataset(source: str | Path | TextIO) -> GraphDatabase:
    """Parse a transactional graph file into a GraphDatabase.

    A file that is not UTF-8 raises DatasetError naming the line and byte
    offset of its first bad byte. A stream cannot be read again to place
    the byte, so for a stream the error names the byte alone.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return _parse(fh)
        except UnicodeDecodeError:
            raise _not_utf8(Path(source).read_bytes()) from None
    try:
        return _parse(source)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None


def _not_utf8(data: bytes) -> DatasetError:
    """The error for a file the text reader could not decode. That reader
    decodes in chunks, so its error's offset is within a chunk; the file's
    bytes are decoded again to place the first bad byte."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        return DatasetError(f"line {lineno}: byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8")
    return DatasetError("the file is not UTF-8")


def parse_dataset_text(text: str) -> GraphDatabase:
    """Parse dataset content given directly as a string."""
    return _parse(io.StringIO(text))


def _parse(fh: TextIO) -> GraphDatabase:
    # First pass over records: raw tokens, validated structurally.
    raw: list[tuple[int, list, list]] = []  # (original id, vlines, elines)
    seen_ids: set[int] = set()
    current = None
    vtokens: list[str] = []
    etokens: list[str] = []
    for lineno, line in enumerate(fh, start=1):
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "t":
            suffix = parts[3:]
            if len(parts) < 3 or parts[1] != "#" or suffix and (
                len(suffix) != 2 or suffix[0] != "*" or not _INT_LABEL.fullmatch(suffix[1])
            ):
                _fail(lineno, f"malformed graph header {line.strip()!r}")
            try:
                gid = int(parts[2])
            except ValueError:
                _fail(lineno, f"graph id {parts[2]!r} is not an integer")
            if gid == -1:
                break
            if gid in seen_ids:
                _fail(lineno, f"repeated graph id {gid}")
            seen_ids.add(gid)
            current = (gid, [], [])
            raw.append(current)
        elif kind == "v":
            if current is None:
                _fail(lineno, "vertex line before any graph header")
            if len(parts) != 3:
                _fail(lineno, f"malformed vertex line {line.strip()!r}")
            try:
                vid = int(parts[1])
            except ValueError:
                _fail(lineno, f"vertex id {parts[1]!r} is not an integer")
            current[1].append((lineno, vid, parts[2]))
            vtokens.append(parts[2])
        elif kind == "e":
            if current is None:
                _fail(lineno, "edge line before any graph header")
            if len(parts) != 4:
                _fail(lineno, f"malformed edge line {line.strip()!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                _fail(lineno, f"edge endpoints {parts[1]!r}, {parts[2]!r} must be integers")
            current[2].append((lineno, u, v, parts[3]))
            etokens.append(parts[3])
        elif kind == "x":
            continue
        else:
            _fail(lineno, f"unknown record type {kind!r}")

    vmap, vnames = _label_mapping(vtokens)
    emap, enames = _label_mapping(etokens)

    graphs: list[LabeledGraph] = []
    for original_id, vlines, elines in raw:
        g = LabeledGraph()
        vid_map: dict[int, int] = {}
        for lineno, vid, tok in vlines:
            if vid in vid_map:
                _fail(lineno, f"graph {original_id}: duplicate vertex id {vid}")
            vid_map[vid] = g.add_vertex(vmap[tok])
        for lineno, u, v, tok in elines:
            if u not in vid_map or v not in vid_map:
                _fail(lineno, f"graph {original_id}: edge to nonexistent vertex {u if u not in vid_map else v}")
            try:
                g.add_edge(vid_map[u], vid_map[v], emap[tok])
            except ValueError as exc:
                _fail(lineno, f"graph {original_id}: {exc}")
        graphs.append(g)
    return GraphDatabase(graphs, [rec[0] for rec in raw], vnames, enames)


_INT_LABEL = re.compile(r"0|-?[1-9][0-9]*")


def _label_mapping(tokens: list[str]) -> tuple[dict[str, int], list[str] | None]:
    """Numeric tokens map to their own values; otherwise intern by appearance.

    A namespace is numeric only when each distinct token is the ``str`` of
    its integer, so no two distinct tokens share a value: ``int`` alone also
    reads ``1_0``, non-ASCII digits and ``007``, which would merge them with
    ``10``, ``3`` and ``7``.
    """
    distinct = dict.fromkeys(tokens)
    if all(_INT_LABEL.fullmatch(tok) for tok in distinct):
        return {tok: int(tok) for tok in distinct}, None
    return {tok: i for i, tok in enumerate(distinct)}, list(distinct)


def dump_dataset(db: GraphDatabase, dest: TextIO | None = None) -> str | None:
    """Serialize a database in the input format; round-trips through
    parse_dataset modulo id densification."""
    out = io.StringIO() if dest is None else dest
    for g, original_id in zip(db.graphs, db.original_ids):
        out.write(f"t # {original_id}\n")
        for vid, lbl in enumerate(g.vlabels):
            out.write(f"v {vid} {db.vertex_label_name(lbl)}\n")
        for u, v, elb in g.edges:
            out.write(f"e {u} {v} {db.edge_label_name(elb)}\n")
    if dest is None:
        return out.getvalue()
    return None


def write_patterns(patterns, db: GraphDatabase, dest: TextIO | None = None) -> str | None:
    """Serialize mined patterns deterministically.

    Per pattern: a ``t # <discovery_index> * <support>`` header, the vertices
    and edges of its minimum DFS code, and an ``x`` line listing the original
    ids of the containing graphs in ascending order.
    """
    out = io.StringIO() if dest is None else dest
    for p in patterns:
        out.write(f"t # {p.discovery_index} * {p.support}\n")
        vlabels: dict[int, int] = {}
        for t in p.code:
            vlabels.setdefault(t.frm, t.lbl_frm)
            vlabels.setdefault(t.to, t.lbl_to)
        for vid in range(len(vlabels)):
            out.write(f"v {vid} {db.vertex_label_name(vlabels[vid])}\n")
        for t in p.code:
            out.write(f"e {t.frm} {t.to} {db.edge_label_name(t.lbl_edge)}\n")
        gids = " ".join(str(db.original_ids[g]) for g in p.containing_graphs)
        out.write(f"x {gids}\n")
    if dest is None:
        return out.getvalue()
    return None
