import io
import random

import pytest

from graphmine import MiningConfig, mine_closed
from graphmine.datasets import (
    DatasetError,
    dump_dataset,
    parse_dataset,
    parse_dataset_text,
    write_patterns,
)
from graphmine.graphs import GraphDatabase, LabeledGraph

from conftest import SAMPLE_TEXT, random_database


def test_parse_sample_interning(sample_db):
    assert len(sample_db) == 2
    assert sample_db.vlabel_names == ["W", "X", "Y", "S", "Z", "T"]
    assert sample_db.elabel_names == ["a", "b", "c", "d", "f", "e"]
    g1, g2 = sample_db.graphs
    assert g1.vlabels == [0, 1, 1, 2, 3, 4]
    assert g2.vlabels == [0, 1, 2, 5, 4]
    assert g1.edges[4] == (2, 5, 3)  # X-d-Z sits at edge id 4
    assert g2.edges[4] == (0, 4, 4)  # W-f-Z sits at edge id 4
    assert sample_db.original_ids == [0, 1]


def test_parse_accepts_arbitrary_tokens_and_blank_lines():
    db = parse_dataset_text("t # 9\nv 0 C6H6\nv 1 H2O\n\ne 0 1 bond-1\n")
    assert db.vlabel_names == ["C6H6", "H2O"]
    assert db.elabel_names == ["bond-1"]
    assert db.original_ids == [9]


def test_parse_reports_line_numbers():
    with pytest.raises(DatasetError, match="line 3"):
        parse_dataset_text("t # 0\nv 0 A\nq 1 2\n")


@pytest.mark.parametrize(
    "text",
    [
        "v 0 A\n",  # vertex before any graph header
        "t # 0\ne 0 1 x\n",  # edge before its vertices
        "t # 0\nv 0 A\nv 1 A\ne 0 1 x\ne 1 0 x\n",  # duplicate edge
        "t # 0\nv 0 A\ne 0 0 x\n",  # self loop
        "t # 0\nv 0 A\nv 1 A\ne 0 2 x\n",  # dangling endpoint
        "t # 0\nv 0 A\nv 0 A\n",  # repeated vertex id
        "t 0\nv 0 A\n",  # malformed header
        "t # 0 garbage\nv 0 A\n",  # a token after the id that is not a count
        "t # 0 * x\nv 0 A\n",  # a count that is not an integer
        "t # 0 *\nv 0 A\n",  # a count marker without a count
        "t # 0\nv 0\n",  # missing vertex label
        "t # 0\nv 0 A\nv 1 A\ne 0 1\n",  # missing edge label
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(DatasetError):
        parse_dataset_text(text)


def test_parse_rejects_repeated_graph_id():
    text = "t # 0\nv 0 A\nv 1 B\ne 0 1 x\nt # 1\nv 0 A\nt # 0\nv 0 A\nv 1 B\ne 0 1 x\n"
    with pytest.raises(DatasetError, match="line 7: repeated graph id 0"):
        parse_dataset_text(text)


def test_numeric_labels_pass_through():
    db = parse_dataset_text("t # 0\nv 0 5\nv 1 2\ne 0 1 7\n")
    assert db.vlabel_names is None and db.elabel_names is None
    assert db.graphs[0].vlabels == [5, 2]
    assert db.graphs[0].edges == [(0, 1, 7)]
    assert db.vertex_label_name(5) == "5"


def test_negative_labels_pass_through():
    db = parse_dataset_text("t # 0\nv 0 -3\nv 1 3\ne 0 1 -1\n")
    assert db.vlabel_names is None and db.elabel_names is None
    assert db.graphs[0].vlabels == [-3, 3]
    assert db.graphs[0].edges == [(0, 1, -1)]


@pytest.mark.parametrize("odd", ["1_0", "\u0661\u0660", "010", "+10"])
def test_tokens_int_reads_as_ten_stay_distinct_from_10(odd):
    # int() reads each of these as 10 (Arabic-Indic digits included), which
    # would merge it with the label 10; the namespace is interned instead.
    text = f"t # 0\nv 0 {odd}\nv 1 10\nv 2 -3\ne 0 1 0\ne 1 2 0\n"
    db = parse_dataset_text(text)
    assert db.graphs[0].vlabels == [0, 1, 2]
    assert db.vlabel_names == [odd, "10", "-3"]
    assert db.elabel_names is None
    assert dump_dataset(db) == text


def test_terminator_and_pattern_lines_ignored():
    db = parse_dataset_text("t # 0\nv 0 A\nv 1 B\ne 0 1 x\nx 0 1 2\nt # -1\nt # 9\n")
    assert len(db) == 1  # records after the -1 terminator are not read


def test_dump_round_trip(sample_db):
    text = dump_dataset(sample_db)
    again = parse_dataset_text(text)
    assert dump_dataset(again) == text
    assert [g.vlabels for g in again] == [g.vlabels for g in sample_db]
    assert [g.edges for g in again] == [g.edges for g in sample_db]


def test_dump_rejects_the_terminator_id():
    # Written as ``t # -1``, the id would end the file at that graph, so
    # no database holds it.
    graphs = parse_dataset_text("t # 0\nv 0 A\nt # 1\nv 0 B\nt # 2\nv 0 C\n").graphs
    with pytest.raises(ValueError, match="-1"):
        GraphDatabase(graphs, [5, -1, 7])


def two_vertex_database(vlabels, elabel):
    g = LabeledGraph()
    for lbl in vlabels:
        g.add_vertex(lbl)
    g.add_edge(0, 1, elabel)
    return GraphDatabase([g], [0], ["A", "B"], ["e", "f"])


@pytest.mark.parametrize("vlabels,bad", [([-1, 0], -1), ([0, 2], 2)])
def test_dump_rejects_a_vertex_label_without_a_name(vlabels, bad):
    # Indexed as is, label -1 would be written as the last name and label 2
    # would raise a bare IndexError.
    db = two_vertex_database(vlabels, 0)
    with pytest.raises(ValueError, match=f"vertex label {bad} has no name"):
        dump_dataset(db)
    with pytest.raises(ValueError, match=f"vertex label {bad} has no name"):
        db.vertex_label_name(bad)


@pytest.mark.parametrize("bad", [-1, 2])
def test_dump_rejects_an_edge_label_without_a_name(bad):
    db = two_vertex_database([0, 1], bad)
    with pytest.raises(ValueError, match=f"edge label {bad} has no name"):
        dump_dataset(db)
    with pytest.raises(ValueError, match=f"edge label {bad} has no name"):
        db.edge_label_name(bad)


def test_dump_round_trip_with_interned_names():
    # Any database with names for its labels dumps a file that parses
    # back to the same file, whatever the names look like.
    rng = random.Random(5)
    tokens = ["C", "N", "0", "01", "-1", "1_0", "x", "#", "t", "é"]
    for _ in range(30):
        db = random_database(rng)
        vnames = rng.sample(tokens, 3)
        enames = rng.sample(tokens, 2)
        db = GraphDatabase(db.graphs, rng.sample(range(100), len(db)), vnames, enames)
        text = dump_dataset(db)
        assert dump_dataset(parse_dataset_text(text)) == text


def test_parse_dataset_from_path(tmp_path):
    p = tmp_path / "d.graphs"
    p.write_text(SAMPLE_TEXT)
    db = parse_dataset(p)
    assert len(db) == 2


@pytest.mark.parametrize("graphs", [0, 1000])
def test_parse_names_the_first_byte_that_is_not_utf8(tmp_path, graphs):
    # The reader decodes in chunks, so a bad byte past the first chunk
    # (1000 graphs are 21 KiB) is placed by reading the file's bytes.
    good = b"".join(b"t # %d\nv 0 A\nv 1 B\ne 0 1 x\n" % i for i in range(graphs))
    p = tmp_path / "latin1.graphs"
    p.write_bytes(good + b"t # -5\nv 0 caf\xe9\n")
    offset = len(good) + len(b"t # -5\nv 0 caf")
    with pytest.raises(DatasetError, match=f"^line {4 * graphs + 2}: byte 0xe9 at offset {offset} is not UTF-8$"):
        parse_dataset(p)


def test_parse_names_the_byte_of_a_stream_that_is_not_utf8():
    stream = io.TextIOWrapper(io.BytesIO(b"t # 0\nv 0 caf\xe9\n"), encoding="utf-8")
    with pytest.raises(DatasetError, match="^byte 0xe9 is not UTF-8$"):
        parse_dataset(stream)


def test_write_patterns_golden(sample_db):
    patterns = mine_closed(sample_db, MiningConfig(min_support=2, mode="closed"))
    text = write_patterns(patterns, sample_db)
    assert text == (
        "t # 0 * 2\n"
        "v 0 W\n"
        "v 1 X\n"
        "v 2 Y\n"
        "v 3 Z\n"
        "e 0 1 a\n"
        "e 1 2 b\n"
        "e 1 3 d\n"
        "e 3 0 f\n"
        "x 0 1\n"
        "t # 1 * 2\n"
        "v 0 W\n"
        "v 1 X\n"
        "v 2 Z\n"
        "e 0 1 a\n"
        "e 0 2 f\n"
        "x 0 1\n"
    )


def test_pattern_files_reparse(sample_db):
    patterns = mine_closed(sample_db, MiningConfig(min_support=2, mode="closed"))
    text = write_patterns(patterns, sample_db)
    db = parse_dataset_text(text)
    assert len(db) == len(patterns)
    assert db.graphs[0].edge_count == 4
    assert db.graphs[1].edge_count == 2
