import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphmine
from graphmine import cli
from graphmine.cli import _support, _support_list, build_parser, main
from graphmine.datasets import parse_dataset_text, write_patterns
from graphmine.gspan import MiningConfig, mine_frequent


# ------------------------------------------------------- support parsing


@pytest.mark.parametrize(
    "text,value",
    [("2", 2), ("1", 1), ("340", 340), ("0.1", 0.1), ("1.0", 1.0), ("5e-2", 0.05)],
)
def test_support_values(text, value):
    got = _support(text)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("text", ["0", "-3", "0.0", "1.5", "-0.1", "junk", ""])
def test_support_rejects(text):
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _support(text)


def test_support_list():
    assert _support_list("0.1,0.08,2") == [0.1, 0.08, 2]
    assert _support_list("2,") == [2]


def test_parser_rejects_zero_support(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["mine", "--input", "x", "--min-support", "0"])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("supports", [",", ",,", ""])
def test_parser_rejects_a_support_list_without_values(supports, capsys):
    # Empty parts are skipped; a list of nothing else would benchmark
    # nothing and still exit 0.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["bench", "--input", "x", "--supports", supports])
    assert exc.value.code == 2
    assert "no support value" in capsys.readouterr().err


# ----------------------------------------------------------------- mine


def test_mine_to_stdout(sample_file, capsys):
    assert main(["mine", "--input", str(sample_file), "--min-support", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t # 0 * 2"
    assert sum(1 for line in lines if line.startswith("t #")) == 2


def test_mine_to_file_matches_library_output(sample_file, tmp_path, capsys):
    dest = tmp_path / "patterns.txt"
    code = main(
        [
            "mine",
            "--input",
            str(sample_file),
            "--min-support",
            "2",
            "--mode",
            "frequent",
            "--output",
            str(dest),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    db = parse_dataset_text(sample_file.read_text())
    expected = write_patterns(mine_frequent(db, MiningConfig(min_support=2)), db)
    assert dest.read_text() == expected


def test_mine_stats_json(sample_file, capsys):
    main(["mine", "--input", str(sample_file), "--min-support", "2", "--stats"])
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["schema"] == 1
    assert payload["pattern_count"] == 2
    assert payload["visited_nodes"] > 0
    assert payload["wall_secs"] >= 0
    assert set(payload) == {
        "schema",
        "visited_nodes",
        "pattern_count",
        "early_terminations_applied",
        "early_terminations_rejected",
        "trie_size",
        "wall_secs",
    }


def test_mine_mode_spelling(etf_file, capsys):
    # CLI mode names use hyphens; the internal mode names use underscores.
    assert main(["mine", "--input", str(etf_file), "--min-support", "2", "--mode", "closed-no-etf"]) == 0
    out = capsys.readouterr().out
    assert sum(1 for line in out.splitlines() if line.startswith("t #")) == 1


def test_mine_missing_input(tmp_path, capsys):
    missing = tmp_path / "nope.graphs"
    assert main(["mine", "--input", str(missing), "--min-support", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_mine_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.graphs"
    bad.write_text("t # 0\nv 0 A\ne 0 1 x\n")
    assert main(["mine", "--input", str(bad), "--min-support", "2"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 3" in err


def test_mine_rejects_repeated_graph_id(tmp_path, capsys):
    # Mined as two graphs, the edge would be reported as "x 0 0".
    bad = tmp_path / "twice.graphs"
    bad.write_text("t # 0\nv 0 A\nv 1 B\ne 0 1 x\nt # 0\nv 0 A\nv 1 B\ne 0 1 x\n")
    assert main(["mine", "--input", str(bad), "--min-support", "2", "--mode", "frequent"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "line 5" in captured.err
    assert "x 0 0" not in captured.out


def test_mine_unwritable_output_fails_before_mining(sample_file, tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("mined before the output was opened")

    monkeypatch.setattr(cli, "mine_closed", never)
    dest = tmp_path / "missing-dir" / "patterns.txt"
    code = main(["mine", "--input", str(sample_file), "--min-support", "2", "--output", str(dest)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["mine", "verify"])
def test_input_that_is_not_utf8_fails_with_one_error_line(tmp_path, capsys, command):
    bad = tmp_path / "latin1.graphs"
    bad.write_bytes(b"t # 0\nv 0 caf\xe9\nv 1 B\ne 0 1 x\n")
    assert main([command, "--input", str(bad), "--min-support", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: byte 0xe9 at offset 13 is not UTF-8\n"
    assert "Traceback" not in captured.err and captured.out == ""


# --------------------------------------------------------------- verify


def test_verify_match_exits_zero(sample_file, capsys):
    assert main(["verify", "--input", str(sample_file), "--min-support", "2"]) == 0
    out = capsys.readouterr().out
    assert "verdict: match" in out


def test_verify_mismatch_exits_one(etf_file, capsys):
    code = main(
        [
            "verify",
            "--input",
            str(etf_file),
            "--min-support",
            "2",
            "--mode",
            "closed-no-etf",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "verdict: MISMATCH" in out
    assert "missing:" in out


# ---------------------------------------------------------------- bench


def test_bench_csv(sample_file, tmp_path):
    dest = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--input",
            str(sample_file),
            "--supports",
            "2,1.0",
            "--output",
            str(dest),
        ]
    )
    assert code == 0
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == (
        "min_support,frequent_count,closed_count,closed_ratio,"
        "frequent_secs,closed_secs,ratio_secs"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2"
    assert first[1] == "14" and first[2] == "2"
    assert first[3] == f"{2 / 14:.4f}"
    # Support 1.0 is the fractional spelling of "every graph".
    assert lines[2].split(",")[1] == "14"


def test_bench_to_stdout(etf_file, capsys):
    assert main(["bench", "--input", str(etf_file), "--supports", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("min_support,")


def test_bench_unwritable_output_fails_before_mining(sample_file, tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("mined before the output was opened")

    monkeypatch.setattr(cli, "mine_frequent", never)
    dest = tmp_path / "missing-dir" / "bench.csv"
    code = main(["bench", "--input", str(sample_file), "--supports", "2,1", "--output", str(dest)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


# ------------------------------------------------------------- entrypoint


def child_env(**overrides) -> dict[str, str]:
    """The environment for a ``python -m graphmine`` child that imports the
    package this session imported, installed or not."""
    src = str(Path(graphmine.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **overrides)


def test_module_entrypoint(sample_file):
    env = child_env()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "graphmine",
            "mine",
            "--input",
            str(sample_file),
            "--min-support",
            "2",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("t # 0")


def test_missing_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("fixture", ["sample_file", "etf_file"])
def test_mine_output_does_not_depend_on_the_hash_seed(fixture, request, tmp_path):
    # Each process salts str hashes anew, so repeats in one process cannot
    # show a set or dict order of label tokens leaking into the output.
    source = request.getfixturevalue(fixture)
    for mode in cli._CLI_MODES:
        outputs = []
        for seed in ("0", "1"):
            dest = tmp_path / f"{mode}-{seed}.txt"
            args = ["mine", "--input", str(source), "--min-support", "1", "--mode", mode]
            subprocess.run(
                [sys.executable, "-m", "graphmine", *args, "--output", str(dest)],
                env=child_env(PYTHONHASHSEED=seed),
                check=True,
                timeout=120,
            )
            outputs.append(dest.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1], mode
