"""Every demo script, and README's library example, runs end to end
against the current API."""

import importlib.util
import sys
from pathlib import Path

import pytest

from graphmine import MiningConfig, mine_closed, parse_dataset_text, write_patterns

from conftest import SAMPLE_TEXT

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SYNTHETIC = ROOT / "demos" / "benchmark_synthetic.py"


def load_demo(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_succeeds(path, monkeypatch, capsys):
    module = load_demo(path)
    monkeypatch.setattr(sys, "argv", [str(path)])
    assert module.main() == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "supports, shown",
    [("0.5,", ["0.5"]), ("1e-1", ["0.1"])],
    ids=["trailing_comma", "exponent"],
)
def test_synthetic_benchmark_reads_supports_as_the_cli_does(supports, shown, monkeypatch, capsys):
    module = load_demo(SYNTHETIC)
    monkeypatch.setattr(sys, "argv", [str(SYNTHETIC), "--graphs", "6", "--supports", supports])
    assert module.main() == 0
    rows = capsys.readouterr().out.split("-\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert [row.split()[0] for row in rows] == shown


def test_synthetic_benchmark_rejects_a_zero_support(monkeypatch, capsys):
    module = load_demo(SYNTHETIC)
    monkeypatch.setattr(sys, "argv", [str(SYNTHETIC), "--supports", "0"])
    with pytest.raises(SystemExit) as exc:
        module.main()
    assert exc.value.code == 2
    assert "absolute support must be at least 1" in capsys.readouterr().err


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The first python block under README's "## Library", run as written
    # in a directory that holds the sample database as graphs.txt.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "graphs.txt").write_text(SAMPLE_TEXT)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    db = parse_dataset_text(SAMPLE_TEXT)
    closed = mine_closed(db, MiningConfig(min_support=0.1, mode="closed"))
    assert capsys.readouterr().out == write_patterns(closed, db) + "\n"
