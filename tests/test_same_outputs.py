"""tools/same_outputs.py compares every output of the two trees, not only
those before the first that differs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _run(monkeypatch, capsys, base: list, change: list):
    """main's exit code and printed lines, with outputs() yielding base for
    the first tree it is asked for and change for the second."""
    tool = _tool()
    sides = iter([base, change])
    monkeypatch.setattr(tool, "outputs", lambda tree: iter(next(sides)))
    code = tool.main(["--base-tree", str(ROOT)])
    return code, capsys.readouterr().out.splitlines()


def test_every_output_is_compared_after_one_differs(monkeypatch, capsys):
    base = [("a", "1\n"), ("b", "2\n"), ("c", "3\n"), ("d", "4\nx\n")]
    change = [("a", "1\n"), ("b", "two\n"), ("c", "3\n"), ("d", "4\ny\n")]
    code, lines = _run(monkeypatch, capsys, base, change)
    assert code == 1
    assert [line.split(",")[0] for line in lines if not line.startswith(" ")] \
        == ["same: a", "DIFFERENT: b", "same: c", "DIFFERENT: d"]
    assert "  base:   x" in lines and "  change: y" in lines


def test_exit_0_when_every_output_is_the_same(monkeypatch, capsys):
    outputs = [("a", "1\n"), ("b", "2\n")]
    code, lines = _run(monkeypatch, capsys, outputs, list(outputs))
    assert (code, lines) == (0, ["same: a", "same: b"])
