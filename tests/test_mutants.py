"""``tools/mutants.py`` tests one snapshot of the tree, even if the working
tree changes while it runs.  The tool is loaded by path; its pytest runs
are stubbed out, so no mutant is tested here."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_every_copy_comes_from_one_snapshot(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("mutants_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    root = tmp_path / "root"
    for name in tool.COPIED:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        if Path(name).suffix:
            (root / name).write_text("")
        else:
            (root / name).mkdir()
    marker = root / "src" / "marker.txt"
    marker.write_text("original")
    (root / "src" / "mod.py").write_text("x = 1\ny = 1\n")
    seen = []

    def run_tests(tree):
        seen.append((tree / "src" / "marker.txt").read_text())
        marker.write_text("edited")  # the working tree changes mid-run
        return True

    monkeypatch.setattr(tool, "ROOT", root)
    monkeypatch.setattr(tool, "_run_tests", run_tests)
    monkeypatch.setattr(
        tool,
        "MUTANTS",
        [
            ("x-is-2", "src/mod.py", "x = 1", "x = 2"),
            ("y-is-2", "src/mod.py", "y = 1", "y = 2"),
        ],
    )
    work = tmp_path / "work"
    work.mkdir()
    assert tool.main(["--workdir", str(work)]) == 0
    assert seen == ["original"] * 3
