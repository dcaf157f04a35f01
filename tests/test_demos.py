"""The demos and the README's Python quick start run as documented."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # From an empty directory, so whatever a demo writes lands in tmp_path.
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
    if demo.name == "figure_tables.py":
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "fig3a.csv", "fig3b.csv", "fig5a.csv"
        ]


def test_readme_python_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (Python)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
