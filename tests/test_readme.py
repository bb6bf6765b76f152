"""The README's code runs as printed."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_snippet_runs(monkeypatch, capsys):
    """The one python block under "## Library" runs from the repository
    root and prints the membership verdict and a trial's outcome."""
    library = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n")[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    verdict, outcome = capsys.readouterr().out.splitlines()
    assert verdict == "True"
    assert len(outcome.split()) == 2
