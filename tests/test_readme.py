"""The README's Library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python code block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "0.00"  # the noise figure its comment states
    assert (tmp_path / "trace.bin").is_file()
