"""The README's command-line and library examples run as written."""

import re
import shlex
from pathlib import Path

from zetawalk.cli import entrypoint

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced block of the given language after a section heading."""
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [
        line for line in _block("Command line", "sh").splitlines()
        if line.startswith("zetawalk ")
    ]
    assert len(lines) == 9
    for line in lines:
        assert entrypoint(shlex.split(line)[1:]) == 0, line
    assert capsys.readouterr().err == ""


def test_readme_library_block_runs():
    exec(_block("Library", "python"), {})
