"""The README's command-line examples, run through ``cli.main``.

Each ``sh`` block that runs ``belldisc`` and is followed by an output block is
one example: every output line it shows, other than ``...``, must appear in
what the command prints, so the docs cannot drift from the code.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from belldisc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"```sh\n([^`]*)```\n\n```\n([^`]*)```", README.read_text())
EXAMPLES = [(script, shown) for script, shown in EXAMPLES if "belldisc " in script]
SUBCOMMANDS = [script.split("belldisc ", 1)[1].split()[0] for script, _ in EXAMPLES]


def test_every_subcommand_has_an_example():
    assert SUBCOMMANDS == ["discriminate", "tomo", "reproduce", "transpile"]


@pytest.mark.parametrize("script,shown", EXAMPLES, ids=SUBCOMMANDS)
def test_example_prints_what_the_readme_shows(script, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for line in script.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if words[0] == "printf":  # printf 'TEXT' > FILE
            assert words[2] == ">", line
            Path(words[3]).write_text(words[1].replace("\\n", "\n"))
        else:
            assert words[0] == "belldisc", line
            assert main(words[1:] + ["--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out.splitlines()
    for line in shown.splitlines():
        if line.strip() != "...":
            assert line in printed
