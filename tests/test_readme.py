"""README's commands are executable checks: every ``stapleforge`` line in its
shell blocks parses, and the quick start runs and prints what README shows."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from stapleforge.cli import build_parser, fixtures_dir, main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The text of README's ``## title`` section, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def code_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def commands(block: str) -> list[list[str]]:
    """The ``stapleforge`` command lines of a shell block as argument lists,
    backslash continuations joined, comments dropped and ``$FX`` replaced by
    the fixture directory."""
    argvs = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line.replace("$FX", str(fixtures_dir())), comments=True)
        if words and words[0] == "stapleforge":
            argvs.append(words[1:])
    return argvs


def test_every_readme_command_parses():
    text = README.read_text(encoding="utf-8")
    argvs = [argv for block in code_blocks(text, "sh") for argv in commands(block)]
    assert len(argvs) >= 10
    parser = build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: stapleforge {shlex.join(argv)}")


def test_quick_start_runs_as_documented(tmp_path, monkeypatch, capsys):
    quick_start = section("Quick start on the bundled fixture world")
    run_block, score_block, *_ = code_blocks(quick_start, "sh")
    (table_block,) = code_blocks(quick_start, "text")
    monkeypatch.chdir(tmp_path)
    for argv in commands(run_block):
        assert main(argv) == 0, shlex.join(argv)
    produced = [row.split("\t") for row in (tmp_path / "table.tsv").read_text().splitlines()]
    shown = [row.split() for row in table_block.splitlines()]
    assert shown and all(row in produced for row in shown)

    (score,) = commands(score_block)
    capsys.readouterr()
    assert main(score) == 0
    expected = re.search(r"# -> (\S+)", score_block)[1]
    assert expected == "macro_f1=0.561449"
    assert capsys.readouterr().out.splitlines()[-1] == expected
