"""README.md checked against the CLI: its quoted error lines, its example commands and its two CLI tables."""

import re
import shutil
from pathlib import Path

import pytest

from input_rules import ROWS, subcommands
from vidcost.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()


def section(title: str) -> str:
    """The text of the README section headed ``## title``, up to the next one."""
    return TEXT.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def table(text: str, header: str) -> dict[str, list[str]]:
    """The Markdown table whose header row starts ``header``: each row's first cell, unquoted, to its other cells."""
    rows = text.split(f"\n{header}", 1)[1].split("\n\n", 1)[0].splitlines()[2:]  # below the header and its rule
    return {cells[0].strip("` "): cells[1:] for cells in (row.strip("|").split(" | ") for row in rows)}


def quoted(cell: str) -> list[str]:
    """The backticked words of a table cell, each up to its first space: `--out FILE` is --out."""
    return [quote.split()[0] for quote in re.findall(r"`([^`]+)`", cell)]


def test_every_quoted_error_line_is_the_stderr_of_an_input_rule():
    # A code span may wrap: its line break reads as a space.
    quotes = [re.sub(r"\s*\n\s*", " ", quote) for quote in re.findall(r"`(error: [^`]+)`", TEXT)]
    assert len(quotes) >= 20  # the pattern still finds them
    lines = {row.stderr for row in ROWS}
    assert [quote for quote in quotes if quote not in lines] == []


EXAMPLES = [line.split("#")[0].split() for line in section("CLI").split("```")[1].strip().splitlines()]


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(argv[1:]) for argv in EXAMPLES])
def test_every_example_command_runs(capsys, tmp_path, monkeypatch, argv):
    # The files the examples name: measurements that calibrate at the defaults, and a hardware file of two entries.
    shutil.copy(Path(__file__).with_name("golden") / "input-calibrate.csv", tmp_path / "runs.csv")
    (tmp_path / "my-gpus.json").write_text('[{"name": "toy", "theta_peak": 1e15, "bandwidth": 1e12, "p_max": 100}, '
                                          '{"name": "toy2", "theta_peak": 2e15, "bandwidth": 3e12, "p_max": 300}]')
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "vidcost"
    code = main(argv[1:])
    out, err = capsys.readouterr()
    written = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else b""
    assert (code, err) == (0, "")
    assert out or written


def test_the_flags_table_is_the_parser():
    options = {name: {o for action in parser._actions for o in action.option_strings}
               for name, parser in subcommands().items()}
    assert all({"--format", "--out"} <= given for given in options.values())  # "Every subcommand takes" them
    own = {name: given - {"-h", "--help", "--format", "--out"} for name, given in options.items()}
    # A subcommand named in a row stands for its flags.
    readme = {name: {flag for word in quoted(cell) for flag in own.get(word, [word])}
              for name, (cell,) in table(section("CLI"), "| subcommand | flags |").items()}
    assert readme == own


def test_the_formats_table_is_the_parser():
    formats = table(section("CLI"), "| subcommand | `--format` |")
    parsers = subcommands()
    assert formats.keys() == parsers.keys()
    for name, parser in parsers.items():
        (action,) = [action for action in parser._actions if action.dest == "format"]
        listed = quoted(formats[name][0])
        assert (listed[0], sorted(listed)) == (action.default, sorted(action.choices))  # the first is the default
