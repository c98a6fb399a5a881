"""README's CLI transcripts, run through ``cli.main``.

Every fenced block of the CLI section whose first line is ``$ ablkit ...``
is a command and its stdout.  A ``...`` line in the expected text matches
any run of lines (none too), and a ``{ ... }`` line matches the rest of the
output when that runs from a ``{`` line to a ``}`` line.
"""

import pathlib
import re
import shlex

import pytest

from ablkit.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _transcripts() -> list[tuple[str, list[str]]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```\n(\$ ablkit .*?)^```$", section, flags=re.M | re.S)
    return [(block.split("\n", 1)[0][2:], block.splitlines()[1:]) for block in blocks]


def _matches(expected: list[str], actual: list[str]) -> bool:
    if not expected:
        return not actual
    head, rest = expected[0], expected[1:]
    if head == "{ ... }":
        return bool(actual) and actual[0] == "{" and actual[-1] == "}"
    if head == "...":
        return any(_matches(rest, actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and actual[0] == head and _matches(rest, actual[1:])


TRANSCRIPTS = _transcripts()


def test_readme_shows_the_four_transcripts():
    assert [command.split()[1] for command, _ in TRANSCRIPTS] == [
        "abl", "consistency", "simulate", "counterexample"]


@pytest.mark.parametrize("command, expected", TRANSCRIPTS,
                         ids=[command for command, _ in TRANSCRIPTS])
def test_readme_transcript_matches_the_cli(capsys, command, expected):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert _matches(expected, out), "\n".join(out)


@pytest.mark.parametrize("expected, actual, result", [
    (["a", "...", "d"], ["a", "b", "c", "d"], True),
    (["a", "...", "b"], ["a", "b"], True),
    (["a", "...", "d"], ["a", "b", "c"], False),
    (["a", "b"], ["a", "b", "c"], False),
    (["a", "{ ... }"], ["a", "{", '  "k": 1', "}"], True),
    (["a", "{ ... }"], ["a", "b"], False),
])
def test_transcript_matcher(expected, actual, result):
    assert _matches(expected, actual) is result
