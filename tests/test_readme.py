"""The README's CLI examples against the CLI itself.

Every ``epshift ...`` line in the README's CLI code block must parse, flags
and command.  Each example whose output the README shows in full, as a
``# {...}`` comment on its own line or the next, must print exactly that.
The verification commands are only parsed: they run whole suites.
"""

import os
import shlex

import pytest

from epshift import cli, grammar

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
NOT_RUN = ("selftest", "check-hom", "oracle-check")


def cli_examples():
    """``(argv, shown output or None)`` for each example in the CLI block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("\n```", 1)[0].splitlines()
    examples = []
    for k, line in enumerate(lines):
        if not line.startswith("epshift "):
            continue
        shown = line.partition(" # ")[2].strip()
        if not shown and k + 1 < len(lines) and lines[k + 1].startswith("# "):
            shown = lines[k + 1][2:].strip()
        full = shown.startswith("{") and "..." not in shown
        argv = shlex.split(line, comments=True)[1:]
        examples.append((argv, shown if full else None))
    return examples


EXAMPLES = cli_examples()


def test_the_block_has_examples():
    assert len(EXAMPLES) >= 10
    assert sum(shown is not None for _, shown in EXAMPLES) >= 6


@pytest.mark.parametrize("argv", [argv for argv, _ in EXAMPLES],
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_example_parses(argv):
    opts, words = cli._parse_argv(argv)
    cli._check_options(opts)
    grammar.parse_command(" ".join(words))


RUN = [(argv, shown) for argv, shown in EXAMPLES
       if shown is not None and argv[0] not in NOT_RUN]


@pytest.mark.parametrize("argv, shown", RUN,
                         ids=[" ".join(argv) for argv, _ in RUN])
def test_example_prints_what_the_readme_shows(capsys, argv, shown):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == shown + "\n"
