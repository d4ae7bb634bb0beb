"""The README's command-line examples run as documented.

Every ``heatkern ...`` line of the command block under "Command line" runs
through ``cli.main`` and must exit 0.  An inline ``# prints: TEXT`` comment
must equal the whole output, and a comment that opens with a number must
equal the printed value.  The full ``heatkern verify`` line is left out:
``tests/test_acceptance.py`` runs the same checks.
"""

import re
import shlex
from pathlib import Path

import pytest

from heatkern import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[list[str], str]]:
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition(" #")
        args = shlex.split(command)
        if args[:1] == ["heatkern"] and args[1:] != ["verify"]:
            examples.append((args[1:], comment.strip()))
    return examples


EXAMPLES = _examples()


def test_readme_block_has_every_subcommand():
    used = {args[0] for args, _ in EXAMPLES}
    assert used == {"coeffs", "invariants", "trace", "det", "zeta", "kdv", "verify"}


@pytest.mark.parametrize("args, comment", EXAMPLES,
                         ids=[" ".join(args) for args, _ in EXAMPLES])
def test_readme_example_runs(args, comment, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if comment.startswith("prints:"):
        assert out == comment.removeprefix("prints:").strip() + "\n"
    elif re.match(r"-?\d", comment):
        assert out == comment.split()[0] + "\n"
