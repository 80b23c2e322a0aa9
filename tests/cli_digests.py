"""Check the md5 of the standard output of fourteen fixed ``dppstats`` commands.

The digests cover the disc and planar variance (CSV and JSON, each route
name and both), the planar level with the largest rule, the asymptotic
constant, the contraction table and the count law with and without
samples, and at (6, 0.9), whose pmf runs down to 3.4e-101 at 0.  The
expected lines are checked in next to this file as ``cli_digests.txt``:

    python tests/cli_digests.py

prints one line per command to standard output, in the format of that
file, and after each line that differs from it a mark on standard error
with the checked-in line.  It exits 1 if any line differs, any command is
missing or any command exits non-zero, and 0 otherwise.  A change that
moves the CLI's bytes on purpose rewrites the file with

    python tests/cli_digests.py > tests/cli_digests.txt

so that the moved digests show in its diff.  The package is imported from
the ``src`` directory next to this file, so nothing needs installing.
pytest does not collect this file; ``tests/test_cli.py`` runs the same
comparison in process.
"""

import hashlib
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from click.testing import CliRunner  # noqa: E402

from dppstats.cli import cli  # noqa: E402

EXPECTED = HERE / "cli_digests.txt"

COMMANDS = (
    "variance --nu 1.6 --m 1 --r 0.3 --r 0.6 --r 0.9 --route both",
    "variance --nu 1 --m 0 --r 0.5 --format json",
    "asymptotics --nu 3.5 --m 2 --format json",
    "asymptotics --nu 8 --m 5 --format json",
    "asymptotics --nu 5.25 --m 3 --format json",
    "contraction --m 1 --r 1.2",
    "variance --euclidean --n 2 --r 0.5 --r 1.5 --r 4 --route both",
    "variance --euclidean --n 0 --r 3 --format json",
    "distribution --nu 1.5 --r 0.7 --s 0.5 --s -0.3",
    "distribution --nu 2 --r 0.95 --samples 5000 --seed 3",
    "variance --nu 1.6 --m 1 --r 0.6 --route int3",
    "variance --euclidean --n 2 --r 0.5 --route geometric",
    "variance --euclidean --n 188 --r 0.1 --r 0.5",
    "distribution --nu 6 --r 0.9 --format json",
)


def expected_lines() -> dict[str, str]:
    """The checked-in line of each command, keyed by the command."""
    # a line is "digest  exit N  command"
    return {line.split("  ", 2)[2]: line for line in EXPECTED.read_text().splitlines()}


def digest_line(runner: CliRunner, command: str) -> tuple[str, int]:
    """The line of ``command`` in the format of ``cli_digests.txt``, and its exit code."""
    result = runner.invoke(cli, shlex.split(command))
    digest = hashlib.md5(result.stdout_bytes).hexdigest()
    return f"{digest[:12]}  exit {result.exit_code}  {command}", result.exit_code


def main() -> int:
    expected = expected_lines()
    runner = CliRunner()
    failed = 0
    for command in COMMANDS:
        line, code = digest_line(runner, command)
        print(line, flush=True)
        old = expected.pop(command, "(no line)")
        if line != old or code != 0:
            failed += 1
            print(f"^ changed; {EXPECTED.name} has: {old}", file=sys.stderr, flush=True)
    for old in expected.values():
        failed += 1
        print(f"not run; {EXPECTED.name} has: {old}", file=sys.stderr, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
