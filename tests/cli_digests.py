"""Print the md5 of the standard output of fourteen fixed ``dppstats`` commands.

Run it in two checkouts and compare the lines: equal digests mean the CLI
prints the same bytes, covering the disc and planar variance (CSV and
JSON, each route name and both), the planar level with the largest rule,
the asymptotic constant, the contraction table and the count law with and
without samples, and at (6, 0.9), whose pmf runs down to 3.4e-101 at 0.

    python tests/cli_digests.py

The package is imported from the ``src`` directory next to this file, so
nothing needs installing.  pytest does not collect this file.
"""

import hashlib
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from click.testing import CliRunner  # noqa: E402

from dppstats.cli import cli  # noqa: E402

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


def main() -> int:
    runner = CliRunner()
    failed = 0
    for command in COMMANDS:
        result = runner.invoke(cli, shlex.split(command))
        failed += result.exit_code != 0
        digest = hashlib.md5(result.stdout_bytes).hexdigest()
        print(f"{digest[:12]}  exit {result.exit_code}  {command}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
