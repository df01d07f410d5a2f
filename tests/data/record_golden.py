"""Record one golden CLI case into ``cli_golden.json``.

    python3 tests/data/record_golden.py NAME -- ARGV...

runs ``entsig.cli.main(ARGV)`` in process, as ``run_cli`` in
``tests/test_cli.py`` replays it (warnings are errors, as in pytest's
``filterwarnings``), and stores its exit code, stdout and stderr under NAME.
An existing NAME is refused, and so is an ARGV that ends in ``SystemExit``
(an argparse error), which ``run_cli`` cannot replay.  Record a case with the
code as it stands, before the ``src/`` edit that it is meant to guard.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
sys.path.insert(0, str(GOLDEN.parents[2] / "src"))

from entsig.cli import main as entsig_main  # noqa: E402


def record(name: str, argv: list[str]) -> dict:
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if name in data:
        raise SystemExit(f"golden case {name!r} exists already")
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = entsig_main(argv)
    except SystemExit as exc:
        raise SystemExit(f"{argv} ends in SystemExit({exc.code}), which run_cli cannot replay") from None
    data[name] = case = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return case


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record one golden entsig CLI case.")
    parser.add_argument("name", help="key of the new case in cli_golden.json")
    parser.add_argument("argv", nargs="+", help="entsig arguments, after --")
    args = parser.parse_args()
    case = record(args.name, args.argv)
    print(f"{args.name}: exit {case['exit']}, {len(case['stdout'])} stdout chars, stderr {case['stderr']!r}")
