"""Record the reference outputs that ``run.py`` checks every op against.

Usage: python3 bench/record_refs.py --out bench/refs.json

``bench/refs.json`` was recorded once, from the code the benchmark was
written against, and is the correctness contract for every later change:
re-recording it to make a change pass would defeat the check.  The script is
kept so that the recording can be repeated and compared, and so that new
seeds can be added from a checkout of the recording commit.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    runner = run.Runner(run.import_cli())
    argvs = [run.SWEEP_ARGV, *run.CROSSING_ARGVS]
    argvs += [run.mc_argv(s) for s in (*range(run.MC_DEV_SEEDS), *run.MC_HOLDOUT_SEEDS)]
    outputs = {}
    for argv in argvs:
        _, error, out = runner.call(argv)
        if error is not None:
            sys.exit(f"error: entsig {run.ref_key(argv)} failed: {error}")
        outputs[run.ref_key(argv)] = out
        print(f"recorded entsig {run.ref_key(argv)}", file=sys.stderr)
    payload = {"recorded_from": run.environment(), "outputs": outputs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
