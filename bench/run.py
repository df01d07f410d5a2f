"""entsig benchmark: the real CLI entry point, in process, one caller, closed loop.

Usage:
    python3 bench/run.py --workload {sweep4,crossing,montecarlo4,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed list of ``entsig.cli.main`` calls (one *round*).
Rounds run back to back, each call starting after the previous one returned,
until ``--seconds`` have passed; at least one round always runs.  Every call's
standard output is compared with a reference recorded from the seed code
(``bench/refs.json``): sweeps and Monte Carlo studies byte for byte, crossings
to the 1e-6 bisection resolution of p*.  A call that raises, exits nonzero or
differs from its reference is a failed op.

``--trace 0`` reports the end-to-end metrics:
    setup_s      median over fresh processes of import + inequalities + states
    items_per_s  items per round / median round time
    peak_rss_mb  peak resident memory of this process
Both times are rescaled by the machine speed sampled while they ran
(``bench/speed.py``); the printed table shows the raw values beside them.
``--trace 1`` alternates untraced and traced rounds and reports the per-layer
metrics from ``bench/spans.py`` plus ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own process and prints a combined table.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"

SETUP_PROBES = 9
P_STAR_RESOLUTION = 1e-6  # Tolerances.bisection: crossings agree to this
F_STAR_SLACK = 1e-5  # F* follows from p*; |dF/dp| < 10 on every searched span

SWEEP_ARGV = ("sweep",)
CROSSING_ARGVS = (
    ("crossing",),
    ("crossing", "--noise", "white"),
    ("crossing", "--qubits", "6"),
    ("crossing", "--qubits", "6", "--noise", "white"),
    ("crossing", "--state", "ansatz"),
)
# References exist for Monte Carlo seeds 0..MC_DEV_SEEDS-1, used while
# changes are written, and for the held-out seeds, kept for re-checking a
# claimed gain on a seed nobody tuned against.
MC_DEV_SEEDS = 16
MC_HOLDOUT_SEEDS = (104729,)


def mc_argv(seed: int) -> tuple:
    return ("montecarlo", "--seed", str(seed))


def ref_key(argv) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------- checks


def exact_check(ref: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        if out == ref:
            return None
        at = next((i for i, (a, b) in enumerate(zip(out, ref)) if a != b), min(len(out), len(ref)))
        return f"output differs from reference at character {at}: {out[at:at + 40]!r} vs {ref[at:at + 40]!r}"
    return check


def _crossing_payload(text: str) -> dict:
    return json.loads(text.split("\n", 1)[1])


def crossing_check(ref: str) -> Callable[[str], str | None]:
    expected = _crossing_payload(ref)

    def check(out: str) -> str | None:
        try:
            got = _crossing_payload(out)
        except (IndexError, ValueError) as exc:
            return f"crossing output is not a summary line plus JSON: {exc}"
        if set(got) != set(expected):
            return f"crossing keys {sorted(got)} != {sorted(expected)}"
        for key, want in expected.items():
            have = got[key]
            if key == "p_star":
                ok = abs(have - want) <= P_STAR_RESOLUTION
            elif key == "fidelity_star":
                ok = abs(have - want) <= F_STAR_SLACK
            else:
                ok = have == want
            if not ok:
                return f"crossing {key} = {have!r}, reference {want!r}"
        return None
    return check


def corrupt(ref: str, crossing: bool) -> str:
    """A reference the check must reject: p* moved by 3x the resolution, or
    one digit in the middle of the text changed."""
    if crossing:
        head, body = ref.split("\n", 1)
        payload = json.loads(body)
        payload["p_star"] += 3 * P_STAR_RESOLUTION
        return head + "\n" + json.dumps(payload, indent=2) + "\n"
    i = next(i for i in range(len(ref) // 2, len(ref)) if ref[i].isdigit())
    return ref[:i] + str((int(ref[i]) + 1) % 10) + ref[i + 1:]


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable[[str], str | None]
    corrupted_check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    ops: tuple  # one round
    items_per_round: int
    item: str
    warmup: tuple  # argv tuples run once before timing; only their exit code is checked
    note: str


def mc_seed_for(seed: int, outputs: dict) -> int:
    """The benchmark seed itself when a reference exists for it (the
    development seeds and the held-out seeds), else seed mod MC_DEV_SEEDS."""
    return seed if ref_key(mc_argv(seed)) in outputs else seed % MC_DEV_SEEDS


def make_workload(name: str, seed: int, outputs: dict) -> Workload:
    def op(argv, crossing=False):
        ref = outputs[ref_key(argv)]
        make = crossing_check if crossing else exact_check
        return Op(tuple(argv), make(ref), make(corrupt(ref, crossing)))

    if name == "sweep4":
        return Workload((op(SWEEP_ARGV),), 200, "grid points",
                        (("sweep", "--grid", "0:0.25:5"),),
                        "entsig sweep at its defaults; the seed does not change the input")
    if name == "crossing":
        return Workload(tuple(op(a, crossing=True) for a in CROSSING_ARGVS), len(CROSSING_ARGVS),
                        "crossing searches",
                        (("sweep", "--qubits", "6", "--noise", "white", "--grid", "0:0.9:2"),),
                        "the five paper crossings; the seed does not change the input")
    if name == "montecarlo4":
        mc_seed = mc_seed_for(seed, outputs)
        # 2000 trials for each of the two inequalities
        return Workload((op(mc_argv(mc_seed)),), 4000, "Monte Carlo trials",
                        (("montecarlo", "--trials", "100", "--seed", str(mc_seed)),),
                        f"entsig montecarlo at its defaults with --seed {mc_seed}")
    raise ValueError(name)


WORKLOADS = ("sweep4", "crossing", "montecarlo4")


# ---------------------------------------------------------------- running


def import_cli():
    """Import ``entsig.cli`` from this checkout's ``src``, or exit nonzero."""
    if not (SRC / "entsig" / "__init__.py").is_file():
        sys.exit(f"error: no entsig package under {SRC}")
    sys.path.insert(0, str(SRC))
    import entsig.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "entsig":
        sys.exit(f"error: imported entsig from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    """Calls ``entsig.cli.main`` in a closed loop and counts failed ops.

    Op times exclude the time the speed meter, if any, spent sampling."""

    def __init__(self, cli, meter: speed.SpeedMeter | None = None):
        self.cli = cli
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.checker_ok = None  # does the first checked op reject a corrupted reference?

    def call(self, argv) -> tuple[float, str | None, str]:
        """Run one op; returns (seconds, error or None, standard output)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        sampled = self.meter.spent if self.meter else 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except (Exception, SystemExit):
            return self._fail(argv, self._since(start, sampled), traceback.format_exc())
        elapsed = self._since(start, sampled)
        if code != 0:
            return self._fail(argv, elapsed, f"exit code {code}: {err.getvalue().strip()}")
        return elapsed, None, out.getvalue()

    def _since(self, start: float, sampled: float) -> float:
        elapsed = time.perf_counter() - start
        return elapsed - (self.meter.spent - sampled) if self.meter else elapsed

    def _fail(self, argv, elapsed, message):
        self.failed += 1
        if self.failed <= 3:
            sys.stderr.write(f"FAILED entsig {ref_key(argv)}: {message}\n")
        return elapsed, message, ""

    def round(self, ops) -> float:
        """One pass over the workload's ops; returns the summed call time."""
        total = 0.0
        for op in ops:
            elapsed, error, out = self.call(op.argv)
            total += elapsed
            if error is None:
                error = op.check(out)
                if error is not None:
                    self._fail(op.argv, elapsed, error)
                elif self.checker_ok is None:
                    self.checker_ok = op.corrupted_check(out) is not None
        return total


def setup_times(workload: str) -> tuple[list[float], list[float]]:
    """Raw and speed-normalized set-up times of SETUP_PROBES fresh processes.

    Each process probes the machine's speed itself, right after its timed
    part: a probe taken here could run on the other core."""
    raw, normalized = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            sys.exit(f"error: setup probe failed: {done.stderr.strip()}")
        elapsed, kernel_s = map(float, done.stdout.split())
        raw.append(elapsed)
        normalized.append(elapsed * speed.NOMINAL_S / kernel_s)
    return raw, normalized


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "entsig").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def timed_rounds(runner: Runner, wl: Workload, seconds: float) -> tuple[list[float], list[float]]:
    """Raw and speed-normalized round times, measured under the runner's meter."""
    raw, normalized = [], []
    start = time.perf_counter()
    with runner.meter as meter:
        while not raw or time.perf_counter() - start < seconds:
            mark = len(meter.samples)
            raw.append(runner.round(wl.ops))
            normalized.append(raw[-1] * meter.scale_since(mark))
    return raw, normalized


def traced_rounds(runner: Runner, wl: Workload, seconds: float):
    """Alternate untraced and traced rounds; returns both time lists and the
    per-layer metrics of each traced round."""
    tracer = spans.Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.round(wl.ops))
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.round(wl.ops))
        finally:
            tracer.uninstall()
        layers.append(spans.layer_metrics(tracer.snapshot(), wl.items_per_round))
    return plain, traced, layers


def run_one(args) -> int:
    cli = import_cli()
    outputs = json.loads(REFS.read_text(encoding="utf-8"))["outputs"]
    wl = make_workload(args.workload, args.seed, outputs)
    setup = None if args.trace else setup_times(args.workload)
    runner = Runner(cli, None if args.trace else speed.SpeedMeter())
    for argv in wl.warmup:
        runner.call(argv)
    env = environment()
    print(f"workload {args.workload}: {wl.note}")
    print("env " + json.dumps(env))
    metrics = {}
    rows = []
    if args.trace:
        plain, traced, layers = traced_rounds(runner, wl, args.seconds)
        for name in layers[0]:
            metrics[name] = {"value": statistics.median(r[name][0] for r in layers), "unit": layers[0][name][1]}
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "1"}
        rows.append(("trace.overhead_ratio", overhead, "1",
                     f"median of {len(traced)} traced / {len(plain)} untraced rounds"))
        for name in spans.TARGETS:
            rows.append((f"{name}.self_s", metrics[f"{name}.self_s"]["value"], "s/round",
                         f"median of {len(traced)} traced rounds"))
    else:
        raw, rounds = timed_rounds(runner, wl, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (statistics.median(setup[1]), "s",
                        f"median of {len(setup[1])} fresh processes; raw {statistics.median(setup[0]):.4g} s"),
            "items_per_s": (wl.items_per_round / statistics.median(rounds), "items/s",
                            f"{wl.items_per_round} {wl.item} per round, median of {len(rounds)} rounds; "
                            f"raw {wl.items_per_round / statistics.median(raw):.4g} items/s"),
            "peak_rss_mb": (rss_mb, "MB", "1 process"),
        }
        for name, (value, unit, note) in values.items():
            metrics[name] = {"value": value, "unit": unit}
            rows.append((name, value, unit, note))
    if runner.checker_ok is False:
        sys.stderr.write("error: the reference check did not reject a corrupted reference\n")
    correct = runner.checker_ok is True and runner.failed == 0
    rows.append(("fail_ratio", runner.failed / runner.attempted, "1",
                 f"{runner.failed} of {runner.attempted} ops failed"))
    for name, value, unit, note in rows:
        print(f"  {name:<22} {value:>14.6g} {unit:<8} ({note})")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            sys.exit(f"error: workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        code = max(code, done.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
