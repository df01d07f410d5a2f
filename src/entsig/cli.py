"""Command-line front end.

Subcommands: sweep, crossing, report, improve, montecarlo, plus ``predict``
to emit count-table files that ``report`` can read back.  All floating-point
output uses 9 significant digits and runs are deterministic for a fixed
configuration and seed.

Exit codes: 0 success, 1 output pipe closed by its reader, 2 configuration
error (every ValueError that is not a data error), 3 data error, 4 no crossing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .channels import DEFAULT_SPAN, NOISE_FAMILIES, AnsatzParams, experimental_ansatz
from .core import DensityMatrix, PureState
from .improve import exact_improvement, separable_safety_check
from .inequalities import (
    BellInequality,
    ardehali,
    inequality_from_json_dict,
    mermin,
    projector_witness,
)
from .significance import (
    CountTable,
    NoCrossingError,
    ShotBudget,
    SignificanceReport,
    _as_initial_state,
    _json_ready,
    _monte_carlo_studies,
    apply_noise,
    crossing_point,
    evaluate,
    predicted_counts,
    sample_counts,
    significance_sweep,
)

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NO_CROSSING = 4
# AnsatzParams field -> its option and metadata name: --alpha, --beta, --gamma, --lambda
_ANSATZ_KEYS = {name: "lambda" if name == "lam" else name for name in vars(AnsatzParams())}
_NEGATIVE_FLOAT = re.compile(r"-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)$", re.IGNORECASE)


class DataError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _dump_json(obj) -> str:
    return json.dumps(_json_ready(obj, _fmt), indent=2) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {out!r}: {exc}") from exc


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, k_s = text.split(":")
        lo, hi, k = float(lo_s), float(hi_s), int(k_s)
    except ValueError:
        raise ValueError(f"--grid must look like a:b:k, got {text!r}") from None
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(f"grid bounds must satisfy 0 <= a < b <= 1, got {text!r}")
    if k < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(lo, hi, k)


def _parse_span(text: str | None):
    if text is None:
        return None
    try:
        lo_s, hi_s = text.split(":")
        return float(lo_s), float(hi_s)
    except ValueError:
        raise ValueError(f"--span must look like a:b, got {text!r}") from None


def _initial_state(args) -> tuple[DensityMatrix, dict]:
    if args.state == "ghz":
        return _as_initial_state(None, args.qubits), {"state": "ghz"}
    params = AnsatzParams(**{name: getattr(args, name) for name in _ANSATZ_KEYS})
    if args.qubits != 4:
        raise ValueError("--state ansatz is a 4-qubit model; use --qubits 4")
    meta = {key: getattr(params, name) for name, key in _ANSATZ_KEYS.items()}
    return experimental_ansatz(params), {"state": "ansatz", **meta, "trace_renormalization": params.trace_renormalization}


def _read_json(path: str, prefix: str, kind: str, parse):
    """``parse`` of a JSON file; unreadable files, invalid JSON and values that
    ``parse`` rejects are data errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {prefix}{path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{kind} file {path!r} is not valid JSON: {exc}") from exc
    # parsed outside the load's try: a file that is not UTF-8 raises a plain
    # ValueError in json.load, which stays a configuration error
    try:
        return parse(data)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _inequality(name: str, n: int) -> BellInequality:
    if name == "mermin":
        return mermin(n)
    if name == "ardehali":
        return ardehali(n)
    # anything else is read as a custom-inequality JSON file
    return _read_json(name, "inequality ", "inequality", inequality_from_json_dict)


def _report_csv(report: SignificanceReport) -> str:
    lines = ["kind,label,mean,error,extra"]
    for s in report.per_setting:
        lines.append(f"setting,{s.label},{_fmt(s.mean)},{_fmt(s.error)},{_fmt(s.n_total)}")
    totals = map(_fmt, (report.violation, report.error, report.significance))
    lines.append(",".join(["total", report.metadata.get("inequality", ""), *totals]))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> str:
    grid = _parse_grid(args.grid) if args.grid else np.linspace(*DEFAULT_SPAN[args.noise], 200)
    state, meta = _initial_state(args)
    ineqs = (mermin(args.qubits), ardehali(args.qubits))
    table = significance_sweep(ineqs, args.noise, grid, initial_state=state, total_copies=args.shots)
    table.metadata.update(meta)
    if args.format == "csv":
        return table.to_csv_text()
    return _dump_json(table.to_json_dict())


def cmd_crossing(args) -> str:
    state, meta = _initial_state(args)
    result = crossing_point(
        args.noise,
        args.qubits,
        initial_state=state,
        total_copies=args.shots,
        span=_parse_span(args.span),
    )
    payload = {
        "noise": result.noise,
        "qubits": result.n_qubits,
        "shots": args.shots,
        "p_star": result.p_star,
        "fidelity_star": result.fidelity_star,
    }
    payload.update(meta)
    sys.stdout.write(f"p_star = {_fmt(result.p_star)}  F_star = {_fmt(result.fidelity_star)}\n")
    return _dump_json(payload)


def cmd_report(args) -> str:
    counts = _read_json(args.counts, "", "count", CountTable.from_json_dict)
    ineq = _inequality(args.inequality, args.qubits)
    try:
        report = evaluate(counts, ineq)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if args.format == "csv":
        return _report_csv(report)
    return _dump_json(report.to_json_dict())


def cmd_predict(args) -> str:
    state, meta = _initial_state(args)
    ineq = _inequality(args.inequality, args.qubits)
    state = apply_noise(state, args.noise, args.p)
    budget = ShotBudget.equal_split(args.shots, ineq)
    if args.seed is None:
        table = predicted_counts(state, ineq, budget)
    else:
        table = sample_counts(state, ineq, budget, args.seed)
    return _dump_json(table.to_json_dict())


def cmd_improve(args) -> str:
    if not math.isfinite(args.c0 * args.c0 + args.c1 * args.c1):  # NaN, Inf or a norm that overflows
        raise ValueError(f"--c0 and --c1 must be finite with a finite norm, got {args.c0!r} and {args.c1!r}")
    # scaled by 2**-e, exactly, so that squares of amplitudes below 0.5 neither underflow nor lose bits
    amp, e = np.zeros(2**args.qubits, dtype=complex), min(0, math.frexp(max(abs(args.c0), abs(args.c1)))[1])
    amp[0], amp[-1] = math.ldexp(args.c0, -e), math.ldexp(args.c1, -e)
    norm = float(np.linalg.norm(amp))
    if norm == 0:
        raise ValueError("state amplitudes are all zero")
    psi = PureState(args.qubits, amp / norm)
    w = projector_witness(args.qubits)
    result = exact_improvement(psi, w, args.a, args.b)
    s_before, s_after = result.significance_before.significance, result.significance_after.significance
    payload = {
        "witness": w.name,
        "state": {"c0": args.c0, "c1": args.c1, "normalization": math.ldexp(norm, e)},
        "expectation_after": result.expectation_after,
        "deviation_after": result.deviation_after,
        "eigen_residual": result.eigen_residual,
        "significance_before": s_before,
        "significance_after": s_after,
        "added_operator_psd": separable_safety_check(result.improved_witness, w),
    }
    sys.stdout.write(f"S before = {_fmt(s_before)}  S after = {_fmt(s_after)}\n")
    return _dump_json(payload)


def cmd_montecarlo(args) -> str:
    if args.trials < 100:
        raise ValueError("--trials must be at least 100")
    state, meta = _initial_state(args)
    noisy = apply_noise(state, args.noise, args.p)
    names = ("mermin", "ardehali") if args.inequality == "both" else (args.inequality,)
    payload = {"noise": args.noise, "p": args.p, "qubits": args.qubits,
               "shots": args.shots, "trials": args.trials, "seed": args.seed}
    payload.update(meta)
    ineqs = [_inequality(name, args.qubits) for name in names]
    studies = [(q, ShotBudget.equal_split(args.shots, q)) for q in ineqs]
    for name, summary in zip(names, _monte_carlo_studies(noisy, studies, args.trials, args.seed)):
        payload[name] = summary.to_json_dict()
    return _dump_json(payload)


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots", type=float, default=8000.0)
    p.add_argument("--state", choices=("ghz", "ansatz"), default="ghz")
    for name, default in vars(AnsatzParams()).items():
        p.add_argument(f"--{_ANSATZ_KEYS[name]}", dest=name, type=float, default=default)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qubits", type=int, choices=(4, 6), default=4)
    p.add_argument("--out", default=None)
    # argparse reads a separate '-1' or '-.5' as a value, not as an option; so too '-1e-3', '-inf' and '-nan'
    p._negative_number_matcher = _NEGATIVE_FLOAT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entsig",
        description="Significance of multi-qubit entanglement tests under counting noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="noise sweep table with V/E/S per inequality")
    p.add_argument("--noise", choices=NOISE_FAMILIES, default="bitflip")
    p.add_argument("--grid", default=None, help="a:b:k uniform grid (default 200 points)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)
    _add_state_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("crossing", help="locate the significance crossover")
    p.add_argument("--noise", choices=NOISE_FAMILIES, default="bitflip")
    p.add_argument("--span", default=None, help="a:b search interval for the noise parameter")
    _add_common(p)
    _add_state_args(p)
    p.set_defaults(func=cmd_crossing)

    p = sub.add_parser("report", help="evaluate a count-table file")
    p.add_argument("--counts", required=True, help="count-table JSON file")
    p.add_argument("--inequality", default="mermin",
                   help="mermin, ardehali, or path to a custom inequality JSON")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("predict", help="emit a count-table file (predicted or sampled)")
    p.add_argument("--noise", choices=NOISE_FAMILIES, default="bitflip")
    p.add_argument("--p", type=float, default=0.0, help="noise strength")
    p.add_argument("--inequality", default="mermin")
    p.add_argument("--seed", type=int, default=None,
                   help="Poisson-sample with this seed instead of predicting")
    _add_common(p)
    _add_state_args(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("improve", help="witness improvement demo")
    p.add_argument("--c0", type=float, default=0.8, help="amplitude of |0...0>")
    p.add_argument("--c1", type=float, default=0.6, help="amplitude of |1...1>")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("montecarlo", help="empirical vs propagated error")
    p.add_argument("--noise", choices=NOISE_FAMILIES, default="bitflip")
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inequality", choices=("mermin", "ardehali", "both"), default="both")
    _add_common(p)
    _add_state_args(p)
    p.set_defaults(func=cmd_montecarlo)

    return parser


_parser = functools.cache(build_parser)  # one parser per process: parsing leaves it as it was


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        _write_output(args.func(args), args.out)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return EXIT_OK
    except BrokenPipeError:  # the reader is gone: send what is left to devnull, as Python's signal docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except NoCrossingError as exc:
        sys.stderr.write(f"no crossing: {exc}\n")
        return EXIT_NO_CROSSING
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
