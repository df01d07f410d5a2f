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
import json
import math
import os
import re
import sys

import numpy as np

from .channels import AnsatzParams, experimental_ansatz
from .core import DensityMatrix, PureState, ghz_state
from .improve import exact_improvement, separable_safety_check
from .inequalities import (
    BellInequality,
    ardehali,
    inequality_from_json_dict,
    mermin,
    projector_witness,
)
from .significance import (
    DEFAULT_SPAN,
    NOISE_FAMILIES,
    CountTable,
    NoCrossingError,
    ShotBudget,
    SignificanceReport,
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
_NEGATIVE_FLOAT = re.compile(r"-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)", re.IGNORECASE)


class DataError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _jsonable(value):
    """Round floats to 9 significant digits; map non-finite to strings."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(_fmt(value))
    return value


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2) + "\n"


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
        return DensityMatrix.from_pure(ghz_state(args.qubits)), {"state": "ghz"}
    params = AnsatzParams(args.alpha, args.beta, args.gamma, args.lam)
    if args.qubits != 4:
        raise ValueError("--state ansatz is a 4-qubit model; use --qubits 4")
    state = experimental_ansatz(params)
    meta = {
        "state": "ansatz",
        "alpha": params.alpha,
        "beta": params.beta,
        "gamma": params.gamma,
        "lambda": params.lam,
        "trace_renormalization": params.trace_renormalization,
    }
    return state, meta


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


def cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else np.linspace(*DEFAULT_SPAN[args.noise], 200)
    state, meta = _initial_state(args)
    ineqs = (mermin(args.qubits), ardehali(args.qubits))
    table = significance_sweep(ineqs, args.noise, grid, initial_state=state, total_copies=args.shots)
    table.metadata.update(meta)
    if args.format == "csv":
        _write_output(table.to_csv_text(), args.out)
    else:
        _write_output(_dump_json(table.to_json_dict()), args.out)
    return EXIT_OK


def cmd_crossing(args) -> int:
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
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    counts = _read_json(args.counts, "", "count", CountTable.from_json_dict)
    ineq = _inequality(args.inequality, args.qubits)
    try:
        report = evaluate(counts, ineq)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if args.format == "csv":
        _write_output(_report_csv(report), args.out)
    else:
        _write_output(_dump_json(report.to_json_dict()), args.out)
    return EXIT_OK


def cmd_predict(args) -> int:
    state, meta = _initial_state(args)
    ineq = _inequality(args.inequality, args.qubits)
    state = apply_noise(state, args.noise, args.p)
    budget = ShotBudget.equal_split(args.shots, ineq)
    if args.seed is None:
        table = predicted_counts(state, ineq, budget)
    else:
        table = sample_counts(state, ineq, budget, args.seed)
    _write_output(_dump_json(table.to_json_dict()), args.out)
    return EXIT_OK


def cmd_improve(args) -> int:
    if not math.isfinite(args.c0 * args.c0 + args.c1 * args.c1):  # NaN, Inf or a norm that overflows
        raise ValueError(f"--c0 and --c1 must be finite with a finite norm, got {args.c0!r} and {args.c1!r}")
    amp = np.zeros(2**args.qubits, dtype=complex)
    amp[0], amp[-1] = args.c0, args.c1
    norm = float(np.linalg.norm(amp))
    if norm == 0:
        raise ValueError("state amplitudes are all zero")
    psi = PureState(args.qubits, amp / norm)
    w = projector_witness(args.qubits)
    result = exact_improvement(psi, w, args.a, args.b)
    payload = {
        "witness": w.name,
        "state": {"c0": args.c0, "c1": args.c1, "normalization": norm},
        "expectation_after": result.expectation_after,
        "deviation_after": result.deviation_after,
        "eigen_residual": result.eigen_residual,
        "significance_before": result.significance_before.significance,
        "significance_after": result.significance_after.significance,
        "added_operator_psd": separable_safety_check(result.improved_witness, w),
    }
    s_before = result.significance_before.significance
    s_after = result.significance_after.significance
    sys.stdout.write(f"S before = {_fmt(s_before)}  S after = {_fmt(s_after)}\n")
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
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
    _write_output(_dump_json(payload), args.out)
    return EXIT_OK


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots", type=float, default=8000.0)
    p.add_argument("--state", choices=("ghz", "ansatz"), default="ghz")
    p.add_argument("--alpha", type=float, default=0.362)
    p.add_argument("--beta", type=float, default=0.522)
    p.add_argument("--gamma", type=float, default=0.398)
    p.add_argument("--lambda", dest="lam", type=float, default=0.12)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qubits", type=int, choices=(4, 6), default=4)
    p.add_argument("--out", default=None)


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


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a separate '-1e-3' or '-inf' as an option; after a float option it is joined as '--opt=-1e-3'
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = commands[argv[0]]._actions if argv and argv[0] in commands else ()
    options = [s for a in actions for s in a.option_strings]
    floats = {s for a in actions if a.type is float for s in a.option_strings}
    for i in range(len(argv) - 1, 0, -1):  # from the right, so a join moves no token still to be read
        # a token names an option in full or, as argparse's allow_abbrev reads it, as a prefix of no other option
        named = [s for s in options if s == argv[i - 1]] or [s for s in options if s.startswith(argv[i - 1])]
        if len(named) == 1 and named[0] in floats and _NEGATIVE_FLOAT.fullmatch(argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
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
