"""Counting-statistics error propagation and test significance.

The per-setting error model: outcome counts n_o are independent Poisson
variables, the derived mean M = sum_o lambda_o n_o / n_tot carries the
Gaussian-propagated error

    E(M)^2 = sum_o (lambda_o / n_tot - M / n_tot)^2 n_o.

Settings are measured on disjoint ensembles, so setting errors combine in
quadrature.  Significance is S = V / E with V the violation; S is flagged
infinite when the error is exactly zero while the violation is positive.
"""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import asdict, dataclass, field
from functools import cache

import numpy as np

from .channels import _NOISE, DEFAULT_SPAN, NOISE_FAMILIES, _noisy_stack
from .core import DensityMatrix, PureState, _validate_stack, expectation, fidelity_with_pure, ghz_state, variance
from .inequalities import BellInequality, Witness, _contraction_plan, _gamma, _probability_rows, ardehali, mermin
from .tolerances import DEFAULT

# state entries per chunk of (G, d, d) states: a sweep evaluates every point, so its
# chunks are big and few (64 points at 4 qubits, 4 at 6); a crossing evaluates only its
# model's nodes and the points the model cannot certify, in small chunks (16 points and 1)
_SWEEP_ENTRIES = 2**14
_SCAN_ENTRIES = 2**12
# count entries of a call's largest table per Monte Carlo block: 128 trials for the
# 4-qubit pair, 256 for Mermin alone, 8 at 6 qubits; 0.4 MB of float64 counts at 4 qubits
_BLOCK_COUNTS = 2**15
# the largest mean Generator.poisson accepts (numpy's private POISSON_LAM_MAX)
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


class NoCrossingError(RuntimeError):
    """The significance difference does not change sign on the search span."""


def _json_ready(value, fmt=None):
    """``value`` with tuples as lists and each finite float rounded by ``fmt`` when one is given;
    inf, -inf and nan, which JSON has no number for, are spelled as Python spells them."""
    if isinstance(value, dict):
        return {k: _json_ready(v, fmt) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v, fmt) for v in value]
    if isinstance(value, float):
        return str(value) if not math.isfinite(value) else float(fmt(value)) if fmt else value
    return value


@dataclass(eq=False)
class ShotBudget:
    """Total state copies and their split across measurement settings."""

    total_copies: float
    allocation: dict  # setting label -> copies

    def __post_init__(self):
        if not (math.isfinite(self.total_copies) and self.total_copies > 0):
            raise ValueError(f"total_copies must be positive and finite, got {self.total_copies!r}")
        alloc = {str(k): float(v) for k, v in self.allocation.items()}
        if not all(math.isfinite(v) and v > 0 for v in alloc.values()):
            raise ValueError("every setting needs a positive, finite number of copies")
        total = sum(alloc.values())
        if abs(total - self.total_copies) > DEFAULT.budget_sum * max(1.0, self.total_copies):
            raise ValueError(
                f"allocation sums to {total!r}, budget says {self.total_copies!r}"
            )
        self.allocation = alloc

    @classmethod
    def equal_split(cls, total_copies: float, ineq: BellInequality) -> "ShotBudget":
        per = total_copies / ineq.n_settings
        return cls(total_copies, {s.label: per for s in ineq.settings})

    def copies_for(self, label: str) -> float:
        try:
            return self.allocation[label]
        except KeyError:
            raise ValueError(f"budget has no allocation for setting {label!r}") from None


@dataclass(eq=False)
class CountTable:
    """Per-setting outcome counts; real-valued in predicted mode, integer in
    sampled mode."""

    inequality: str
    counts: dict  # setting label -> 1-d array
    mode: str = "sampled"

    def __post_init__(self):
        if self.mode not in ("predicted", "sampled"):
            raise ValueError(f"unknown count mode {self.mode!r}")
        clean = {}
        for label, vec in self.counts.items():
            arr = np.asarray(vec, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"counts for {label!r} must be a flat vector")
            typed = isinstance(vec, np.ndarray) and vec.dtype.kind in "iuf"  # float() also reads "1" and True
            if bad := [] if typed else [c for c in vec if isinstance(c, (str, bytes, bool, np.bool_))]:
                raise ValueError(f"count {bad[0]!r} in setting {label!r} is not a number")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite count in setting {label!r}")
            if np.any(arr < 0):
                raise ValueError(f"negative count in setting {label!r}")
            if self.mode == "sampled":
                if not np.all(arr == np.round(arr)):
                    raise ValueError(f"sampled counts must be integers in setting {label!r}")
                exact = np.asarray(vec)  # integers as given, not rounded to 53 bits
                exact = exact if exact.dtype.kind in "iu" else arr
                if np.any(exact >= 2**63):  # past int64, where the cast below would wrap
                    raise ValueError(f"sampled counts must be below 2**63 in setting {label!r}")
                arr = exact.astype(np.int64)
            else:
                arr = arr.copy()
            arr.setflags(write=False)
            clean[str(label)] = arr
        self.counts = clean

    def for_setting(self, label: str) -> np.ndarray:
        try:
            return self.counts[label]
        except KeyError:
            raise ValueError(f"count table has no setting {label!r}") from None

    def total(self) -> float:
        return float(sum(v.sum(dtype=float) for v in self.counts.values()))

    def to_json_dict(self) -> dict:
        return {
            "inequality": self.inequality,
            "mode": self.mode,
            "settings": [
                {"label": label, "counts": vec.tolist()}  # int64 counts as ints, float64 as floats
                for label, vec in self.counts.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CountTable":
        try:
            name = str(data["inequality"])
            pairs = [(str(e["label"]), e["counts"], np.asarray(e["counts"], dtype=float)) for e in data["settings"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed count table: {exc}") from exc
        entries = {}
        for label, vec, _ in pairs:
            if label in entries:
                raise ValueError(f"count table lists setting {label!r} twice")
            entries[label] = vec
        mode = data.get("mode")
        if mode is None:
            integral = all(np.all(v == np.round(v)) for _, _, v in pairs)
            mode = "sampled" if integral else "predicted"
        return cls(name, entries, str(mode))


@dataclass(frozen=True)
class SettingEstimate:
    label: str
    mean: float
    error: float
    n_total: float


@dataclass(eq=False)
class SignificanceReport:
    """Violation V, propagated error E, and significance S = V/E.

    ``significance`` is ``math.inf`` when E = 0 with positive violation; the
    ``degenerate`` flag marks the remaining E = 0 cases (S reported as 0).
    """

    violation: float
    error: float
    significance: float
    degenerate: bool = False
    per_setting: tuple = ()
    metadata: dict = field(default_factory=dict)

    @property
    def infinite(self) -> bool:
        return math.isinf(self.significance)

    def to_json_dict(self) -> dict:
        return _json_ready({
            "violation": self.violation,
            "error": self.error,
            "significance": self.significance,
            "degenerate": self.degenerate,
            "settings": [asdict(s) for s in self.per_setting],
            "metadata": self.metadata,
        })


def _significance_of(v: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map V and E arrays to (S, degenerate): S = V/E, and where E == 0.0, S is
    inf for V > 0 and otherwise 0, flagged degenerate."""
    zero = e == 0.0
    return np.where(zero, np.where(v > 0, np.inf, 0.0), v / np.where(zero, 1.0, e)), zero & np.logical_not(v > 0)


def _expected_counts(probabilities: np.ndarray, ineq: BellInequality, budget: ShotBudget) -> np.ndarray:
    """(n_settings, 2**n) table of N_s * p_{s,o} from probability rows; finite and non-negative."""
    copies = np.array([budget.copies_for(s.label) for s in ineq.settings])
    return copies[:, None] * probabilities


def _poisson_means(rho, ineq: BellInequality, budget: ShotBudget) -> np.ndarray:
    """The expected-count table of ``ineq``, refused if ``Generator.poisson`` cannot sample it."""
    means = _expected_counts(ineq.probabilities(rho), ineq, budget)
    s, o = divmod(int(means.argmax()), means.shape[1])
    if means[s, o] > _POISSON_LAM_MAX:
        raise ValueError(f"expected count {float(means[s, o])!r} in setting {ineq.settings[s].label!r} is too large to sample")
    return means


def predicted_counts(rho, ineq: BellInequality, budget: ShotBudget) -> CountTable:
    """Deterministic expectation of the counting experiment: N_s * p_{s,o}."""
    means = _expected_counts(ineq.probabilities(rho), ineq, budget)
    return CountTable(ineq.name, {s.label: row for s, row in zip(ineq.settings, means)}, mode="predicted")


def sample_counts(rho, ineq: BellInequality, budget: ShotBudget, seed) -> CountTable:
    """Poisson-sampled counts, one independent draw per outcome.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; a fixed seed
    reproduces the table bit for bit.  One ``poisson`` call draws the whole
    table, settings in order; a mean above the largest that ``poisson``
    accepts is refused with its setting.
    """
    counts = np.random.default_rng(seed).poisson(_poisson_means(rho, ineq, budget))
    return CountTable(ineq.name, {s.label: row for s, row in zip(ineq.settings, counts)}, mode="sampled")


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Last-axis dot products, broadcast, each rounded exactly as ``a[s] @ b[s]``
    for C-contiguous inputs (matmul picks its summation by memory layout)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def setting_estimates(counts, coeffs, labels=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, Gaussian-propagated errors and total counts of a stack of settings.

    ``counts`` is a (..., n_settings, n_outcomes) stack of count tables and
    ``coeffs`` the (n_settings, n_outcomes) coefficient table; each row is
    estimated on its own.  When every outcome that actually occurred in a row
    carries the same coefficient (stabilizer measurements, single-outcome
    support), that row's mean equals the first such coefficient and its error
    is exactly zero; the general formula only blurs this with round-off.  A
    mean or error that is not finite is refused, naming its ``labels`` entry or row.
    """
    n = np.ascontiguousarray(counts, dtype=float)
    lam = np.ascontiguousarray(coeffs, dtype=float)
    if lam.ndim != 2 or n.shape[-2:] != lam.shape:
        raise ValueError("counts and coefficients must have matching shape")
    if np.any(n < 0):
        raise ValueError("negative counts")
    n_tot = n.sum(axis=-1)
    if np.any(n_tot <= 0):
        raise ValueError("no events recorded in this setting")
    for x in (float(n_tot.min()), float(n_tot.max())):  # Python floats: no warning on overflow or underflow
        if not np.finfo(float).tiny <= x * x < math.inf:  # False for NaN too
            raise ValueError(f"setting total {x!r} has no finite positive normal square")
    supported = n > 0
    hit, lam_t = np.ascontiguousarray(np.moveaxis(supported, -1, 0)), np.expand_dims(lam.T, tuple(range(1, n.ndim - 1)))
    spread = np.where(hit, lam_t, -np.inf).max(axis=0) - np.where(hit, lam_t, np.inf).min(axis=0)  # exact: outcome-first is fastest
    flat = spread <= DEFAULT.coeff_spread
    with np.errstate(over="ignore", invalid="ignore"):  # huge coefficients: refused below
        mean = _row_dot(lam, n) / n_tot
        err_sq = _row_dot((lam - mean[..., None]) ** 2, n) / (n_tot * n_tot)
    first = lam[np.arange(len(lam)), supported.argmax(axis=-1)]
    mean, err = np.where(flat, first, mean), np.where(flat, 0.0, np.sqrt(err_sq))
    if (bad := np.flatnonzero(~(np.isfinite(mean) & np.isfinite(err)))).size:
        i, s = bad[0], bad[0] % len(lam)
        name = repr(labels[s]) if labels else f"row {s}"
        raise ValueError(f"setting {name} has no finite estimate: mean {float(mean.flat[i])!r}, error {float(err.flat[i])!r}")
    return mean, err, n_tot


def setting_estimate(counts, coeffs) -> tuple[float, float]:
    """Mean and Gaussian-propagated error of one setting (see
    ``setting_estimates``)."""
    mean, err, _ = setting_estimates(np.asarray(counts, dtype=float)[None], np.asarray(coeffs, dtype=float)[None])
    return float(mean[0]), float(err[0])


def _combine(means: np.ndarray, errors: np.ndarray, lhv_bound: float):
    """V = sum of means - C_lhv and E = sqrt(sum of squared errors) over the last
    (setting) axis.  ``cumsum`` adds left to right, unlike numpy's pairwise sum
    or Python 3.12+'s compensated ``sum``, so V and E reproduce bit for bit."""
    v = np.cumsum(means, axis=-1)[..., -1] - lhv_bound
    return v, np.sqrt(np.cumsum(errors * errors, axis=-1)[..., -1])


def _finite_combine(means: np.ndarray, errors: np.ndarray, ineq: BellInequality):
    """V, E, S and ``degenerate`` of ``ineq``'s settings (``_combine``, ``_significance_of``), refused at
    the first point whose V or E is not finite, else at the first whose S is not finite while E > 0."""
    with np.errstate(over="ignore", invalid="ignore"):  # sums and quotients past the float range: refused below
        v, e = _combine(means, errors, ineq.lhv_bound)
        s, degenerate = _significance_of(v, e)
    for what, bad in (("violation and error", ~(np.isfinite(v) & np.isfinite(e))), ("significance", ~np.isfinite(s) & (e > 0))):
        if (at := np.flatnonzero(bad)).size:
            v0, e0 = float(np.ravel(v)[at[0]]), float(np.ravel(e)[at[0]])
            raise ValueError(f"inequality {ineq.name!r} has no finite {what}: V {v0!r}, E {e0!r}")
    return v, e, s, degenerate


def evaluate(counts: CountTable, ineq: BellInequality) -> SignificanceReport:
    """Combine all settings of an inequality into (V, E, S).

    V = sum of setting means - C_lhv; setting errors add in quadrature since
    each setting is measured on its own ensemble.  The table must belong to
    ``ineq`` (same name) and hold no setting that ``ineq`` lacks.
    """
    if counts.inequality != ineq.name:
        raise ValueError(f"count table is for {counts.inequality!r}, not {ineq.name!r}")
    labels = [s.label for s in ineq.settings]
    extra = sorted(set(counts.counts) - set(labels))
    if extra:
        raise ValueError(f"count table has settings {extra} that {ineq.name!r} lacks")
    d = 2**ineq.n_qubits
    rows = []
    for label in labels:
        vec = counts.for_setting(label)
        if vec.size != d:
            raise ValueError(f"setting {label!r} has {vec.size} outcomes, expected {d}")
        rows.append(vec)
    means, errors, totals = setting_estimates(np.array(rows, dtype=float), ineq.outcome_coeffs, labels)
    estimates = tuple(map(SettingEstimate, labels, means.tolist(), errors.tolist(), totals.tolist()))
    v, e, s, degenerate = _finite_combine(means, errors, ineq)
    meta = {"inequality": ineq.name, "lhv_bound": ineq.lhv_bound,
            "mode": counts.mode, "total_counts": counts.total()}
    return SignificanceReport(float(v), float(e), float(s), bool(degenerate), estimates, meta)


def variance_model_significance(state, test, copies: float | None = None) -> SignificanceReport:
    """Significance in the simple model E = sqrt(<T^2> - <T>^2).

    ``test`` is a Witness (V = -<W>) or a BellInequality (V = <B> - C_lhv).
    By default E is the single-copy standard deviation, taken as 0.0 when at
    most ``zero_error`` times max(1, max|T|), the round-off of an exact
    eigenstate; pass a positive, finite ``copies`` to scale it by 1/sqrt(copies).
    """
    if isinstance(test, Witness):
        op, v_sign, offset, name = test.matrix, -1.0, 0.0, test.name
    elif isinstance(test, BellInequality):
        op, v_sign, offset, name = test.operator, 1.0, test.lhv_bound, test.name
    else:
        raise ValueError("test must be a Witness or a BellInequality")
    v = v_sign * expectation(state, op) - offset
    e = math.sqrt(variance(state, op))
    e = e if e > DEFAULT.zero_error * max(1.0, float(np.max(np.abs(op)))) else 0.0
    if copies is not None:
        if not 0 < copies < math.inf:  # NaN gives E = nan, inf E = 0
            raise ValueError("copies must be positive" if copies <= 0 else f"copies must be positive and finite, got {copies!r}")
        e /= math.sqrt(copies)
    s, degenerate = _significance_of(v, e)
    return SignificanceReport(v, e, float(s), bool(degenerate), (), {"error_model": "variance", "test": name})


def _as_initial_state(initial_state, n: int) -> DensityMatrix:
    if initial_state is None:  # each call gets its own copy of the shared, read-only GHZ_n
        return copy.copy(_ghz(n) if type(n) is int else _ghz.__wrapped__(n))
    if isinstance(initial_state, PureState):
        return DensityMatrix.from_pure(initial_state)
    if not isinstance(initial_state, DensityMatrix):
        raise ValueError("initial_state must be a DensityMatrix or PureState")
    if initial_state.n_qubits != n:
        raise ValueError("initial state qubit count does not match")
    return initial_state


@cache
def _ghz(n: int) -> DensityMatrix:
    """GHZ_n as a density matrix, built and validated once per int n, as ``mermin(n)``."""
    return DensityMatrix.from_pure(ghz_state(n))


def apply_noise(state: DensityMatrix, family: str, p: float) -> DensityMatrix:
    """Bit-flip on every qubit, or global white noise, at strength p."""
    return DensityMatrix(state.n_qubits, _noisy_stack(state.matrix, family, [p])[0])


@dataclass(eq=False)
class SweepTable:
    """Noise sweep results: per grid point the fidelity with GHZ_n and the
    (V, E, S) triple of every inequality."""

    noise: str
    n_qubits: int
    total_copies: float
    tags: tuple
    p: np.ndarray
    fidelity: np.ndarray
    values: dict  # tag -> {"V": array, "E": array, "S": array}
    metadata: dict = field(default_factory=dict)

    def _columns(self) -> list[tuple[str, np.ndarray]]:
        """(name, values) of each column in table order: p, F, then V, E, S of each tag."""
        return [("p", self.p), ("F", self.fidelity)] + [
            (f"{key}_{tag}", self.values[tag][key]) for tag in self.tags for key in "VES"]

    def header(self) -> list[str]:
        return [name for name, _ in self._columns()]

    def rows(self) -> list[list[float]]:
        """One list of Python floats per grid point, in ``header`` order."""
        return np.column_stack([col for _, col in self._columns()]).tolist()

    def to_csv_text(self) -> str:
        row = ",".join(["%.9g"] * len(header := self.header()))  # f"{x:.9g}" per value, formatted in one step
        return "\n".join([",".join(header)] + [row % tuple(x) for x in self.rows()]) + "\n"

    def to_json_dict(self) -> dict:
        header = self.header()
        return _json_ready({
            "noise": self.noise,
            "n_qubits": self.n_qubits,
            "total_copies": self.total_copies,
            "metadata": self.metadata,
            "rows": [dict(zip(header, row)) for row in self.rows()],
        })


def _sweep_evaluator(ineqs, noise: str, grid, initial_state, total_copies: float):
    """Check the arguments a sweep and a crossing search share (tags may repeat) and build
    what their chunks share: one plan, and the (S, 1) copies and (S, 2**n) coefficients
    of all S settings with each inequality's offsets.  Returns the checked initial state
    and ``(grid, rows, table)``: ``rows(ps)`` runs the noise strengths ``ps`` as one
    validated (G, d, d) state stack and one kernel call, giving the stack and its (G, S,
    2**n) probability rows; ``table(probs)`` runs one estimate pass, then one
    ``_finite_combine`` per inequality, giving an (n_ineqs, 3, G) V, E, S table."""
    ineqs = list(ineqs)
    if not ineqs:
        raise ValueError("need at least one inequality")
    n = ineqs[0].n_qubits
    if any(q.n_qubits != n for q in ineqs):
        raise ValueError("all inequalities must share the qubit count")
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("empty noise grid")
    if np.any(~((grid >= 0) & (grid <= 1))):
        raise ValueError("noise grid values must lie in [0, 1]")
    state0 = _as_initial_state(initial_state, n)
    plan = _contraction_plan([s for q in ineqs for s in q.settings])
    labels = [s.label for s in plan[2]]  # a refusal names the setting, as ``evaluate`` does
    copies = np.array([[c] for q in ineqs for c in ShotBudget.equal_split(total_copies, q).allocation.values()])
    coeffs = np.concatenate([q.outcome_coeffs for q in ineqs])
    offsets = np.cumsum([0] + [q.n_settings for q in ineqs])

    def rows(ps):
        noisy = _noisy_stack(state0.matrix, noise, ps)
        _validate_stack(noisy)
        return noisy, _probability_rows(noisy, plan)

    def table(probs):
        means, errors, _ = setting_estimates(copies * probs, coeffs, labels)
        return np.array([_finite_combine(means[:, a:b], errors[:, a:b], q)[:3] for q, a, b in zip(ineqs, offsets, offsets[1:])])

    return state0, grid, rows, table


def significance_sweep(
    ineqs,
    noise: str,
    grid,
    initial_state=None,
    total_copies: float = 8000.0,
) -> SweepTable:
    """Evaluate predicted-count significance for each inequality along a noise
    grid, tracking the GHZ fidelity of the noisy state, one evaluator chunk of at
    most ``_SWEEP_ENTRIES`` state entries (one kernel call) at a time."""
    ineqs = list(ineqs)
    _, grid, rows, table = _sweep_evaluator(ineqs, noise, grid, initial_state, total_copies)
    if len({q.tag for q in ineqs}) != len(ineqs):  # the table keys its values by tag
        raise ValueError("inequality tags must be distinct within one sweep")
    step, reference = max(1, _SWEEP_ENTRIES // 4 ** ineqs[0].n_qubits), ghz_state(ineqs[0].n_qubits)
    chunks = [([fidelity_with_pure(m, reference) for m in noisy], table(probs))
              for noisy, probs in (rows(grid[i:i + step].tolist()) for i in range(0, grid.size, step))]
    fid, values = (np.concatenate(x, axis=-1) for x in zip(*chunks))
    return SweepTable(
        noise=noise, n_qubits=ineqs[0].n_qubits, total_copies=total_copies,
        tags=tuple(q.tag for q in ineqs), p=grid, fidelity=fid,
        values={q.tag: dict(zip("VES", ves)) for q, ves in zip(ineqs, values)},
        metadata={"inequalities": [q.name for q in ineqs]},
    )


@dataclass(frozen=True)
class CrossingResult:
    p_star: float
    fidelity_star: float
    noise: str
    n_qubits: int


def _moment_model(ps, nodes, moments, ineqs, copies, terms, eta):
    """Model S of the pair ``ineqs`` at the noise strengths ``ps``, its (2, G) bounds on
    |S_model - S_exact| and the mask of the points it cannot certify (README, "Crossing search",
    steps 2-4), from the (k, 3, S) sums B, A, C of the exact rows at the ``nodes`` against 1, lambda
    and lambda**2: M = A/B and E**2 = (C/B - M**2)/(cB) for c ``copies``, and ``terms`` holds step 3's
    (4, 2, 1) constants.  It never raises or warns; a point with a value not finite is not certified."""
    ps, k, d, cut = np.asarray(ps, dtype=float), len(nodes), 2 ** ineqs[0].n_qubits, ineqs[0].n_settings
    g, halves = 2 * _gamma(2 * (d + max(cut, ineqs[1].n_settings)) + 16), (slice(cut), slice(cut, None))
    with np.errstate(all="ignore"):
        # the Lagrange basis as products of ratios (x - x_m)/(x_j - x_m): each keeps its relative accuracy
        # where x - x_m is subnormal (README, step 2)
        lag = np.where(np.eye(k, dtype=bool), 1.0, (ps[:, None] - nodes)[:, None, :] / (nodes[:, None] - nodes)).prod(axis=2)
        leb, (b, a, c) = np.abs(lag).sum(axis=1), np.tensordot(lag, moments, 1).transpose(1, 0, 2)
        mean = a / b
        err = np.sqrt((c / b - mean * mean) / (copies * b))  # NaN where the difference rounds below 0
        v, e = np.array([_combine(mean[:, at], err[:, at], q.lhv_bound) for q, at in zip(ineqs, halves)]).transpose(1, 0, 2)
        s = _significance_of(v, e)[0]
        delta = d * (leb + 1) * eta + _gamma(2 * d + 5 * k + 2) * leb * moments[:, 0].max()  # step 2
        tau = np.minimum(b.min(axis=1) - delta, 1 - 2 * delta)
        big_d = (delta + g) / tau**2  # step 3
        de = (big_d * terms[2] + terms[3]) / e + g * e
        bound = (2 * big_d * terms[0] + terms[1] + np.abs(s) * de) / (e - de) + g * np.abs(s)
        unsure = ~((tau > 0.5) & np.all((e > de) & np.isfinite(bound), axis=0) & (np.abs(s[0] - s[1]) > bound.sum(axis=0)))
    return s, bound, unsure


def _sign_source(ineqs, noise: str, span, coarse: int, initial_state, total_copies: float, step: int):
    """A crossing search's one source of gaps S_first - S_second of ``ineqs``: the checked initial state, the
    ``coarse``-point grid on ``span`` and ``readings(ps, batch)``, which yields each point of ``ps`` in order
    with its gap, the moment model's where one call certifies it, else read exactly with the next uncertified
    points, ``batch`` per estimate pass, a node taking its rows (README, "Crossing search", steps 1-4)."""
    (lo, hi), n, spread, copies, terms = span, ineqs[0].n_qubits, DEFAULT.coeff_spread, [], []
    state0, grid, rows, table = _sweep_evaluator(ineqs, noise, np.linspace(lo, hi, coarse), initial_state, total_copies)
    k, d, m0, coeffs = _NOISE[noise][3](n) + 1, 2**n, state0.matrix, np.concatenate([q.outcome_coeffs for q in ineqs])
    nodes = np.minimum(lo + (hi - lo) * (0.5 - 0.5 * np.cos(np.pi * np.arange(k) / (k - 1))), hi)
    node_rows = np.full((k, len(coeffs), d), np.nan)
    with np.errstate(all="ignore"), contextlib.suppress(ValueError):  # refused nodes: NaN rows certify nothing
        node_rows = np.concatenate([rows(nodes[i:i + step].tolist())[1] for i in range(0, k, step)])
    with np.errstate(all="ignore"):
        moments = np.einsum("kso,wso->kws", node_rows, coeffs ** np.arange(3.0)[:, None, None])
        eta = _gamma(d * d + 16 * n + 8) * np.linalg.norm(m0) + 2 * (d + 1) * DEFAULT.psd_clamp + abs(np.trace(m0).real - 1)  # step 1
        for q in ineqs:  # step 3's constants for S settings of c copies each, L the largest |coefficient| of a setting
            lam, c, n_set = np.abs(q.outcome_coeffs).max(axis=1), total_copies / q.n_settings, q.n_settings
            # infinite where a total, sum or error of the exact estimate pass can leave the float range (step 4)
            fits = 16 * np.finfo(float).tiny <= c * c and 16 * (1 + lam.max() ** 2) * max(c * c, 1 / c) < np.inf
            terms.append([lam.sum() + abs(q.lhv_bound) if fits else np.inf, 2 * n_set * spread, 9 * lam @ lam / c, n_set * spread**2 / c])
            copies += [c] * n_set
    model = nodes, moments, ineqs, np.array(copies), np.transpose(terms)[:, :, None], eta

    def gap(s) -> np.ndarray:  # NaN, a tie, where both S are one infinity
        with np.errstate(all="ignore"):
            return s[0] - s[1]

    def readings(ps, batch: int):
        ps = np.asarray(ps, dtype=float)
        s, _, unsure = _moment_model(ps, *model)
        gaps = gap(s)
        for i, p in enumerate(ps.tolist()):
            if unsure[i]:
                todo = i + np.flatnonzero(unsure[i:])[:batch]
                hit = (ps[todo, None] == nodes) & np.isfinite(node_rows).all(axis=(1, 2))
                probs, new = node_rows[hit.argmax(axis=1)], ~hit.any(axis=1)
                if new.any():
                    probs[new] = rows(ps[todo][new].tolist())[1]
                gaps[todo], unsure[todo] = gap(table(probs)[:, 2]), False
            yield p, gaps[i]
    return state0, grid, readings


def crossing_point(
    noise: str,
    n: int | None = None,
    initial_state=None,
    total_copies: float = 8000.0,
    ineqs=None,
    span: tuple[float, float] | None = None,
    coarse: int = 33,
) -> CrossingResult:
    """Locate where the pair ``ineqs`` (Mermin and Ardehali by default; ``n`` defaults to its qubit count, 4 for
    the default pair) swaps significance order on ``span`` (the family's ``DEFAULT_SPAN`` by default): the first
    sign change of S_first - S_second on a ``coarse``-point grid (infinities larger than any finite value, ties
    skipped), bisected to the configured resolution; p* is the all-exact search's to the bit (README)."""
    if noise not in _NOISE:
        raise ValueError(f"unknown noise family {noise!r}; expected one of {NOISE_FAMILIES}")
    ineqs = (mermin(4 if n is None else n), ardehali(4 if n is None else n)) if ineqs is None else tuple(ineqs)
    if len(ineqs) != 2:
        raise ValueError(f"ineqs must be two inequalities, got {len(ineqs)}")
    if n not in (None, ineqs[0].n_qubits):
        raise ValueError(f"n = {n} does not match the inequalities' {ineqs[0].n_qubits} qubits")
    n, span = ineqs[0].n_qubits, DEFAULT_SPAN[noise] if span is None else span
    if np.shape(span) != (2,) or not 0.0 <= span[0] < span[1] <= 1.0:
        raise ValueError(f"invalid search span {span!r}")
    if isinstance(coarse, (bool, np.bool_)) or not isinstance(coarse, (int, np.integer)) or coarse < 0:
        raise ValueError(f"coarse must be a non-negative integer, got {coarse!r}")
    step = max(1, _SCAN_ENTRIES // 4**n)
    state0, grid, readings = _sign_source(ineqs, noise, span, coarse, initial_state, total_copies, step)

    def sign(g) -> int:
        return int(g > 0) - int(g < 0)

    a, g_a = None, 0.0  # the last scan point with a nonzero sign, and its gap
    for b, g_b in readings(grid, step):  # up to the first pair of nonzero signs that differ; ties are skipped
        if sign(g_a) * sign(g_b) < 0:
            break
        a, g_a = (b, g_b) if sign(g_b) else (a, g_a)
    else:
        raise NoCrossingError(f"significance difference does not change sign on [{span[0]:g}, {span[1]:g}] for {noise} noise")
    sign_a = sign(g_a)
    while b - a > DEFAULT.bisection:
        # the midpoints the one-step loop visits if its signs follow the gaps' secant root r
        # (the midpoint if r is not finite or not in [a, b]), read until the signs turn away from r
        with np.errstate(all="ignore"):
            r = a - g_a * (b - a) / (g_b - g_a)
        r, path, x, y = r if a <= r <= b else 0.5 * (a + b), [], a, b
        while y - x > DEFAULT.bisection:
            path.append(0.5 * (x + y))
            x, y = (path[-1], y) if path[-1] <= r else (x, path[-1])
        for mid, g_mid in readings(path, 1):
            left = sign(g_mid) in (sign_a, 0)
            a, g_a, b, g_b = (mid, g_mid, b, g_b) if left else (a, g_a, mid, g_mid)
            if left != (mid <= r):
                break
    p_star = 0.5 * (a + b)
    return CrossingResult(p_star, fidelity_with_pure(apply_noise(state0, noise, p_star), ghz_state(n)), noise, n)


@dataclass(frozen=True)
class MonteCarloSummary:
    trials: int
    predicted_violation: float
    violation_mean: float
    violation_std: float
    error_mean: float
    std_ratio: float
    coverage: float

    def to_json_dict(self) -> dict:
        return _json_ready(asdict(self))


def _monte_carlo_studies(rho, studies, trials: int, seed: int) -> list[MonteCarloSummary]:
    """``monte_carlo_study`` of each (inequality, budget) pair of ``studies``: trial
    i's generator is built once, and its fresh state set back before each later
    study's draw.  Each study draws into one preallocated (block, S, 2**n) float64
    array of at most ``_BLOCK_COUNTS`` counts, estimated in one pass per block."""
    if not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be a whole number, got {trials!r}")
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful comparison")
    expected = [_poisson_means(rho, q, b) for q, b in studies]
    labels = [[s.label for s in q.settings] for q, _ in studies]  # a refusal names the setting
    v_pred = [float(_finite_combine(*setting_estimates(x, q.outcome_coeffs, names)[:2], q)[0])
              for x, (q, _), names in zip(expected, studies, labels)]
    v, e = np.zeros((2, len(studies), trials))
    block = min(trials, max(1, _BLOCK_COUNTS // max(x.size for x in expected)))
    draws = [np.empty((block,) + x.shape) for x in expected]  # float64 takes each int64 draw as setting_estimates would
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        for i in range(start, stop):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            fresh = rng.bit_generator.state
            for k, x in enumerate(expected):
                if k:
                    rng.bit_generator.state = fresh
                draws[k][i - start] = rng.poisson(x)
        for k, (q, _) in enumerate(studies):
            counts = draws[k][:stop - start]
            v[k, start:stop], e[k, start:stop] = _finite_combine(*setting_estimates(counts, q.outcome_coeffs, labels[k])[:2], q)[:2]
    summaries = []
    for vk, ek, vp in zip(v, e, v_pred):
        v_std, e_mean = float(np.std(vk, ddof=1)), float(np.mean(ek))
        ratio = v_std / e_mean if e_mean > 0 else math.nan
        coverage = float(np.mean(np.abs(vk - vp) <= ek))
        summaries.append(MonteCarloSummary(trials, vp, float(np.mean(vk)), v_std, e_mean, ratio, coverage))
    return summaries


def monte_carlo_study(
    rho,
    ineq: BellInequality,
    budget: ShotBudget,
    trials: int,
    seed: int = 0,
) -> MonteCarloSummary:
    """Validate the propagated error against direct Poisson simulation.

    Runs ``trials`` independent sampled experiments and compares the
    empirical spread of V with the average propagated E.  Trial i draws its
    counts from the fresh state of its own ``SeedSequence(entropy=seed,
    spawn_key=(i,))`` generator, so any execution order, and any study run
    alongside, gives the same set.  Trials are drawn into a preallocated
    (B, S, 2**n) block of at most ``_BLOCK_COUNTS`` counts (B = 256 trials for
    4-qubit Mermin, 8 for 6-qubit Ardehali), which goes to ``setting_estimates``
    and ``_combine`` in one pass; each row is estimated on its own.
    ``coverage`` is the fraction of trials whose +-1E interval contains the
    deterministic V.
    """
    return _monte_carlo_studies(rho, [(ineq, budget)], trials, seed)[0]
