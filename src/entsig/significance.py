"""Counting-statistics error propagation and test significance.

The per-setting error model: outcome counts n_o are independent Poisson
variables, the derived mean M = sum_o lambda_o n_o / n_tot carries the
Gaussian-propagated error

    E(M)^2 = sum_o (lambda_o / n_tot - M / n_tot)^2 n_o.

Settings are measured on disjoint ensembles, so setting errors combine in
quadrature.  Significance is S = V / E with V the violation; S is flagged
infinite when the error vanishes while the violation is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import apply_to_all, bit_flip_channel, white_noise
from .core import DensityMatrix, PureState, expectation, fidelity_with_pure, ghz_state, variance
from .inequalities import BellInequality, Witness, _contraction_plan, _probability_rows, ardehali, mermin
from .tolerances import DEFAULT, Tolerances

NOISE_FAMILIES = ("bitflip", "white")
# noise-parameter range of the default sweep grid and crossing search
DEFAULT_SPAN = {"bitflip": (0.0, 0.25), "white": (0.0, 0.9)}


class NoCrossingError(RuntimeError):
    """The significance difference does not change sign on the search span."""


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
        if abs(total - self.total_copies) > 1e-6 * max(1.0, self.total_copies):
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
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite count in setting {label!r}")
            if np.any(arr < 0):
                raise ValueError(f"negative count in setting {label!r}")
            if self.mode == "sampled":
                if not np.all(arr == np.round(arr)):
                    raise ValueError(f"sampled counts must be integers in setting {label!r}")
                arr = arr.astype(np.int64)
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
        return float(sum(v.sum() for v in self.counts.values()))

    def to_json_dict(self) -> dict:
        return {
            "inequality": self.inequality,
            "mode": self.mode,
            "settings": [
                {"label": label, "counts": [int(c) if self.mode == "sampled" else float(c) for c in vec]}
                for label, vec in self.counts.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CountTable":
        try:
            name = str(data["inequality"])
            raw = data["settings"]
            entries = {str(e["label"]): np.asarray(e["counts"], dtype=float) for e in raw}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed count table: {exc}") from exc
        mode = data.get("mode")
        if mode is None:
            integral = all(np.all(v == np.round(v)) for v in entries.values())
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
        return {
            "violation": self.violation,
            "error": self.error,
            "significance": "inf" if self.infinite else self.significance,
            "degenerate": self.degenerate,
            "settings": [
                {"label": s.label, "mean": s.mean, "error": s.error, "n_total": s.n_total}
                for s in self.per_setting
            ],
            "metadata": self.metadata,
        }


def _significance_of(v: float, e: float, tol: Tolerances) -> tuple[float, bool]:
    """Map (V, E) to (S, degenerate) with the zero-error convention."""
    if e > tol.zero_error:
        return v / e, False
    if v > 0:
        return math.inf, False
    return 0.0, True


def _expected_counts(probabilities: np.ndarray, ineq: BellInequality, budget: ShotBudget) -> np.ndarray:
    """(n_settings, 2**n) table of N_s * p_{s,o} from probability rows; finite and non-negative."""
    copies = np.array([budget.copies_for(s.label) for s in ineq.settings])
    return copies[:, None] * probabilities


def predicted_counts(rho, ineq: BellInequality, budget: ShotBudget, tol: Tolerances = DEFAULT) -> CountTable:
    """Deterministic expectation of the counting experiment: N_s * p_{s,o}."""
    means = _expected_counts(ineq.probabilities(rho, tol), ineq, budget)
    return CountTable(ineq.name, {s.label: row for s, row in zip(ineq.settings, means)}, mode="predicted")


def sample_counts(rho, ineq: BellInequality, budget: ShotBudget, seed, tol: Tolerances = DEFAULT) -> CountTable:
    """Poisson-sampled counts, one independent draw per outcome.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; a fixed seed
    reproduces the table bit for bit.  One ``poisson`` call draws the whole
    table, settings in order.
    """
    counts = np.random.default_rng(seed).poisson(_expected_counts(ineq.probabilities(rho, tol), ineq, budget))
    return CountTable(ineq.name, {s.label: row for s, row in zip(ineq.settings, counts)}, mode="sampled")


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each rounded exactly as ``a[s] @ b[s]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def setting_estimates(counts, coeffs, tol: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, Gaussian-propagated errors and total counts of a stack of settings.

    ``counts`` and ``coeffs`` are (n_settings, n_outcomes) arrays, one row per
    setting.  When every outcome that actually occurred in a row carries the
    same coefficient (stabilizer measurements, single-outcome support), that
    row's mean equals the first such coefficient and its error is exactly
    zero; the general formula only blurs this with round-off.
    """
    n = np.asarray(counts, dtype=float)
    lam = np.asarray(coeffs, dtype=float)
    if n.shape != lam.shape or n.ndim != 2:
        raise ValueError("counts and coefficients must have matching shape")
    if np.any(n < 0):
        raise ValueError("negative counts")
    n_tot = n.sum(axis=1)
    if np.any(n_tot <= 0):
        raise ValueError("no events recorded in this setting")
    supported = n > 0
    spread = np.where(supported, lam, -np.inf).max(axis=1) - np.where(supported, lam, np.inf).min(axis=1)
    flat = spread <= tol.coeff_spread
    mean = _row_dot(lam, n) / n_tot
    err_sq = _row_dot((lam - mean[:, None]) ** 2, n) / (n_tot * n_tot)
    first = lam[np.arange(len(lam)), supported.argmax(axis=1)]
    return np.where(flat, first, mean), np.where(flat, 0.0, np.sqrt(err_sq)), n_tot


def setting_estimate(counts, coeffs, tol: Tolerances = DEFAULT) -> tuple[float, float]:
    """Mean and Gaussian-propagated error of one setting (see
    ``setting_estimates``)."""
    mean, err, _ = setting_estimates(np.asarray(counts, dtype=float)[None], np.asarray(coeffs, dtype=float)[None], tol)
    return float(mean[0]), float(err[0])


def _combine(means: np.ndarray, errors: np.ndarray, lhv_bound: float):
    """V = sum of means - C_lhv and E = sqrt(sum of squared errors) over the last
    (setting) axis.  ``cumsum`` adds left to right, unlike numpy's pairwise sum
    or Python 3.12+'s compensated ``sum``, so V and E reproduce bit for bit."""
    v = np.cumsum(means, axis=-1)[..., -1] - lhv_bound
    return v, np.sqrt(np.cumsum(errors * errors, axis=-1)[..., -1])


def evaluate(counts: CountTable, ineq: BellInequality, tol: Tolerances = DEFAULT) -> SignificanceReport:
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
    means, errors, totals = setting_estimates(np.array(rows, dtype=float), ineq.outcome_coeffs, tol)
    estimates = tuple(map(SettingEstimate, labels, means.tolist(), errors.tolist(), totals.tolist()))
    v, e = map(float, _combine(means, errors, ineq.lhv_bound))
    s, degenerate = _significance_of(v, e, tol)
    meta = {"inequality": ineq.name, "lhv_bound": ineq.lhv_bound,
            "mode": counts.mode, "total_counts": counts.total()}
    return SignificanceReport(v, e, s, degenerate, estimates, meta)


def variance_model_significance(state, test, copies: float | None = None, tol: Tolerances = DEFAULT) -> SignificanceReport:
    """Significance in the simple model E = sqrt(<T^2> - <T>^2).

    ``test`` is a Witness (V = -<W>) or a BellInequality (V = <B> - C_lhv).
    By default E is the single-copy standard deviation; pass ``copies`` to
    scale it by 1/sqrt(copies).
    """
    if isinstance(test, Witness):
        op, v_sign, offset, name = test.matrix, -1.0, 0.0, test.name
    elif isinstance(test, BellInequality):
        op, v_sign, offset, name = test.operator, 1.0, test.lhv_bound, test.name
    else:
        raise ValueError("test must be a Witness or a BellInequality")
    v = v_sign * expectation(state, op, tol) - offset
    e = math.sqrt(variance(state, op, tol))
    if copies is not None:
        if copies <= 0:
            raise ValueError("copies must be positive")
        e /= math.sqrt(copies)
    s, degenerate = _significance_of(v, e, tol)
    return SignificanceReport(v, e, s, degenerate, (), {"error_model": "variance", "test": name})


def _as_initial_state(initial_state, n: int) -> DensityMatrix:
    if initial_state is None:
        return DensityMatrix.from_pure(ghz_state(n))
    if isinstance(initial_state, PureState):
        return DensityMatrix.from_pure(initial_state)
    if not isinstance(initial_state, DensityMatrix):
        raise ValueError("initial_state must be a DensityMatrix or PureState")
    if initial_state.n_qubits != n:
        raise ValueError("initial state qubit count does not match")
    return initial_state


def apply_noise(state: DensityMatrix, family: str, p: float) -> DensityMatrix:
    """Bit-flip on every qubit, or global white noise, at strength p."""
    if family == "bitflip":
        return apply_to_all(state, bit_flip_channel(p))
    if family == "white":
        return white_noise(state, p)
    raise ValueError(f"unknown noise family {family!r}; expected one of {NOISE_FAMILIES}")


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

    def header(self) -> list[str]:
        cols = ["p", "F"]
        for tag in self.tags:
            cols += [f"V_{tag}", f"E_{tag}", f"S_{tag}"]
        return cols

    def rows(self):
        for i in range(len(self.p)):
            row = [float(self.p[i]), float(self.fidelity[i])]
            for tag in self.tags:
                row += [float(self.values[tag][key][i]) for key in ("V", "E", "S")]
            yield row

    def to_csv_text(self) -> str:
        lines = [",".join(self.header())]
        for row in self.rows():
            lines.append(",".join(f"{x:.9g}" for x in row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        header = self.header()
        rows = []
        for row in self.rows():
            rows.append(
                {key: ("inf" if math.isinf(x) else float(f"{x:.9g}")) for key, x in zip(header, row)}
            )
        return {
            "noise": self.noise,
            "n_qubits": self.n_qubits,
            "total_copies": self.total_copies,
            "metadata": self.metadata,
            "rows": rows,
        }


def significance_sweep(
    ineqs,
    noise: str,
    grid,
    initial_state=None,
    total_copies: float = 8000.0,
    tol: Tolerances = DEFAULT,
) -> SweepTable:
    """Evaluate predicted-count significance for each inequality along a noise
    grid, tracking the GHZ fidelity of the noisy state.  One probability
    kernel call per grid point serves all inequalities."""
    ineqs = list(ineqs)
    if not ineqs:
        raise ValueError("need at least one inequality")
    n = ineqs[0].n_qubits
    if any(q.n_qubits != n for q in ineqs):
        raise ValueError("all inequalities must share the qubit count")
    if len({q.tag for q in ineqs}) != len(ineqs):
        raise ValueError("inequality tags must be distinct within one sweep")
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("empty noise grid")
    if np.any((grid < 0) | (grid > 1)):
        raise ValueError("noise grid values must lie in [0, 1]")
    state0 = _as_initial_state(initial_state, n)
    reference = ghz_state(n)
    budgets = {q.tag: ShotBudget.equal_split(total_copies, q) for q in ineqs}
    plan = _contraction_plan([s for q in ineqs for s in q.settings])
    splits = np.cumsum([q.n_settings for q in ineqs])[:-1]
    fid = np.zeros(grid.size)
    values = {q.tag: {"V": np.zeros(grid.size), "E": np.zeros(grid.size), "S": np.zeros(grid.size)} for q in ineqs}
    for i, p in enumerate(grid):
        noisy = apply_noise(state0, noise, float(p))
        fid[i] = fidelity_with_pure(noisy, reference, tol)
        for q, rows in zip(ineqs, np.split(_probability_rows(noisy, plan, tol), splits)):
            means, errors, _ = setting_estimates(_expected_counts(rows, q, budgets[q.tag]), q.outcome_coeffs, tol)
            v, e = map(float, _combine(means, errors, q.lhv_bound))
            col = values[q.tag]
            col["V"][i], col["E"][i], col["S"][i] = v, e, _significance_of(v, e, tol)[0]
    return SweepTable(
        noise=noise, n_qubits=n, total_copies=total_copies,
        tags=tuple(q.tag for q in ineqs), p=grid, fidelity=fid, values=values,
        metadata={"inequalities": [q.name for q in ineqs]},
    )


@dataclass(frozen=True)
class CrossingResult:
    p_star: float
    fidelity_star: float
    noise: str
    n_qubits: int


def crossing_point(
    noise: str,
    n: int = 4,
    initial_state=None,
    total_copies: float = 8000.0,
    ineqs=None,
    span: tuple[float, float] | None = None,
    coarse: int = 33,
    tol: Tolerances = DEFAULT,
) -> CrossingResult:
    """Locate where the two inequalities swap significance order.

    Sweeps a coarse grid for a sign change of S_first - S_second (infinities
    compare as larger than any finite value), then bisects the bracketing
    interval down to the configured noise-parameter resolution with one-point
    sweeps.  ``span`` defaults to the family's ``DEFAULT_SPAN``.
    """
    if noise not in DEFAULT_SPAN:
        raise ValueError(f"unknown noise family {noise!r}; expected one of {NOISE_FAMILIES}")
    if ineqs is None:
        ineqs = (mermin(n), ardehali(n))
    first, second = ineqs
    state0 = _as_initial_state(initial_state, n)
    if span is None:
        span = DEFAULT_SPAN[noise]
    lo, hi = span
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"invalid search span {span!r}")

    def signs_at(grid) -> np.ndarray:
        table = significance_sweep((first, second), noise, grid, state0, total_copies, tol)
        s0, s1 = (table.values[q.tag]["S"] for q in (first, second))
        return (s0 > s1).astype(int) - (s0 < s1)

    grid = np.linspace(lo, hi, coarse)
    signs = signs_at(grid)
    # first pair of neighbouring nonzero signs that differ; ties are skipped
    nonzero = np.flatnonzero(signs)
    flips = np.flatnonzero(signs[nonzero[1:]] != signs[nonzero[:-1]])
    if flips.size == 0:
        raise NoCrossingError(
            f"significance difference does not change sign on [{lo:g}, {hi:g}] for {noise} noise"
        )
    i, j = nonzero[flips[0]], nonzero[flips[0] + 1]
    a, b, sign_a = float(grid[i]), float(grid[j]), signs[i]
    while b - a > tol.bisection:
        mid = 0.5 * (a + b)
        if signs_at([mid])[0] in (sign_a, 0):
            a = mid
        else:
            b = mid
    p_star = 0.5 * (a + b)
    f_star = fidelity_with_pure(apply_noise(state0, noise, p_star), ghz_state(n), tol)
    return CrossingResult(p_star, f_star, noise, n)


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
        out = {
            "trials": self.trials,
            "predicted_violation": self.predicted_violation,
            "violation_mean": self.violation_mean,
            "violation_std": self.violation_std,
            "error_mean": self.error_mean,
            "std_ratio": self.std_ratio,
            "coverage": self.coverage,
        }
        return {k: (v if not isinstance(v, float) or math.isfinite(v) else "nan") for k, v in out.items()}


def monte_carlo_study(
    rho,
    ineq: BellInequality,
    budget: ShotBudget,
    trials: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> MonteCarloSummary:
    """Validate the propagated error against direct Poisson simulation.

    Runs ``trials`` independent sampled experiments (seeds derived from the
    trial index, so any execution order gives the same set) and compares the
    empirical spread of V with the average propagated E.  ``coverage`` is the
    fraction of trials whose +-1E interval contains the deterministic V.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful comparison")
    expected = _expected_counts(ineq.probabilities(rho, tol), ineq, budget)
    v_pred = float(_combine(*setting_estimates(expected, ineq.outcome_coeffs, tol)[:2], ineq.lhv_bound)[0])
    means, errors = np.zeros((2, trials, ineq.n_settings))
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        means[i], errors[i], _ = setting_estimates(rng.poisson(expected), ineq.outcome_coeffs, tol)
    v, e = _combine(means, errors, ineq.lhv_bound)
    v_std = float(np.std(v, ddof=1))
    e_mean = float(np.mean(e))
    ratio = v_std / e_mean if e_mean > 0 else math.nan
    coverage = float(np.mean(np.abs(v - v_pred) <= e))
    return MonteCarloSummary(trials, v_pred, float(np.mean(v)), v_std, e_mean, ratio, coverage)
