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
from dataclasses import asdict, dataclass, field

import numpy as np

from .channels import _bit_flip_all, _require_unit, _white_mix
from .core import DensityMatrix, PureState, _validate_stack, expectation, fidelity_with_pure, ghz_state, variance
from .inequalities import BellInequality, Witness, _contraction_plan, _probability_rows, ardehali, mermin
from .tolerances import DEFAULT

# noise family -> (its strength in range errors, its (G, d, d) stack map)
_NOISE = {"bitflip": ("flip probability", _bit_flip_all), "white": ("white-noise weight", _white_mix)}
NOISE_FAMILIES = tuple(_NOISE)
# noise-parameter range of the default sweep grid and crossing search
DEFAULT_SPAN = {"bitflip": (0.0, 0.25), "white": (0.0, 0.9)}
# entries per sweep chunk of (G, d, d) states (16 points at 4 qubits, 1 at 6) and per Monte Carlo block of counts
_CHUNK_ENTRIES = 2**12


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
            pairs = [(str(e["label"]), np.asarray(e["counts"], dtype=float)) for e in data["settings"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed count table: {exc}") from exc
        entries = {}
        for label, vec in pairs:
            if label in entries:
                raise ValueError(f"count table lists setting {label!r} twice")
            entries[label] = vec
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
            "settings": [asdict(s) for s in self.per_setting],
            "metadata": self.metadata,
        }


def _significance_of(v: float, e: float) -> tuple[float, bool]:
    """Map (V, E) to (S, degenerate) with the zero-error convention."""
    if e > DEFAULT.zero_error:
        return v / e, False
    if v > 0:
        return math.inf, False
    return 0.0, True


def _expected_counts(probabilities: np.ndarray, ineq: BellInequality, budget: ShotBudget) -> np.ndarray:
    """(n_settings, 2**n) table of N_s * p_{s,o} from probability rows; finite and non-negative."""
    copies = np.array([budget.copies_for(s.label) for s in ineq.settings])
    return copies[:, None] * probabilities


def predicted_counts(rho, ineq: BellInequality, budget: ShotBudget) -> CountTable:
    """Deterministic expectation of the counting experiment: N_s * p_{s,o}."""
    means = _expected_counts(ineq.probabilities(rho), ineq, budget)
    return CountTable(ineq.name, {s.label: row for s, row in zip(ineq.settings, means)}, mode="predicted")


def sample_counts(rho, ineq: BellInequality, budget: ShotBudget, seed) -> CountTable:
    """Poisson-sampled counts, one independent draw per outcome.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; a fixed seed
    reproduces the table bit for bit.  One ``poisson`` call draws the whole
    table, settings in order.
    """
    counts = np.random.default_rng(seed).poisson(_expected_counts(ineq.probabilities(rho), ineq, budget))
    return CountTable(ineq.name, {s.label: row for s, row in zip(ineq.settings, counts)}, mode="sampled")


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Last-axis dot products, broadcast, each rounded exactly as ``a[s] @ b[s]``
    for C-contiguous inputs (matmul picks its summation by memory layout)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def setting_estimates(counts, coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, Gaussian-propagated errors and total counts of a stack of settings.

    ``counts`` is a (..., n_settings, n_outcomes) stack of count tables and
    ``coeffs`` the (n_settings, n_outcomes) coefficient table; each row is
    estimated on its own.  When every outcome that actually occurred in a row
    carries the same coefficient (stabilizer measurements, single-outcome
    support), that row's mean equals the first such coefficient and its error
    is exactly zero; the general formula only blurs this with round-off.
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
    supported = n > 0
    spread = np.where(supported, lam, -np.inf).max(axis=-1) - np.where(supported, lam, np.inf).min(axis=-1)
    flat = spread <= DEFAULT.coeff_spread
    mean = _row_dot(lam, n) / n_tot
    err_sq = _row_dot((lam - mean[..., None]) ** 2, n) / (n_tot * n_tot)
    first = lam[np.arange(len(lam)), supported.argmax(axis=-1)]
    return np.where(flat, first, mean), np.where(flat, 0.0, np.sqrt(err_sq)), n_tot


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
    means, errors, totals = setting_estimates(np.array(rows, dtype=float), ineq.outcome_coeffs)
    estimates = tuple(map(SettingEstimate, labels, means.tolist(), errors.tolist(), totals.tolist()))
    v, e = map(float, _combine(means, errors, ineq.lhv_bound))
    s, degenerate = _significance_of(v, e)
    meta = {"inequality": ineq.name, "lhv_bound": ineq.lhv_bound,
            "mode": counts.mode, "total_counts": counts.total()}
    return SignificanceReport(v, e, s, degenerate, estimates, meta)


def variance_model_significance(state, test, copies: float | None = None) -> SignificanceReport:
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
    v = v_sign * expectation(state, op) - offset
    e = math.sqrt(variance(state, op))
    if copies is not None:
        if copies <= 0:
            raise ValueError("copies must be positive")
        e /= math.sqrt(copies)
    s, degenerate = _significance_of(v, e)
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


def _noisy_stack(m: np.ndarray, family: str, ps) -> np.ndarray:
    """Unvalidated (G, d, d) stack of ``m`` under each noise strength in ``ps``."""
    if family not in _NOISE:
        raise ValueError(f"unknown noise family {family!r}; expected one of {NOISE_FAMILIES}")
    what, noise = _NOISE[family]
    for p in ps:
        _require_unit(p, what)
    return noise(np.broadcast_to(m, (len(ps),) + m.shape), np.array(ps, dtype=float))


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


def _sweep_evaluator(ineqs, noise: str, grid, initial_state, total_copies: float):
    """Check a sweep's arguments and build what its chunks share: one plan, and
    the (S, 1) copies and (S, 2**n) coefficients of all S settings with each
    inequality's offsets.  Returns ``(ineqs, grid, step, chunk)``: ``chunk(ps)``
    runs at most ``step`` noise strengths as one validated (G, d, d) state
    stack, one kernel call and one estimate pass, then one ``_combine`` per
    inequality, giving (G,) fidelities and an (n_ineqs, 3, G) V, E, S table."""
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
    if np.any(~((grid >= 0) & (grid <= 1))):
        raise ValueError("noise grid values must lie in [0, 1]")
    state0 = _as_initial_state(initial_state, n)
    reference = ghz_state(n)
    step = max(1, _CHUNK_ENTRIES // state0.matrix.size)
    plan = _contraction_plan([s for q in ineqs for s in q.settings])
    copies = np.array([[c] for q in ineqs for c in ShotBudget.equal_split(total_copies, q).allocation.values()])
    coeffs = np.concatenate([q.outcome_coeffs for q in ineqs])
    offsets = np.cumsum([0] + [q.n_settings for q in ineqs])

    def chunk(ps):
        noisy = _noisy_stack(state0.matrix, noise, ps)
        _validate_stack(noisy)
        fid = [fidelity_with_pure(m, reference) for m in noisy]
        means, errors, _ = setting_estimates(copies * _probability_rows(noisy, plan), coeffs)
        table = []
        for q, a, b in zip(ineqs, offsets, offsets[1:]):
            v, e = _combine(means[:, a:b], errors[:, a:b], q.lhv_bound)
            table.append((v, e, [_significance_of(vi, ei)[0] for vi, ei in zip(v.tolist(), e.tolist())]))
        return np.array(fid), np.array(table)

    return ineqs, grid, step, chunk


def significance_sweep(
    ineqs,
    noise: str,
    grid,
    initial_state=None,
    total_copies: float = 8000.0,
) -> SweepTable:
    """Evaluate predicted-count significance for each inequality along a noise
    grid, tracking the GHZ fidelity of the noisy state, one evaluator chunk of
    grid points (one state stack, one kernel call, one estimate pass) at a time."""
    ineqs, grid, step, chunk = _sweep_evaluator(ineqs, noise, grid, initial_state, total_copies)
    chunks = [chunk(grid[i:i + step].tolist()) for i in range(0, grid.size, step)]
    fid, table = (np.concatenate(x, axis=-1) for x in zip(*chunks))
    return SweepTable(
        noise=noise, n_qubits=ineqs[0].n_qubits, total_copies=total_copies,
        tags=tuple(q.tag for q in ineqs), p=grid, fidelity=fid,
        values={q.tag: dict(zip("VES", ves)) for q, ves in zip(ineqs, table)},
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
) -> CrossingResult:
    """Locate where the two inequalities swap significance order.

    Scans a coarse grid, one sweep chunk at a time, up to the chunk that
    completes the first sign change of S_first - S_second (infinities compare
    as larger than any finite value; ties are skipped); later grid points are
    never evaluated.  Then bisects the bracket down to the configured
    noise-parameter resolution.  The sweep set-up is built once per search.
    ``span`` defaults to the family's ``DEFAULT_SPAN``.
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
    _, grid, step, chunk = _sweep_evaluator((first, second), noise, np.linspace(lo, hi, coarse), state0, total_copies)

    def signs_at(ps) -> np.ndarray:
        s0, s1 = chunk(ps)[1][:, 2]
        return (s0 > s1).astype(int) - (s0 < s1)

    signs = np.zeros(0, dtype=int)
    for start in range(0, grid.size, step):
        signs = np.append(signs, signs_at(grid[start:start + step].tolist()))
        # first pair of neighbouring nonzero signs that differ; ties are skipped
        nonzero = np.flatnonzero(signs)
        flips = np.flatnonzero(signs[nonzero[1:]] != signs[nonzero[:-1]])
        if flips.size:
            break
    else:
        raise NoCrossingError(f"significance difference does not change sign on [{lo:g}, {hi:g}] for {noise} noise")
    i, j = nonzero[flips[0]], nonzero[flips[0] + 1]
    a, b, sign_a = float(grid[i]), float(grid[j]), signs[i]
    while b - a > DEFAULT.bisection:
        mid = 0.5 * (a + b)
        if signs_at([mid])[0] in (sign_a, 0):
            a = mid
        else:
            b = mid
    p_star = 0.5 * (a + b)
    f_star = fidelity_with_pure(apply_noise(state0, noise, p_star), ghz_state(n))
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
        return {k: (v if not isinstance(v, float) or math.isfinite(v) else "nan") for k, v in asdict(self).items()}


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
    counts from its own ``SeedSequence(entropy=seed, spawn_key=(i,))``
    generator, so any execution order gives the same set; blocks of up to
    ``_CHUNK_ENTRIES`` counts go to ``setting_estimates`` as one (B, S, 2**n)
    stack, which estimates each row on its own.  ``coverage`` is the fraction
    of trials whose +-1E interval contains the deterministic V.
    """
    if not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be a whole number, got {trials!r}")
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful comparison")
    expected = _expected_counts(ineq.probabilities(rho), ineq, budget)
    v_pred = float(_combine(*setting_estimates(expected, ineq.outcome_coeffs)[:2], ineq.lhv_bound)[0])
    v, e = np.zeros((2, trials))
    block = max(1, _CHUNK_ENTRIES // expected.size)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        rngs = (np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,))) for i in range(start, stop))
        counts = np.stack([rng.poisson(expected) for rng in rngs])
        v[start:stop], e[start:stop] = _combine(*setting_estimates(counts, ineq.outcome_coeffs)[:2], ineq.lhv_bound)
    v_std = float(np.std(v, ddof=1))
    e_mean = float(np.mean(e))
    ratio = v_std / e_mean if e_mean > 0 else math.nan
    coverage = float(np.mean(np.abs(v - v_pred) <= e))
    return MonteCarloSummary(trials, v_pred, float(np.mean(v)), v_std, e_mean, ratio, coverage)
