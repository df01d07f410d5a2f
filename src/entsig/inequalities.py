"""Bell inequalities, witnesses, and per-setting outcome machinery.

A Bell inequality is stored in two equivalent forms: the explicit operator
(used for expectation values) and, per measurement setting, a table of
outcome coefficients lambda_{s,o} (used for count statistics).  Outcomes of a
setting are indexed by sign patterns: bit n-1-k of the outcome index is 0
when qubit k gave the +1 result and 1 when it gave -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SingleQubitObservable,
    _freeze,
    _state_matrix,
    expectation,
    ghz_state,
    kron_all,
    pauli,
    require_hermitian,
)
from .tolerances import DEFAULT, Tolerances

SQRT2 = math.sqrt(2.0)


_STANDARD = {label: pauli(label) for label in ("I", "X", "Y", "Z")}
_STANDARD["A"] = SingleQubitObservable((_STANDARD["X"].matrix + _STANDARD["Y"].matrix) / SQRT2, "A")
_STANDARD["B"] = SingleQubitObservable((_STANDARD["X"].matrix - _STANDARD["Y"].matrix) / SQRT2, "B")


def standard_observable(label: str) -> SingleQubitObservable:
    """Observables addressable by name: Paulis plus the rotated pair A, B.

    A = (X + Y)/sqrt(2) and B = (X - Y)/sqrt(2) are the two fourth-party
    measurement directions of the 16-setting inequality.  Each label maps to
    one shared instance, so its eigenbasis is computed once per process.
    """
    try:
        return _STANDARD[label]
    except KeyError:
        raise ValueError(f"unknown observable label {label!r}") from None


@dataclass(eq=False)
class MeasurementSetting:
    """One dichotomic observable per qubit, measured in the joint eigenbasis."""

    observables: tuple
    label: str = ""

    def __post_init__(self):
        obs = tuple(self.observables)
        if not obs:
            raise ValueError("setting needs at least one observable")
        for o in obs:
            if not isinstance(o, SingleQubitObservable):
                raise ValueError("setting entries must be SingleQubitObservable")
            if abs(float(np.trace(o.matrix).real)) > 1e-10:
                raise ValueError(
                    f"observable {o.label!r} is degenerate (trace != 0); settings need +1/-1 outcomes"
                )
        self.observables = obs
        if not self.label:
            self.label = "".join(o.label for o in obs)
        self._basis = None

    @property
    def n_qubits(self) -> int:
        return len(self.observables)

    @property
    def basis(self) -> np.ndarray:
        """Product eigenbasis as columns; column index = outcome index."""
        if self._basis is None:
            self._basis = _freeze(kron_all([o.eigenbasis() for o in self.observables]))
        return self._basis


@dataclass(eq=False)
class ProductObservable:
    """coefficient * O_1 x O_2 x ... x O_n, identity factors allowed."""

    coefficient: float
    factors: tuple

    def __post_init__(self):
        self.factors = tuple(self.factors)
        if not all(isinstance(f, SingleQubitObservable) for f in self.factors):
            raise ValueError("factors must be SingleQubitObservable")

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    def matrix(self) -> np.ndarray:
        return self.coefficient * kron_all([f.matrix for f in self.factors])


@dataclass(eq=False)
class Witness:
    """Hermitian observable with <W> >= 0 on all separable states."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("witness matrix must be square")
        require_hermitian(m, DEFAULT.hermitian, f"witness {self.name!r}")
        self.matrix = _freeze(m)


@dataclass(eq=False)
class BellInequality:
    """<B> <= lhv_bound, with B decomposed into measurement settings.

    ``bases`` stacks the settings' product eigenbases as one read-only
    (n_settings, 2**n, 2**n) array; each ``setting.basis`` is a view into it.
    ``probabilities`` does not use them: it contracts the state qubit by
    qubit over a plan built once from the settings' observables.
    """

    name: str
    tag: str
    n_qubits: int
    settings: tuple
    outcome_coeffs: np.ndarray  # shape (n_settings, 2**n)
    lhv_bound: float
    operator: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.outcome_coeffs, dtype=float)
        if coeffs.shape != (len(self.settings), 2**self.n_qubits):
            raise ValueError("outcome coefficient table has wrong shape")
        if not self.settings:
            raise ValueError("at least one setting required")
        labels = [s.label for s in self.settings]
        if len(set(labels)) != len(labels):
            raise ValueError("setting labels must be unique")
        self.settings = tuple(self.settings)
        self.outcome_coeffs = _freeze(coeffs)
        self.operator = _freeze(np.array(self.operator, dtype=complex))
        d = 2**self.n_qubits
        if any(s.n_qubits != self.n_qubits for s in self.settings):
            raise ValueError("all settings must act on the inequality's qubits")
        bases = np.empty((len(self.settings), d, d), dtype=complex)
        for i, s in enumerate(self.settings):
            bases[i] = s.basis
            s._basis = _freeze(bases[i])
        self.bases = _freeze(bases)
        self._plan = _contraction_plan(self.settings)

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    def probabilities(self, rho, tol: Tolerances = DEFAULT) -> np.ndarray:
        """(n_settings, 2**n) outcome probabilities of every setting, row order
        as in ``settings``."""
        return _probability_rows(rho, self._plan, tol)

    def setting_index(self, label: str) -> int:
        for i, s in enumerate(self.settings):
            if s.label == label:
                return i
        raise KeyError(f"inequality {self.name!r} has no setting {label!r}")


def _outcome_signs(n: int) -> np.ndarray:
    """(2**n, n) array of +-1: sign of qubit k in outcome o."""
    o = np.arange(2**n)[:, None]
    bits = (o >> (n - 1 - np.arange(n))[None, :]) & 1
    return 1 - 2 * bits


def _parity(n: int) -> np.ndarray:
    return _outcome_signs(n).prod(axis=1).astype(float)


def _even_y_coefficient(y_count: int) -> float:
    return float((-1) ** (y_count // 2))


def _xy_labels(mask: int, m: int) -> str:
    """X/Y string on m qubits with Y wherever ``mask`` has a set bit (qubit 0
    is the most significant bit)."""
    return "".join("Y" if (mask >> (m - 1 - k)) & 1 else "X" for k in range(m))


def _parity_inequality(name: str, tag: str, n: int, terms, lhv_bound: float) -> BellInequality:
    """One setting per (labels, coefficient) term, each with outcome
    coefficients coefficient * parity; the bound is brute-forced for n != 4."""
    settings, coeff_rows, op = [], [], np.zeros((2**n, 2**n), dtype=complex)
    par = _parity(n)
    for labels, c in terms:
        obs = tuple(standard_observable(l) for l in labels)
        settings.append(MeasurementSetting(obs))
        coeff_rows.append(c * par)
        op += c * kron_all([o.matrix for o in obs])
    ineq = BellInequality(
        name=name, tag=tag, n_qubits=n,
        settings=tuple(settings), outcome_coeffs=np.array(coeff_rows),
        lhv_bound=lhv_bound, operator=op,
    )
    if n != 4:
        ineq.lhv_bound = _cached_bruteforce_bound(ineq)
    return ineq


def mermin(n: int) -> BellInequality:
    """The stabilizer-type inequality: all even-Y X/Y strings, signed
    (-1)**(#Y/2), one measurement setting per string (8 settings at n=4)."""
    if n not in (4, 6):
        raise ValueError(f"mermin inequality implemented for n in (4, 6), got {n}")
    terms = []
    for mask in range(2**n):
        y_count = bin(mask).count("1")
        if y_count % 2 == 0:
            terms.append((_xy_labels(mask, n), _even_y_coefficient(y_count)))
    return _parity_inequality(f"mermin{n}", "M", n, terms, 4.0)


def ardehali(n: int) -> BellInequality:
    """The rotated-last-qubit inequality: every X/Y string on the first n-1
    qubits paired with A and with B on the last qubit, all terms weighted
    1/sqrt(2) (16 settings at n=4); bound 2*sqrt(2) at n=4."""
    if n not in (4, 6):
        raise ValueError(f"ardehali inequality implemented for n in (4, 6), got {n}")
    terms = []
    for mask in range(2 ** (n - 1)):
        labels = _xy_labels(mask, n - 1)
        y_count = bin(mask).count("1")
        if y_count % 2 == 0:
            c_a = c_b = _even_y_coefficient(y_count) / SQRT2
        else:
            s = float((-1) ** ((y_count - 1) // 2))
            c_a, c_b = -s / SQRT2, s / SQRT2
        terms += [(labels + "A", c_a), (labels + "B", c_b)]
    return _parity_inequality(f"ardehali{n}", "A", n, terms, 2.0 * SQRT2)


def generic_inequality(
    terms,
    settings,
    assignment,
    lhv_bound: float,
    name: str = "custom",
    tag: str | None = None,
    tol: Tolerances = DEFAULT,
) -> BellInequality:
    """Bell inequality from product terms grouped onto shared settings.

    ``assignment[i]`` names the setting (by index) in whose product eigenbasis
    ``terms[i]`` is measured; every term must be diagonal in that basis.
    Identity factors are allowed and several terms may share one setting, so
    e.g. alpha*Z1Z2 + beta*Z1 + gamma*Z2 collapses onto the single ZZ setting
    with outcome coefficients (a+b+g, -a+b-g, -a-b+g, a-b-g).
    """
    settings = tuple(settings)
    terms = tuple(terms)
    if len(assignment) != len(terms):
        raise ValueError("assignment must give one setting index per term")
    if not settings:
        raise ValueError("at least one setting required")
    n = settings[0].n_qubits
    if any(s.n_qubits != n for s in settings):
        raise ValueError("all settings must act on the same number of qubits")
    d = 2**n
    coeffs = np.zeros((len(settings), d), dtype=float)
    op = np.zeros((d, d), dtype=complex)
    for term, s_idx in zip(terms, assignment):
        if not 0 <= s_idx < len(settings):
            raise ValueError(f"setting index {s_idx} out of range")
        if term.n_qubits != n:
            raise ValueError("term qubit count does not match settings")
        setting = settings[s_idx]
        per_qubit = []
        for k, factor in enumerate(term.factors):
            u = setting.observables[k].eigenbasis()
            diag = u.conj().T @ factor.matrix @ u
            if np.max(np.abs(diag - np.diag(np.diag(diag)))) > tol.diagonal_term:
                raise ValueError(
                    f"term factor {factor.label!r} on qubit {k} is not diagonal "
                    f"in the {setting.label!r} setting"
                )
            per_qubit.append(np.real(np.diag(diag)))
        signs = _outcome_signs(n)
        values = np.ones(d)
        for k in range(n):
            f_plus, f_minus = per_qubit[k]
            values = values * np.where(signs[:, k] > 0, f_plus, f_minus)
        coeffs[s_idx] += term.coefficient * values
        op += term.matrix()
    return BellInequality(
        name=name, tag=tag or name, n_qubits=n,
        settings=settings, outcome_coeffs=coeffs,
        lhv_bound=float(lhv_bound), operator=op,
    )


_BOUND_CACHE: dict[str, float] = {}


def _cached_bruteforce_bound(ineq: BellInequality) -> float:
    key = ineq.name
    if key not in _BOUND_CACHE:
        _BOUND_CACHE[key] = lhv_bound_bruteforce(ineq)
    return _BOUND_CACHE[key]


def lhv_bound_bruteforce(ineq: BellInequality) -> float:
    """Maximum of the inequality over deterministic local models.

    Every (party, observable-label) pair gets an independent +-1 assignment;
    each assignment fixes one outcome per setting, whose coefficient is looked
    up directly.  Requires at most two distinct observables per party.
    """
    n = ineq.n_qubits
    pairs: list[tuple[int, str]] = []
    pair_index: dict[tuple[int, str], int] = {}
    per_party: dict[int, set] = {k: set() for k in range(n)}
    for st in ineq.settings:
        for k, obs in enumerate(st.observables):
            key = (k, obs.label)
            if key not in pair_index:
                per_party[k].add(obs.label)
                if len(per_party[k]) > 2:
                    raise ValueError(
                        f"party {k} measures more than two distinct observables; "
                        "brute-force enumeration not supported"
                    )
                pair_index[key] = len(pairs)
                pairs.append(key)
    m = len(pairs)
    count = 1 << m
    signs = 1 - 2 * ((np.arange(count)[:, None] >> np.arange(m)[None, :]) & 1)
    total = np.zeros(count)
    for s_idx, st in enumerate(ineq.settings):
        cols = [pair_index[(k, obs.label)] for k, obs in enumerate(st.observables)]
        bits = (signs[:, cols] < 0).astype(np.int64)
        o = np.zeros(count, dtype=np.int64)
        for k in range(n):
            o = (o << 1) | bits[:, k]
        total += ineq.outcome_coeffs[s_idx][o]
    return float(total.max())


def violation(rho, ineq: BellInequality, tol: Tolerances = DEFAULT) -> float:
    """<B> - C_lhv; positive values certify entanglement."""
    return expectation(rho, ineq.operator, tol) - ineq.lhv_bound


def witness_violation(rho, w: Witness, tol: Tolerances = DEFAULT) -> float:
    """-<W>; positive values certify entanglement."""
    return -expectation(rho, w.matrix, tol)


def _contraction_plan(settings) -> tuple[list, np.ndarray]:
    """Qubit-by-qubit contraction plan for a stack of product settings.

    Level k holds one node per distinct observable prefix
    ``s.observables[:k + 1]`` (shared instances share nodes): the index of
    its parent node at level k - 1 and the four outcome vectors
    T[i, j] = conj(u[i, :]) * u[j, :] of its qubit-k eigenbasis u.  ``order``
    maps each setting to its last-level node.
    """
    levels, nodes = [], {(): 0}
    for k in range(settings[0].n_qubits):
        parents, nodes = nodes, {}
        for s in settings:
            nodes.setdefault(s.observables[:k + 1], len(nodes))
        u = np.array([prefix[-1].eigenbasis() for prefix in nodes])
        t = [(u[:, i].conj() * u[:, j])[:, None, :, None, None] for i in (0, 1) for j in (0, 1)]
        levels.append((np.array([parents[prefix[:-1]] for prefix in nodes]), *t))
    return levels, np.array([nodes[s.observables] for s in settings])


def _probability_rows(rho, plan, tol: Tolerances) -> np.ndarray:
    """p[s, o] = <u_so| rho |u_so> for every setting of a contraction plan.

    A product setting's outcome distribution factorizes qubit by qubit, so rho
    is contracted with one 2x2 eigenbasis at a time: per level, each node
    turns its parent's (prefix, 2h, 2h) blocks into (prefix + outcome, h, h)
    blocks.  Only separately rounded elementwise products and sums are used,
    so outcomes that rho cannot produce come out exactly 0.0: the zero-error
    rule and Poisson sampling depend on it.
    """
    levels, order = plan
    m = _state_matrix(rho)
    if m.shape != (2 ** len(levels),) * 2:
        raise ValueError("state and setting dimensions differ")
    r = m[None, None]
    for parents, t00, t01, t10, t11 in levels:
        g, n_prefix, h = len(parents), r.shape[1], r.shape[2] // 2
        v = r[parents].reshape(g, n_prefix, 1, 2, h, 2, h)
        r = (t00 * v[:, :, :, 0, :, 0] + t01 * v[:, :, :, 0, :, 1]
             + t10 * v[:, :, :, 1, :, 0] + t11 * v[:, :, :, 1, :, 1]).reshape(g, 2 * n_prefix, h, h)
    p = r.real[order].reshape(len(order), -1)
    lowest = float(p.min())
    if lowest < -tol.prob_floor:
        raise ValueError(f"negative outcome probability {lowest:.3e}")
    np.clip(p, 0.0, None, out=p)
    sums = p.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= tol.prob_sum))  # NaN rows fail too
    if bad.size:
        raise ValueError(f"outcome probabilities sum to {float(sums[bad[0]])!r}")
    return p


def outcome_probabilities(rho, setting: MeasurementSetting, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Probabilities of the 2**n product-eigenbasis outcomes of a setting."""
    return _probability_rows(rho, _contraction_plan((setting,)), tol)[0]


def projector_witness(n: int) -> Witness:
    """W = 1/2 - |GHZ_n><GHZ_n|, the standard projector witness."""
    g = ghz_state(n)
    d = 2**n
    return Witness(f"ghz{n}-projector", 0.5 * np.eye(d) - g.projector())


def ghz_fidelity_formula(rho, tol: Tolerances = DEFAULT) -> float:
    """Fidelity with the 4-qubit GHZ state from populations plus <B_M>/16.

    1/2 (P_0000 + P_1111) + B_M/16 equals the GHZ projector exactly, so this
    reproduces <GHZ|rho|GHZ> without tomography.
    """
    m = _state_matrix(rho)
    if m.shape != (16, 16):
        raise ValueError("fidelity formula applies to 4-qubit states")
    populations = 0.5 * float(m[0, 0].real + m[15, 15].real)
    return populations + expectation(rho, mermin(4).operator, tol) / 16.0


def inequality_to_json_dict(ineq: BellInequality) -> dict:
    """JSON-ready layout: name, per-setting label strings, coefficient
    vectors, and the LHV bound."""
    return {
        "name": ineq.name,
        "tag": ineq.tag,
        "n_qubits": ineq.n_qubits,
        "lhv_bound": ineq.lhv_bound,
        "settings": [
            {"label": s.label, "coefficients": [float(c) for c in row]}
            for s, row in zip(ineq.settings, ineq.outcome_coeffs)
        ],
    }


def inequality_from_json_dict(data: dict) -> BellInequality:
    """Rebuild an inequality whose settings use the standard labels I/X/Y/Z/A/B."""
    try:
        n = int(data["n_qubits"])
        bound = float(data["lhv_bound"])
        name = str(data["name"])
        raw_settings = data["settings"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed inequality description: {exc}") from exc
    tag = str(data.get("tag", name))
    settings, rows = [], []
    d = 2**n
    for entry in raw_settings:
        label = str(entry["label"])
        if len(label) != n:
            raise ValueError(f"setting label {label!r} does not match {n} qubits")
        coeffs = np.asarray(entry["coefficients"], dtype=float)
        if coeffs.shape != (d,):
            raise ValueError(f"setting {label!r} needs {d} coefficients")
        settings.append(MeasurementSetting(tuple(standard_observable(ch) for ch in label)))
        rows.append(coeffs)
    op = np.zeros((d, d), dtype=complex)
    for setting, row in zip(settings, rows):
        u = setting.basis
        op += (u * row) @ u.conj().T
    return BellInequality(
        name=name, tag=tag, n_qubits=n,
        settings=tuple(settings), outcome_coeffs=np.array(rows),
        lhv_bound=bound, operator=op,
    )
