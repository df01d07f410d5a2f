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
from functools import reduce

import numpy as np

from .core import (
    MAX_QUBITS,
    SingleQubitObservable,
    _freeze,
    _matrix,
    expectation,
    ghz_state,
    kron_all,
    pauli,
    require_hermitian,
)
from .tolerances import DEFAULT

SQRT2 = math.sqrt(2.0)
_BOUND_CACHE: dict[str, float] = {}  # inequality name -> brute-forced LHV bound
_XY = str.maketrans("01", "XY")  # bit string -> X/Y labels, Y at each set bit, qubit 0 the most significant


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
            if abs(o.matrix[0, 0].real + o.matrix[1, 1].real) > DEFAULT.traceless:
                raise ValueError(
                    f"observable {o.label!r} is degenerate (trace != 0); settings need +1/-1 outcomes"
                )
        self.observables = obs
        if not self.label:
            self.label = "".join(o.label for o in obs)

    @property
    def n_qubits(self) -> int:
        return len(self.observables)

    @property
    def basis(self) -> np.ndarray:
        """Product eigenbasis as columns; column index = outcome index."""
        return _freeze(kron_all([o.eigenbasis() for o in self.observables]))


@dataclass(eq=False)
class ProductObservable:
    """coefficient * O_1 x O_2 x ... x O_n, identity factors allowed."""

    coefficient: float
    factors: tuple

    def __post_init__(self):
        self.factors = tuple(self.factors)
        if not all(isinstance(f, SingleQubitObservable) for f in self.factors):
            raise ValueError("factors must be SingleQubitObservable")
        if not np.isfinite(self.coefficient):
            raise ValueError(f"term coefficients must be finite, got {self.coefficient!r}")

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

    ``probabilities`` contracts the state qubit by qubit over a plan built
    from the settings' observables at each call.
    """

    name: str
    tag: str
    n_qubits: int
    settings: tuple
    outcome_coeffs: np.ndarray  # shape (n_settings, 2**n)
    lhv_bound: float
    operator: np.ndarray

    def __post_init__(self):
        if not self.settings:
            raise ValueError("at least one setting required")
        coeffs = np.array(self.outcome_coeffs, dtype=float)
        if coeffs.shape != (len(self.settings), 2**self.n_qubits):
            raise ValueError("outcome coefficient table has wrong shape")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("outcome coefficients must be finite")
        labels = [s.label for s in self.settings]
        if len(set(labels)) != len(labels):
            raise ValueError("setting labels must be unique")
        self.settings = tuple(self.settings)
        self.outcome_coeffs = _freeze(coeffs)
        self.operator = _freeze(np.array(self.operator, dtype=complex))
        if any(s.n_qubits != self.n_qubits for s in self.settings):
            raise ValueError("all settings must act on the inequality's qubits")

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    def probabilities(self, rho) -> np.ndarray:
        """(n_settings, 2**n) outcome probabilities of every setting, row order
        as in ``settings``."""
        return _probability_rows(rho, _contraction_plan(self.settings))

    def setting_index(self, label: str) -> int:
        for i, s in enumerate(self.settings):
            if s.label == label:
                return i
        raise KeyError(f"inequality {self.name!r} has no setting {label!r}")


def _even_y_coefficient(y_count: int) -> float:
    return float((-1) ** (y_count // 2))


def _parity_inequality(name: str, tag: str, n: int, terms, lhv_bound: float) -> BellInequality:
    """One setting per (labels, coefficient) term, each with outcome
    coefficients coefficient * parity; the bound is brute-forced for n != 4.
    Off-diagonal factors put each term on the anti-diagonal: its entries fold
    prefix times factor, as ``np.kron`` multiplies, and add in term order from 0."""
    labels, coeffs = zip(*terms)
    letters = sorted(set("".join(labels)))
    mats = np.array([standard_observable(l).matrix for l in letters])
    if np.any(mats[:, [0, 1], [0, 1]] != 0):
        raise ValueError(f"parity terms need off-diagonal factors, got labels {letters}")
    table = mats[:, [0, 1], [1, 0]][[[letters.index(l) for l in lab] for lab in labels]]  # [term, qubit, b]: entry [b, 1 - b]
    rows = np.ones((len(labels), 1), dtype=complex)
    for k in range(n):
        rows = (rows[:, :, None] * table[:, k, None, :]).reshape(len(labels), -1)
    op, i = np.zeros((2**n, 2**n), dtype=complex), np.arange(2**n)
    op[i, i[::-1]] = reduce(np.add, np.array(coeffs)[:, None] * rows, np.zeros(2**n, dtype=complex))
    ineq = BellInequality(
        name=name, tag=tag, n_qubits=n, lhv_bound=lhv_bound, operator=op,
        settings=tuple(MeasurementSetting(tuple(map(standard_observable, lab))) for lab in labels),
        outcome_coeffs=np.outer(coeffs, reduce(np.kron, [np.array([1.0, -1.0])] * n)),
    )
    if n != 4:
        if name not in _BOUND_CACHE:
            _BOUND_CACHE[name] = lhv_bound_bruteforce(ineq)
        ineq.lhv_bound = _BOUND_CACHE[name]
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
            terms.append((np.binary_repr(mask, n).translate(_XY), _even_y_coefficient(y_count)))
    return _parity_inequality(f"mermin{n}", "M", n, terms, 4.0)


def ardehali(n: int) -> BellInequality:
    """The rotated-last-qubit inequality: every X/Y string on the first n-1
    qubits paired with A and with B on the last qubit, all terms weighted
    1/sqrt(2) (16 settings at n=4); bound 2*sqrt(2) at n=4."""
    if n not in (4, 6):
        raise ValueError(f"ardehali inequality implemented for n in (4, 6), got {n}")
    terms = []
    for mask in range(2 ** (n - 1)):
        labels = np.binary_repr(mask, n - 1).translate(_XY)
        y_count = bin(mask).count("1")
        c = _even_y_coefficient(y_count) / SQRT2  # odd #Y: (-1)**((y-1)//2) == (-1)**(y//2)
        terms += [(labels + "A", -c if y_count % 2 else c), (labels + "B", c)]
    return _parity_inequality(f"ardehali{n}", "A", n, terms, 2.0 * SQRT2)


def generic_inequality(
    terms,
    settings,
    assignment,
    lhv_bound: float,
    name: str = "custom",
    tag: str | None = None,
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
            if np.max(np.abs(diag - np.diag(np.diag(diag)))) > DEFAULT.diagonal_term:
                raise ValueError(
                    f"term factor {factor.label!r} on qubit {k} is not diagonal "
                    f"in the {setting.label!r} setting"
                )
            per_qubit.append(np.real(np.diag(diag)))
        coeffs[s_idx] += term.coefficient * reduce(np.kron, per_qubit)
        op += term.matrix()
    return BellInequality(
        name=name, tag=tag or name, n_qubits=n,
        settings=settings, outcome_coeffs=coeffs,
        lhv_bound=float(lhv_bound), operator=op,
    )


def lhv_bound_bruteforce(ineq: BellInequality) -> float:
    """Maximum of the inequality over deterministic local models.

    Every (party, observable-label) pair gets an independent +-1 assignment;
    each assignment fixes one outcome per setting, whose coefficient is looked
    up directly.  Requires at most two distinct observables per party.
    """
    n = ineq.n_qubits
    pairs = list(dict.fromkeys((k, obs.label) for st in ineq.settings for k, obs in enumerate(st.observables)))
    pair_index = {key: i for i, key in enumerate(pairs)}
    labels_seen = [0] * n
    for k, _ in pairs:  # in order of first use, so the first party to exceed two is named
        labels_seen[k] += 1
        if labels_seen[k] > 2:
            raise ValueError(
                f"party {k} measures more than two distinct observables; "
                "brute-force enumeration not supported"
            )
    m = len(pairs)
    count = 1 << m
    signs = 1 - 2 * ((np.arange(count)[:, None] >> np.arange(m)[None, :]) & 1)
    total = np.zeros(count)
    for s_idx, st in enumerate(ineq.settings):
        cols = [pair_index[(k, obs.label)] for k, obs in enumerate(st.observables)]
        o = (signs[:, cols] < 0) @ (1 << np.arange(n - 1, -1, -1))
        total += ineq.outcome_coeffs[s_idx][o]
    return float(total.max())


def violation(rho, ineq: BellInequality) -> float:
    """<B> - C_lhv; positive values certify entanglement."""
    return expectation(rho, ineq.operator) - ineq.lhv_bound


def witness_violation(rho, w: Witness) -> float:
    """-<W>; positive values certify entanglement."""
    return -expectation(rho, w.matrix)


def _contraction_plan(settings) -> tuple[list, np.ndarray]:
    """Qubit-by-qubit contraction plan for a stack of product settings.

    Level k holds one node per distinct observable prefix
    ``s.observables[:k + 1]`` (shared instances share nodes): the index of
    its parent node at level k - 1 and the four (node, outcome) tables
    T[i, j] = conj(u[i, :]) * u[j, :] of its qubit-k eigenbasis u, shaped
    (g, 2, 1, 1, 1, 1).  ``index[s, o]`` is the flat (last-level node, outcome)
    entry that holds setting s's outcome o; the kernel puts qubit k's outcome
    at bit k, so the index also reverses the outcome bits.
    """
    levels, nodes = [], {(): 0}
    for k in range(settings[0].n_qubits):
        parents, nodes = nodes, {}
        for s in settings:
            nodes.setdefault(s.observables[:k + 1], len(nodes))
        u = np.array([prefix[-1].eigenbasis() for prefix in nodes])
        t = [(u[:, i].conj() * u[:, j])[:, :, None, None, None, None] for i in (0, 1) for j in (0, 1)]
        levels.append((np.array([parents[prefix[:-1]] for prefix in nodes]), *t))
    reverse = np.arange(2 ** len(levels)).reshape([2] * len(levels)).T.ravel()
    return levels, np.array([nodes[s.observables] for s in settings])[:, None] * reverse.size + reverse


def _probability_rows(rho, plan) -> np.ndarray:
    """p[..., s, o] = <u_so| rho |u_so> for every setting of a contraction plan
    and every state of a (..., d, d) stack.

    A product setting's outcome distribution factorizes qubit by qubit, so rho
    is contracted with one 2x2 eigenbasis at a time, the G states innermost:
    (d, d, G).  Per level, one transpose and one ``np.take`` copy the parents'
    (prefix, 2h, 2h, G) blocks, split by qubit k's row and column bit, into
    (node, prefix, h, h, G) blocks v[i, j]; t00*v00 + t01*v01 + t10*v10 +
    t11*v11 scales whole blocks by one (node, outcome) entry each, the new
    outcome bit going in front of the prefix.  Only separately rounded
    elementwise products and sums are used, so outcomes that rho cannot
    produce come out exactly 0.0 (the zero-error rule and Poisson sampling
    depend on it), and a state's rows are the same bits alone or in a stack.
    They come back as one C-contiguous (G, S, d) copy: ``setting_estimates``
    rounds by memory layout.
    """
    levels, index = plan
    m = _matrix(rho)
    lead, d = m.shape[:-2], 2 ** len(levels)
    if m.shape[-2:] != (d, d):
        raise ValueError("state and setting dimensions differ")
    r = m.reshape(-1, d * d).T.reshape(1, 1, d, d, -1).copy()
    for parents, t00, t01, t10, t11 in levels:
        n_prefix, h = r.shape[1], r.shape[2] // 2
        v = np.take(r.reshape(-1, n_prefix, 2, h, 2, h, r.shape[-1]).transpose(2, 4, 0, 1, 3, 5, 6), parents, axis=2)
        r = t00 * v[0, 0, :, None]
        for t, vij in ((t01, v[0, 1]), (t10, v[1, 0]), (t11, v[1, 1])):
            r += t * vij[:, None]
        r = r.reshape(len(parents), 2 * n_prefix, h, h, r.shape[-1])
    p = r.real.reshape(-1, r.shape[-1]).T.take(index, axis=1).reshape(*lead, *index.shape)
    lowest = float(p.min())
    if lowest < -DEFAULT.prob_floor:
        raise ValueError(f"negative outcome probability {lowest:.3e}")
    np.clip(p, 0.0, None, out=p)
    sums = p.sum(axis=-1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= DEFAULT.prob_sum))  # NaN rows fail too
    if bad.size:
        raise ValueError(f"outcome probabilities sum to {float(sums.flat[bad[0]])!r}")
    return p


def outcome_probabilities(rho, setting: MeasurementSetting) -> np.ndarray:
    """Probabilities of the 2**n product-eigenbasis outcomes of a setting."""
    return _probability_rows(rho, _contraction_plan((setting,)))[0]


def projector_witness(n: int) -> Witness:
    """W = 1/2 - |GHZ_n><GHZ_n|, the standard projector witness."""
    g = ghz_state(n)
    d = 2**n
    return Witness(f"ghz{n}-projector", 0.5 * np.eye(d) - g.projector())


def ghz_fidelity_formula(rho) -> float:
    """Fidelity with the 4-qubit GHZ state from populations plus <B_M>/16.

    1/2 (P_0000 + P_1111) + B_M/16 equals the GHZ projector exactly, so this
    reproduces <GHZ|rho|GHZ> without tomography.
    """
    m = _matrix(rho)
    if m.shape != (16, 16):
        raise ValueError("fidelity formula applies to 4-qubit states")
    populations = 0.5 * float(m[0, 0].real + m[15, 15].real)
    return populations + expectation(rho, mermin(4).operator) / 16.0


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
    """Rebuild an inequality whose settings use the standard labels X/Y/Z/A/B."""
    try:
        count = float(data["n_qubits"])
        if not count.is_integer():
            raise ValueError(f"n_qubits must be a whole number, got {data['n_qubits']!r}")
        n = int(count)
        bound = float(data["lhv_bound"])
        if not math.isfinite(bound):
            raise ValueError(f"lhv_bound must be finite, got {bound!r}")
        name = str(data["name"])
        entries = [(str(e["label"]), np.asarray(e["coefficients"], dtype=float)) for e in data["settings"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed inequality description: {exc}") from exc
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
    tag = str(data.get("tag", name))
    settings, rows = [], []
    d = 2**n
    for label, coeffs in entries:
        if len(label) != n:
            raise ValueError(f"setting label {label!r} does not match {n} qubits")
        if coeffs.shape != (d,):
            raise ValueError(f"setting {label!r} needs {d} coefficients")
        settings.append(MeasurementSetting(tuple(standard_observable(ch) for ch in label)))
        rows.append(coeffs)
    op = np.zeros((d, d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # coefficients near the float limit: evaluate refuses V and E
        for setting, row in zip(settings, rows):
            u = setting.basis
            op += (u * row) @ u.conj().T
    return BellInequality(
        name=name, tag=tag, n_qubits=n,
        settings=tuple(settings), outcome_coeffs=np.array(rows),
        lhv_bound=bound, operator=op,
    )
