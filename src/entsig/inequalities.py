"""Bell inequalities, witnesses, and per-setting outcome machinery.

A Bell inequality is stored in two equivalent forms: the explicit operator
(used for expectation values) and, per measurement setting, a table of
outcome coefficients lambda_{s,o} (used for count statistics).  Outcomes of a
setting are indexed by sign patterns: bit n-1-k of the outcome index is 0
when qubit k gave the +1 result and 1 when it gave -1.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cache, lru_cache, reduce

import numpy as np

from .core import (
    MAX_QUBITS,
    SingleQubitObservable,
    _freeze,
    _matrix,
    _small_buffer,
    _work,
    expectation,
    ghz_state,
    kron_all,
    pauli,
    require_hermitian,
)
from .tolerances import DEFAULT

SQRT2 = math.sqrt(2.0)
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


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as SingleQubitObservable
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
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "label", self.label or "".join(o.label for o in obs))

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
    once per process for the settings' observables.
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
    coefficients coefficient * parity, and the LHV bound as given.
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
    return BellInequality(
        name=name, tag=tag, n_qubits=n, lhv_bound=lhv_bound, operator=op,
        settings=tuple(MeasurementSetting(tuple(map(standard_observable, lab))) for lab in labels),
        outcome_coeffs=np.outer(coeffs, reduce(np.kron, [np.array([1.0, -1.0])] * n)),
    )


def mermin(n: int) -> BellInequality:
    """The stabilizer-type inequality: all even-Y X/Y strings, signed
    (-1)**(#Y/2), one measurement setting per string (8 settings at n=4);
    bound 2**(n/2) (Mermin, PRL 65, 1838 (1990)).  Built once per int n: each
    call is a fresh object over shared read-only arrays and settings."""
    if n not in (4, 6):
        raise ValueError(f"mermin inequality implemented for n in (4, 6), got {n}")
    return copy.copy(_mermin(n) if type(n) is int else _mermin.__wrapped__(n))  # 4.0, np.int64(4): built anew


@cache
def _mermin(n: int) -> BellInequality:
    terms = []
    for mask in range(2**n):
        y_count = bin(mask).count("1")
        if y_count % 2 == 0:
            terms.append((np.binary_repr(mask, n).translate(_XY), _even_y_coefficient(y_count)))
    return _parity_inequality(f"mermin{n}", "M", n, terms, 2.0 ** (n // 2))


def ardehali(n: int) -> BellInequality:
    """The rotated-last-qubit inequality: every X/Y string on the first n-1
    qubits paired with A and with B on the last qubit, all terms weighted
    1/sqrt(2) (16 settings at n=4); bound 2**((n-1)/2) (Ardehali, PRA 46, 5375
    (1992)), at n=6 with the bits of ``lhv_bound_bruteforce``, 1 ulp above 4*sqrt(2).
    Built once per int n, as ``mermin``."""
    if n not in (4, 6):
        raise ValueError(f"ardehali inequality implemented for n in (4, 6), got {n}")
    return copy.copy(_ardehali(n) if type(n) is int else _ardehali.__wrapped__(n))


@cache
def _ardehali(n: int) -> BellInequality:
    terms = []
    for mask in range(2 ** (n - 1)):
        labels = np.binary_repr(mask, n - 1).translate(_XY)
        y_count = bin(mask).count("1")
        c = _even_y_coefficient(y_count) / SQRT2  # odd #Y: (-1)**((y-1)//2) == (-1)**(y//2)
        terms += [(labels + "A", -c if y_count % 2 else c), (labels + "B", c)]
    return _parity_inequality(f"ardehali{n}", "A", n, terms, 2 * SQRT2 if n == 4 else math.nextafter(4 * SQRT2, 8.0))


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


def _contraction_plan(settings) -> tuple[tuple, np.ndarray, tuple]:
    """Qubit-by-qubit contraction plan for a stack of product settings.

    Level k holds one node per distinct observable prefix
    ``s.observables[:k + 1]`` (shared instances share nodes): the index of
    its parent node at level k - 1 and the four (node, outcome) tables
    T[i, j] = conj(u[i, :]) * u[j, :] of its qubit-k eigenbasis u, shaped
    (g, 2, 1, 1, 1, 1).  ``index[s, o]`` is the flat (last-level node, outcome)
    entry that holds setting s's outcome o; the kernel puts qubit k's outcome
    at bit k, so the index also reverses the outcome bits.  The settings come
    last, for ``_settle_zeros``.
    """
    return *_plan(tuple(s.observables for s in settings)), tuple(settings)


@lru_cache(maxsize=32)  # read-only levels and index; bounded, as fresh observables are new keys
def _plan(observables) -> tuple[tuple, np.ndarray]:
    levels, nodes = [], {(): 0}
    for k in range(len(observables[0])):
        parents, nodes = nodes, {}
        for obs in observables:
            nodes.setdefault(obs[:k + 1], len(nodes))
        u = np.array([prefix[-1].eigenbasis() for prefix in nodes])
        t = [_freeze((u[:, i].conj() * u[:, j])[:, :, None, None, None, None]) for i in (0, 1) for j in (0, 1)]
        levels.append((_freeze(np.array([parents[prefix[:-1]] for prefix in nodes])), *t))
    reverse = np.arange(2 ** len(levels)).reshape([2] * len(levels)).T.ravel()
    return tuple(levels), _freeze(np.array([nodes[obs] for obs in observables])[:, None] * reverse.size + reverse)


def _probability_rows(rho, plan) -> np.ndarray:
    """p[..., s, o] = <u_so| rho |u_so> for every setting of a contraction plan
    and every state of a (..., d, d) stack.

    A product setting's outcome distribution factorizes qubit by qubit, so rho
    is contracted with one 2x2 eigenbasis at a time, the G states innermost:
    (d, d, G).  Per level, one transposing copy and one ``np.take`` copy the
    parents' (prefix, 2h, 2h, G) blocks, split by qubit k's row and column bit,
    into (node, prefix, h, h, G) blocks v[i, j]; t00*v00 + t01*v01 + t10*v10 +
    t11*v11 scales whole blocks by one (node, outcome) entry each, the new
    outcome bit going in front of the prefix, in ``core._work`` arrays.  Only
    separately rounded elementwise products and sums are used, so outcomes that
    rho cannot produce come out exactly 0.0 (the zero-error rule and Poisson
    sampling depend on it); the few values close enough to zero to differ in
    that from the per-setting sum are settled by it (``_settle_zeros``).  A
    state's rows are the same bits alone or in a stack.  They come back as one
    C-contiguous (G, S, d) copy: ``setting_estimates`` rounds by memory layout.
    """
    levels, index, settings = plan
    m = _matrix(rho)
    lead, d = m.shape[:-2], 2 ** len(levels)
    if m.shape[-2:] != (d, d):
        raise ValueError("state and setting dimensions differ")
    r = m.reshape(-1, d * d).T  # (d*d, G), a view: the first level copies from rho itself
    sizes, layout = _level_shapes(tuple(len(level[0]) for level in levels), d, r.shape[1])
    moved, taken, prod, total = _work(*sizes)
    with _small_buffer():
        for (parents, t00, t01, t10, t11), (split, (a, a_shape), (b, b_shape), (c, shape)) in zip(levels, layout):
            v = moved[:a].reshape(a_shape)
            np.copyto(v, r.reshape(split).transpose(2, 4, 0, 1, 3, 5, 6))
            v = np.take(v, parents, axis=2, out=taken[:b].reshape(b_shape), mode="clip")
            r, tmp = np.multiply(t00, v[0, 0, :, None], out=total[:c].reshape(shape)), prod[:c].reshape(shape)
            for t, vij in ((t01, v[0, 1]), (t10, v[1, 0]), (t11, v[1, 1])):
                r += np.multiply(t, vij[:, None], out=tmp)
    p = r.real.reshape(-1, r.shape[-1]).T.take(index, axis=1).reshape(*lead, *index.shape)
    lowest = float(p.min())
    if lowest < -DEFAULT.prob_floor:
        raise ValueError(f"negative outcome probability {lowest:.3e}")
    _settle_zeros(m, p.reshape(-1, *index.shape), settings)
    np.clip(p, 0.0, None, out=p)
    sums = p.sum(axis=-1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= DEFAULT.prob_sum))  # NaN rows fail too
    if bad.size:
        raise ValueError(f"outcome probabilities sum to {float(sums.flat[bad[0]])!r}")
    return p


@lru_cache(maxsize=32)
def _level_shapes(nodes: tuple, d: int, states: int) -> tuple:
    """Work sizes and, per level, the split parents and (size, shape) of moved, taken and summed blocks."""
    layout = []
    for k, (g, n) in enumerate(zip((1, *nodes), nodes)):
        h = d >> (k + 1)
        shapes = (2, 2, g, 2**k, h, h, states), (2, 2, n, 2**k, h, h, states), (n, 2, 2**k, h, h, states)
        layout.append(((g, 2**k, 2, h, 2, h, states), *((math.prod(s), s) for s in shapes)))
    return tuple(max(level[i][0] for level in layout) for i in (1, 2, 3, 3)), tuple(layout)


def _gamma(m: int) -> float:
    """Higham's bound m u / (1 - m u), u = eps / 2, on the relative error of m roundings."""
    return m * np.finfo(float).eps / (2 - m * np.finfo(float).eps)


def _settle_zeros(m, p, settings) -> None:
    """Give the (G, S, d) kernel rows ``p`` of the (..., d, d) states ``m`` the
    exact zeros of the per-setting sum, in place.

    That sum, ``np.einsum("io,ij,jo->o", conj(u), rho, u)`` on a C-ordered
    rho, adds the terms (conj(u_io) * rho_ij) * u_jo to 0.0 row by row.  It
    and the kernel are each within gamma_{d^2 + 16n + 8} ||rho||_F of the
    exact value, and ||rho||_F <= tr rho = 1, so a kernel value above twice
    that, ``bound``, is positive in the sum too.  The sum is replayed for
    kernel values in (0, bound], and for the kernel's zeros on states with a
    real or imaginary part at most ``bound`` times their largest: rounding
    loses such parts next to the larger ones at different steps of the two
    sums (bit-flip at p ~ 1e-17 or 1 - 1e-16, a subnormal p).  On all other
    states tried, the paper's grid states and X/Y/Z/A/B settings on random,
    bit-flip and white-noise states, the two sums have the same zeros.  The
    replay is that einsum, split along outcomes only, over the entries nonzero
    in any state that needs the basis (a zero entry adds an exact zero); it
    sets 0.0 where the sum is not positive, and the sum where only it is.
    """
    d = p.shape[-1]
    bound = 2 * _gamma(d * d + 16 * (d.bit_length() - 1) + 8)
    near = p <= bound
    if not near.any():
        return
    parts = np.abs(m.reshape(p.shape[0], -1).view(float), out=_work(m.size)[0].view(float).reshape(p.shape[0], -1))  # |re|, |im|
    tiny = ((parts > 0.0) & (parts <= bound * parts.max(axis=1, keepdims=True))).any(axis=1)
    near &= (p > 0.0) | tiny[:, None, None]
    if not near.any():
        return
    g, s, o = np.nonzero(near)
    m = m.reshape(-1, d, d)
    for k in np.unique(s):  # one basis at a time, for every state that needs it
        u, g_k, o_k = settings[k].basis, g[s == k], o[s == k]
        states, outs = np.unique(g_k), np.unique(o_k)
        i, j = np.nonzero(np.any(m[states] != 0.0, axis=0))  # the entries nonzero in any of them, row by row
        v, step = m[states[:, None], i, j], max(1, 2**15 // max(1, i.size))  # at most 2**15 basis terms at a time
        total = np.hstack([np.einsum("ko,gk,ko->go", u[i[:, None], cols].conj(), v, u[j[:, None], cols]).real
                           for cols in np.split(outs, range(step, outs.size, step))])
        total, kernel = total[np.searchsorted(states, g_k), np.searchsorted(outs, o_k)], p[g_k, k, o_k]
        p[g_k, k, o_k] = np.where(total > 0.0, np.where(kernel > 0.0, kernel, total), 0.0)


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
            {"label": s.label, "coefficients": row.tolist()}
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
    op, parity = np.zeros((d, d), dtype=complex), reduce(np.kron, [np.array([1.0, -1.0])] * n)
    with np.errstate(over="ignore", invalid="ignore"):  # coefficients near the float limit: evaluate refuses V and E
        for s, row in zip(settings, rows):  # a parity row on X/Y/A/B adds its term as the constructors do
            term = set(s.label) <= set("XYAB") and np.array_equal(row, row[0] * parity)
            op += row[0] * kron_all([o.matrix for o in s.observables]) if term else (s.basis * row) @ s.basis.conj().T
    return BellInequality(
        name=name, tag=tag, n_qubits=n,
        settings=tuple(settings), outcome_coeffs=np.array(rows),
        lhv_bound=bound, operator=op,
    )
