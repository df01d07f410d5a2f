"""Dense linear algebra for few-qubit states and observables.

Everything lives in the full 2**n dimensional Hilbert space (n <= 6) as
complex numpy arrays.  Qubit 0 is the most significant bit of a
computational-basis index, i.e. |q0 q1 ... q_{n-1}> sits at index
q0*2**(n-1) + q1*2**(n-2) + ... + q_{n-1}.  This matches the left-to-right
ordering of operator strings such as "XXYY".
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

from .tolerances import DEFAULT

MAX_QUBITS = 6

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_WORK = threading.local()
_BUFSIZE = 128  # elements: numpy's default of 8192 is 128 KB per complex operand, allocated and copied through per call


def _work(*sizes: int, stack: bool = False) -> list[np.ndarray]:
    """Flat complex views of ``sizes`` entries, stale until written, from the calling thread's noise-map
    output ``stack`` or its temporaries: two arrays grown to the largest request and reused until its next
    request, so a chunk asks the OS for no fresh pages.  Each starts on a page and its views 80 entries
    (1280 bytes) apart: views a multiple of 4096 bytes apart slow loops that read one and write another."""
    key, starts = "stack" if stack else "temp", list(accumulate((-(-s // 4) * 4 + 80 for s in sizes), initial=0 if stack else 80))
    if len(work := getattr(_WORK, key, ())) < starts[-1]:
        page = np.empty(16 * starts[-1] + 4096, dtype=np.uint8)
        work = page[-page.ctypes.data % 4096:][:16 * starts[-1]].view(complex)
        setattr(_WORK, key, work)
    return [work[a:a + size] for a, size in zip(starts, sizes)]


@contextlib.contextmanager
def _small_buffer():
    """A ``_BUFSIZE``-element ufunc buffer for loops over broadcast operands; elementwise ufuncs only, no reductions."""
    old = np.setbufsize(_BUFSIZE)  # per thread since numpy 2.0; numpy 1.x's errstate would not restore it
    try:
        yield
    finally:
        np.setbufsize(old)


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):  # complex: checks real and imaginary parts
        raise ValueError(f"{what} contains NaN or Inf entries")


def require_hermitian(m: np.ndarray, tol: float, what: str = "matrix") -> None:
    """Reject ``m``, or the first member of a stack, unless it is Hermitian to ``tol``."""
    _require_finite(m, what)  # a NaN defect would pass "defect > tol"
    defect = np.abs(m - np.swapaxes(m.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)
    if (bad := np.flatnonzero(defect > tol)).size:
        raise ValueError(f"{what} is not Hermitian (defect {defect.flat[bad[0]]:.3e} > {tol:.1e})")


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as contraction plans key them
class SingleQubitObservable:
    """A dichotomic single-qubit observable (O Hermitian, O^2 = 1)."""

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("single-qubit observable must be 2x2")
        require_hermitian(m, DEFAULT.hermitian, f"observable {self.label!r}")
        if np.max(np.abs(m @ m - np.eye(2))) > DEFAULT.dichotomic:
            raise ValueError(f"observable {self.label!r} does not square to identity")
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "_eigenbasis", None)

    def eigenbasis(self) -> np.ndarray:
        """Columns [v_plus, v_minus]: the +1 then -1 eigenvectors (read-only,
        computed once per observable)."""
        if self._eigenbasis is None:
            vals, vecs = hermitian_eig(self.matrix)
            if vals[1] - vals[0] > 1.0:  # genuinely dichotomic: (-1, +1)
                vecs = np.ascontiguousarray(vecs[:, ::-1])
            # else identity-like: both eigenvalues +1, any basis works
            object.__setattr__(self, "_eigenbasis", _freeze(vecs))
        return self._eigenbasis


def pauli(label: str) -> SingleQubitObservable:
    """The standard Pauli matrix (or identity) named by ``label``."""
    if label not in _PAULI:
        raise ValueError(f"unknown Pauli label {label!r}; expected one of I, X, Y, Z")
    return SingleQubitObservable(_PAULI[label].copy(), label)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices."""
    if any(np.ndim(m) != 2 or np.shape(m)[0] != np.shape(m)[1] for m in (a, b)):
        raise ValueError("tensor expects square matrices")
    return kron_all([a, b])


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left factor most significant."""
    return reduce(np.kron, (np.asarray(f, dtype=complex) for f in factors), np.array([[1.0 + 0j]]))


@dataclass(eq=False)
class PureState:
    """State vector on ``n_qubits`` qubits, normalized to 1."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != 2**self.n_qubits:
            raise ValueError("amplitude vector length must be 2**n_qubits")
        _require_finite(amp, "state vector")
        norm2 = float(np.sum(np.abs(amp) ** 2))
        if abs(norm2 - 1.0) > DEFAULT.unit_norm:
            raise ValueError(f"state not normalized: <psi|psi> = {norm2!r}")
        self.amplitudes = _freeze(amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, self.projector())

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on n qubits.

    Eigenvalues below -psd are rejected.  Eigenvalues in [-psd, -psd_clamp)
    are clamped to zero (with trace renormalization) so that noise pipelines
    cannot hand on unphysical negativity; those in [-psd_clamp, 0) are left
    alone as round-off.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        m = np.array(self.matrix, dtype=complex)
        d = 2**self.n_qubits
        if m.shape != (d, d):
            raise ValueError(f"density matrix must be {d}x{d} for {self.n_qubits} qubits")
        _validate_stack(m[None])
        self.matrix = _freeze(m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        return cls(psi.n_qubits, psi.projector())

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        d = 2**n_qubits
        return cls(n_qubits, np.eye(d, dtype=complex) / d)


def _validate_stack(m: np.ndarray) -> None:
    """The ``DensityMatrix`` checks on a writable (G, d, d) stack: the first
    failing member raises, and each member that needs the PSD clamp is replaced
    in place by its projection.  ``eigvalsh`` runs only if a batched Cholesky of
    m + psd_clamp/2 I fails: by its backward-error bound (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3) at unit trace and d <= 64, all
    eigenvalues then lie above -psd_clamp/2 - gamma_65 ~ -5.7e-14, and eigvalsh's
    own error of about 1e-14 keeps its minimum above -psd_clamp: nothing to clamp."""
    require_hermitian(m, DEFAULT.hermitian, "density matrix")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    if (bad := np.flatnonzero(np.abs(tr - 1.0) > DEFAULT.trace_one)).size:
        raise ValueError(f"density matrix trace is {float(tr[bad[0]])!r}, expected 1")
    with contextlib.suppress(np.linalg.LinAlgError):
        np.linalg.cholesky(m + 0.5 * DEFAULT.psd_clamp * np.eye(m.shape[-1]))
        return
    lo = np.linalg.eigvalsh(m)[:, 0]
    if (bad := np.flatnonzero(lo < -DEFAULT.psd)).size:
        raise ValueError(f"density matrix has negative eigenvalue {lo[bad[0]]:.3e}")
    for g in np.flatnonzero(lo < -DEFAULT.psd_clamp):
        # meaningful round-off negativity: project back onto PSD cone
        vals, vecs = np.linalg.eigh(m[g])
        vals = np.clip(vals, 0.0, None)
        vals /= vals.sum()
        m[g] = (vecs * vals) @ vecs.conj().T


def ghz_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits, 2 <= n <= 6."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"GHZ state needs 2 <= n <= {MAX_QUBITS}, got {n}")
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(n, amp)


def _matrix(x) -> np.ndarray:
    """A ``PureState``'s projector, else a raw matrix or the one in a ``matrix`` attribute."""
    if isinstance(x, PureState):
        return x.projector()
    return np.asarray(getattr(x, "matrix", x), dtype=complex)


def expectation(state, obs) -> float:
    """tr(rho O) for a Hermitian observable; tiny imaginary residue is dropped."""
    m = _matrix(obs)
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    require_hermitian(m, DEFAULT.op_hermitian * scale, "observable")
    if isinstance(state, PureState):
        if m.shape[0] != state.dim:
            raise ValueError("state and observable dimensions differ")
        val = complex(np.vdot(state.amplitudes, m @ state.amplitudes))
    else:
        rho = _matrix(state)
        if m.shape != rho.shape:
            raise ValueError("state and observable dimensions differ")
        val = complex(np.trace(rho @ m))
    if abs(val.imag) > DEFAULT.imag_discard:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def variance(state, obs) -> float:
    """<O^2> - <O>^2, clamped to zero at -variance_floor.

    Evaluated in centered form -- ||(O - <O>) psi||^2 for pure states,
    tr(rho (O - <O>)^2) for density matrices -- which stays accurate all the
    way down to exact eigenstates where the textbook difference of two large
    moments would cancel catastrophically.
    """
    m = _matrix(obs)
    mean = expectation(state, m)
    if isinstance(state, PureState):
        resid = m @ state.amplitudes - mean * state.amplitudes
        return float(np.sum(np.abs(resid) ** 2))
    centered = m - mean * np.eye(m.shape[0])
    var = expectation(state, centered @ centered)
    if var < -DEFAULT.variance_floor:
        raise ValueError(f"variance came out negative: {var:.3e}")
    return max(var, 0.0)


def fidelity_with_pure(rho, psi: PureState) -> float:
    """<psi| rho |psi>, clamped into [0, 1]; more than ``imag_discard`` outside it is an error."""
    m = _matrix(rho)
    if m.shape[0] != psi.dim:
        raise ValueError("state and reference dimensions differ")
    val = complex(np.vdot(psi.amplitudes, m @ psi.amplitudes))
    f = val.real
    if f < -DEFAULT.imag_discard or f > 1.0 + DEFAULT.imag_discard:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    return min(max(f, 0.0), 1.0)


def hermitian_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix (LAPACK ``eigh``).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  Input whose entrywise Hermiticity
    defect exceeds ``op_hermitian`` times max(1, |m|max) is rejected.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("hermitian_eig expects a square matrix")
    mag = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    require_hermitian(a, DEFAULT.op_hermitian * mag)
    w, v = np.linalg.eigh(a)
    return w, v
