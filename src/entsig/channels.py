"""Single-qubit noise channels, global white noise, and the experimental
initial-state model used for the noisy-source predictions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, _PAULI, _freeze, require_hermitian
from .tolerances import DEFAULT


@dataclass(eq=False)
class SingleQubitChannel:
    """A trace-preserving single-qubit map given by its Kraus operators."""

    kraus_ops: tuple
    name: str = "channel"

    def __post_init__(self):
        ops = tuple(np.array(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        if any(k.shape != (2, 2) for k in ops):
            raise ValueError("Kraus operators must be 2x2")
        closure = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(closure - np.eye(2))) > DEFAULT.kraus_sum:
            raise ValueError(f"channel {self.name!r} is not trace preserving")
        self.kraus_ops = tuple(_freeze(k) for k in ops)


def _require_unit(x, what: str) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {x!r}")


def bit_flip_channel(p: float) -> SingleQubitChannel:
    """Flip the qubit with probability p: rho -> (1-p) rho + p X rho X."""
    _require_unit(p, "flip probability")
    k0 = math.sqrt(1.0 - p) * np.eye(2, dtype=complex)
    k1 = math.sqrt(p) * _PAULI["X"]
    return SingleQubitChannel((k0, k1), name=f"bitflip({p:g})")


def _apply_kraus(m: np.ndarray, kraus_ops, qubit: int) -> np.ndarray:
    """sum_k K_q m K_q^dag on a plain 2**n x 2**n matrix, where K_q acts as K
    on ``qubit`` and as the identity elsewhere.

    Viewing m as (a, 2, c, a, 2, c) with a = 2**qubit, each Kraus operator is
    contracted on the qubit's row axis, then (conjugated) on its column axis,
    without building 2**n x 2**n Kronecker products.
    """
    d = m.shape[0]
    a = 2**qubit
    c = d // (2 * a)
    out = np.zeros_like(m)
    for k in kraus_ops:
        rows = (k @ m.reshape(a, 2, c * d)).reshape(d * a, 2, c)
        out += (k.conj() @ rows).reshape(d, d)
    return out


def apply_local(rho: DensityMatrix, channel: SingleQubitChannel, qubit: int) -> DensityMatrix:
    """Apply a single-qubit channel to one qubit (0-based, qubit 0 = leftmost)."""
    n = rho.n_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    return DensityMatrix(n, _apply_kraus(rho.matrix, channel.kraus_ops, qubit))


def apply_to_all(rho: DensityMatrix, channel: SingleQubitChannel) -> DensityMatrix:
    """Apply the same single-qubit channel independently to every qubit; the
    result is validated once, at the end."""
    m = rho.matrix
    for q in range(rho.n_qubits):
        m = _apply_kraus(m, channel.kraus_ops, q)
    return DensityMatrix(rho.n_qubits, m)


def _bit_flip_all(m: np.ndarray, p) -> np.ndarray:
    """Bit-flip on every qubit of a (..., d, d) stack, p broadcast over the
    leading axes.  Per qubit, on v = m viewed as (..., a, 2, c, a, 2, c), it
    rounds s*(s*v) + t*(t*XvX) with s = sqrt(1-p), t = sqrt(p), exactly as the
    Kraus path of ``apply_to_all`` does ((1-p)*v + p*XvX would not)."""
    d = m.shape[-1]
    s, t = (np.reshape(np.sqrt(x), np.shape(x) + (1,) * 6) for x in (1.0 - np.asarray(p), p))
    for q in range(d.bit_length() - 1):
        v = m.reshape(*m.shape[:-2], 2**q, 2, d >> (q + 1), 2**q, 2, d >> (q + 1))
        m = (s * (s * v) + t * (t * v[..., ::-1, :, :, ::-1, :])).reshape(m.shape)
    return m


def _white_mix(m: np.ndarray, q) -> np.ndarray:
    """(1-q) m + q 1/d on a (..., d, d) stack, q broadcast over the leading axes."""
    d, q = m.shape[-1], np.reshape(q, np.shape(q) + (1, 1))
    return (1.0 - q) * m + q * (np.eye(d, dtype=complex) / d)


def white_noise(rho: DensityMatrix, q: float) -> DensityMatrix:
    """Admix the maximally mixed state: rho -> (1-q) rho + q 1/2**n."""
    _require_unit(q, "white-noise weight")
    return DensityMatrix(rho.n_qubits, _white_mix(rho.matrix, q))


@dataclass(frozen=True)
class AnsatzParams:
    """Parameters of the noisy-source model state on 4 qubits.

    The raw matrix is
        alpha |0000><0000| + beta |1111><1111|
        + gamma (|0000><1111| + |1111><0000|) + (lam/16) * identity,
    which has trace alpha + beta + lam.  ``experimental_ansatz`` divides by
    that trace, so slightly over-complete parameter sets (the reference values
    sum to 1.004) stay physical.
    """

    alpha: float = 0.362
    beta: float = 0.522
    gamma: float = 0.398
    lam: float = 0.12

    @property
    def trace_renormalization(self) -> float:
        return self.alpha + self.beta + self.lam


def experimental_ansatz(params: AnsatzParams) -> DensityMatrix:
    """Build the 4-qubit noisy-source model state, renormalized to unit trace."""
    a, b, g, lam = params.alpha, params.beta, params.gamma, params.lam
    if not all(map(math.isfinite, (a, b, g, lam))):
        raise ValueError(f"ansatz parameters must be finite, got alpha={a!r}, beta={b!r}, gamma={g!r}, lambda={lam!r}")
    m = (lam / 16.0) * np.eye(16, dtype=complex)
    m[0, 0] += a
    m[15, 15] += b
    m[0, 15] += g
    m[15, 0] += g
    tr = params.trace_renormalization
    if tr <= 0:
        raise ValueError("ansatz parameters give non-positive trace")
    with np.errstate(over="ignore", invalid="ignore"):  # an entry or 1/tr that overflows: the finite check refuses it
        m /= tr
    require_hermitian(m, DEFAULT.hermitian, "ansatz state")
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -DEFAULT.psd:
        raise ValueError(
            f"ansatz parameters give a non-positive state (minimal eigenvalue {min_eig:.6e})"
        )
    return DensityMatrix(4, m)
