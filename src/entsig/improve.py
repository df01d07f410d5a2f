"""Raising the variance-model significance of a witness by adding a positive
operator.

For a pure detected state psi the error E = Delta_psi(W) can be driven to
zero: add gamma*P so that psi becomes an eigenstate of W' = W + gamma*P while
<W'> stays negative.  ``perturbative_step`` realizes the small-gamma version
(P = projector onto the minimal eigenvector of a rank-2 operator Q);
``exact_improvement`` builds the closed-form finite-gamma operator supported
on span{psi, psi_perp} that makes psi an exact eigenstate in one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, PureState, expectation, hermitian_eig, variance
from .inequalities import Witness
from .significance import SignificanceReport, variance_model_significance
from .tolerances import DEFAULT


@dataclass(eq=False)
class ImprovementResult:
    """Improved witness W' = W + gamma*P plus its diagnostics on psi."""

    improved_witness: Witness
    added_operator: np.ndarray  # gamma*P, positive semidefinite
    expectation_after: float    # <W'>_psi
    deviation_after: float      # Delta_psi(W')
    eigen_residual: float       # ||W' psi - <W'> psi||
    significance_before: SignificanceReport
    significance_after: SignificanceReport


def _pure_stats(psi: PureState, w: Witness) -> tuple[float, float]:
    mean = expectation(psi, w.matrix)
    dev = math.sqrt(variance(psi, w.matrix))
    return mean, dev


def q_operator(rho: DensityMatrix, w: Witness) -> np.ndarray:
    """Q = rho W + W rho - 2 <W^2>/<W> rho, whose minimal eigenvector is the
    most profitable direction to add to the witness."""
    mean = expectation(rho, w.matrix)
    if abs(mean) <= DEFAULT.zero_expectation:
        raise ValueError("<W> vanishes on this state; Q operator is undefined")
    second = expectation(rho, w.matrix @ w.matrix)
    r = rho.matrix
    return r @ w.matrix + w.matrix @ r - (2.0 * second / mean) * r


def optimal_orthogonal_direction(psi: PureState, w: Witness) -> PureState:
    """The unit vector orthogonal to psi that maximizes |<psi|W|psi_perp>|.

    Built as (1 - |psi><psi|) W |psi| / Delta, which also fixes the phase:
    <psi|W|psi_perp> = Delta > 0.  Satisfies
    W|psi> = <W>|psi> + Delta |psi_perp>.
    """
    mean, dev = _pure_stats(psi, w)
    if dev <= DEFAULT.min_deviation:
        raise ValueError("psi is an eigenstate of the witness; no orthogonal direction")
    amp = w.matrix @ psi.amplitudes - mean * psi.amplitudes
    return PureState(psi.n_qubits, amp / dev)


def perturbative_step(psi: PureState, w: Witness, gamma: float) -> ImprovementResult:
    """One small-gamma improvement: W' = W + gamma |phi><phi| with phi the
    minimal-eigenvalue eigenvector of Q.  Increases S for small enough gamma."""
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    mean, dev = _pure_stats(psi, w)
    if mean >= 0:
        raise ValueError(f"state is not detected by the witness (<W> = {mean:.6g} >= 0)")
    if dev <= DEFAULT.min_deviation:
        raise ValueError("psi is already an eigenstate of the witness; nothing to improve")
    q = q_operator(DensityMatrix.from_pure(psi), w)
    _, vecs = hermitian_eig(q)
    phi = vecs[:, 0]  # minimal eigenvalue first
    added = gamma * np.outer(phi, phi.conj())
    return _finish(psi, w, added)


def exact_improvement(
    psi: PureState,
    w: Witness,
    a: float | None = None,
    b: float | None = None,
) -> ImprovementResult:
    """Closed-form finite improvement that makes psi an exact eigenstate.

    gamma*P = a |psi><psi| + b |perp><perp| - Delta (|psi><perp| + h.c.)
    with the defaults a = -<W>/2, b = Delta^2/a.  Constraints: a, b > 0,
    a*b >= Delta^2 (positivity of the added operator) and a < -<W> (the state
    stays detected).  The resulting variance-model error vanishes, so the
    significance is reported as the flagged infinity.
    """
    mean, dev = _pure_stats(psi, w)
    if mean >= 0:
        raise ValueError(f"state is not detected by the witness (<W> = {mean:.6g} >= 0)")
    if dev <= DEFAULT.min_deviation:
        raise ValueError("psi is already an eigenstate of the witness; nothing to improve")
    if a is None:
        a = -mean / 2.0
    if not 0 < a < math.inf:
        raise ValueError(f"parameter a must be positive and finite, got {a!r}")
    if b is None:
        b = dev * dev / a
    if not 0 < b < math.inf:
        raise ValueError(f"parameter b must be positive and finite, got {b!r}")
    if a * b < dev * dev * (1.0 - DEFAULT.positivity):
        raise ValueError(
            f"positivity needs a*b >= Delta^2: a*b = {a * b:.6g} < {dev * dev:.6g}"
        )
    if a >= -mean:
        raise ValueError(
            f"state would no longer be detected: need a < -<W> = {-mean:.6g}, got a = {a!r}"
        )
    perp = optimal_orthogonal_direction(psi, w)
    p_psi = psi.projector()
    p_perp = perp.projector()
    cross = np.outer(psi.amplitudes, perp.amplitudes.conj())
    added = a * p_psi + b * p_perp - dev * (cross + cross.conj().T)
    return _finish(psi, w, added)


def _finish(psi: PureState, w: Witness, added: np.ndarray) -> ImprovementResult:
    added = (added + added.conj().T) / 2.0
    w_prime = Witness(f"{w.name}+improvement", w.matrix + added)
    before = variance_model_significance(psi, w)
    after = variance_model_significance(psi, w_prime)
    mean_after, dev_after = _pure_stats(psi, w_prime)
    resid = float(np.linalg.norm(w_prime.matrix @ psi.amplitudes - mean_after * psi.amplitudes))
    return ImprovementResult(
        improved_witness=w_prime,
        added_operator=added,
        expectation_after=mean_after,
        deviation_after=dev_after,
        eigen_residual=resid,
        significance_before=before,
        significance_after=after,
    )


def separable_safety_check(w_prime: Witness, w: Witness) -> bool:
    """True iff W' - W is positive semidefinite, which guarantees W' inherits
    the witness property from W."""
    diff = w_prime.matrix - w.matrix
    evals, _ = hermitian_eig(diff)
    return bool(evals[0] >= -DEFAULT.psd)
