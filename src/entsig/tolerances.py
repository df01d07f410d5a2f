"""Numerical tolerances used across the package.

Every validation and convergence threshold is a field of the one record
``DEFAULT``, which library code reads directly; there is no per-call override.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermitian: float = 1e-12        # entrywise |M - M^dag| for states/witnesses
    op_hermitian: float = 1e-10     # looser check for generic observables
    trace_one: float = 1e-10        # |tr(rho) - 1|
    psd: float = 1e-10              # eigenvalue floor: lam >= -psd
    psd_clamp: float = 1e-13        # negatives below this get clamped to 0
    unit_norm: float = 1e-12        # | <psi|psi> - 1 |
    dichotomic: float = 1e-10       # entrywise |O^2 - I|
    kraus_sum: float = 1e-10        # entrywise |sum K^dag K - I|
    imag_discard: float = 1e-10     # largest imaginary residue silently dropped
    prob_floor: float = 1e-12       # probabilities >= -prob_floor clamp to 0
    prob_sum: float = 1e-10         # |sum p - 1|
    variance_floor: float = 1e-12   # variances >= -variance_floor clamp to 0
    eig_residual: float = 1e-9      # ||M v - lam v|| per unit matrix norm
    diagonal_term: float = 1e-10    # off-diagonal residue allowed for setting terms
    coeff_spread: float = 1e-12     # supported coefficients within this act as one value
    zero_error: float = 1e-12       # statistical errors below this count as zero
    zero_expectation: float = 1e-12 # |<W>| below this is degenerate for Q
    min_deviation: float = 1e-10    # smallest usable Delta_psi(W)
    bisection: float = 1e-6         # noise-parameter resolution of crossing search
    traceless: float = 1e-10        # |tr O| of a setting's +1/-1 observable
    budget_sum: float = 1e-6        # |sum of allocation - total copies| per max(1, total)
    positivity: float = 1e-12       # relative slack in a*b >= Delta^2 of an improvement


DEFAULT = Tolerances()
