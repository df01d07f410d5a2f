import math

import numpy as np
import pytest

from entsig import (
    DEFAULT,
    DensityMatrix,
    PureState,
    Witness,
    exact_improvement,
    expectation,
    hermitian_eig,
    optimal_orthogonal_direction,
    perturbative_step,
    q_operator,
    separable_safety_check,
    variance,
    variance_model_significance,
)
from conftest import random_pure


@pytest.fixture()
def demo_state():
    amp = np.zeros(16, dtype=complex)
    amp[0], amp[15] = 0.8, 0.6
    return PureState(4, amp)


def detected_random_states(witness, rng, count, n_qubits=4):
    """Random pure states with <W> < 0 that are not witness eigenstates.

    Uniform random states almost never overlap the GHZ projector enough to be
    detected, so perturb the GHZ state instead.
    """
    from entsig import ghz_state

    ghz = ghz_state(n_qubits).amplitudes
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 100 * count, "state generator failed to find detected states"
        noise = random_pure(rng, n_qubits).amplitudes
        amp = ghz + rng.uniform(0.05, 0.45) * noise
        amp = amp / np.linalg.norm(amp)
        psi = PureState(n_qubits, amp)
        mean = expectation(psi, witness.matrix)
        dev = math.sqrt(variance(psi, witness.matrix))
        if mean < -1e-2 and dev > 1e-2:
            out.append(psi)
    return out


def first_order_slope(psi, w, added_direction):
    """The small-gamma growth rate of S for adding gamma*P."""
    mean = expectation(psi, w.matrix)
    dev = math.sqrt(variance(psi, w.matrix))
    p = added_direction
    bracket = expectation(psi, w.matrix @ p + p @ w.matrix) - 2 * expectation(
        psi, w.matrix @ w.matrix
    ) / mean * expectation(psi, p)
    return mean / (2 * dev**3) * bracket


class TestQOperator:
    def test_eigenstate_gives_zero(self, ghz4, witness4):
        q = q_operator(DensityMatrix.from_pure(ghz4), witness4)
        assert np.max(np.abs(q)) < 1e-12

    def test_vanishing_expectation_rejected(self, witness4):
        amp = np.zeros(16, dtype=complex)
        amp[0] = 1.0
        psi = PureState(4, amp)  # <W> = 0 exactly on |0000>
        with pytest.raises(ValueError, match="vanishes"):
            q_operator(DensityMatrix.from_pure(psi), witness4)

    def test_hermitian_for_random_inputs(self, rng, witness4):
        for psi in detected_random_states(witness4, rng, 5):
            q = q_operator(DensityMatrix.from_pure(psi), witness4)
            assert np.max(np.abs(q - q.conj().T)) < 1e-12

    def test_minimal_eigenvalue_negative_on_fifty_cases(self, rng, witness4):
        for psi in detected_random_states(witness4, rng, 50):
            q = q_operator(DensityMatrix.from_pure(psi), witness4)
            evals, _ = hermitian_eig(q)
            assert evals[0] < -1e-12

    def test_min_eigenvector_lies_in_two_dim_span(self, rng, witness4):
        for psi in detected_random_states(witness4, rng, 10):
            q = q_operator(DensityMatrix.from_pure(psi), witness4)
            _, vecs = hermitian_eig(q)
            phi = vecs[:, 0]
            perp = optimal_orthogonal_direction(psi, witness4)
            basis = np.stack([psi.amplitudes, perp.amplitudes]).T
            proj = basis @ basis.conj().T
            assert np.linalg.norm(phi - proj @ phi) < 1e-8


class TestOptimalDirection:
    def test_decomposition_residual(self, demo_state, witness4):
        psi, w = demo_state, witness4
        mean = expectation(psi, w.matrix)
        dev = math.sqrt(variance(psi, w.matrix))
        perp = optimal_orthogonal_direction(psi, w)
        resid = w.matrix @ psi.amplitudes - mean * psi.amplitudes - dev * perp.amplitudes
        assert np.linalg.norm(resid) < 1e-10

    def test_orthogonal_and_phase_fixed(self, demo_state, witness4):
        perp = optimal_orthogonal_direction(demo_state, witness4)
        assert abs(demo_state.overlap(perp)) < 1e-12
        cross = np.vdot(demo_state.amplitudes, witness4.matrix @ perp.amplitudes)
        dev = math.sqrt(variance(demo_state, witness4.matrix))
        assert cross.real == pytest.approx(dev, abs=1e-10)
        assert abs(cross.imag) < 1e-12

    def test_cross_element_attains_deviation(self, rng, witness4):
        for psi in detected_random_states(witness4, rng, 10):
            perp = optimal_orthogonal_direction(psi, witness4)
            cross = abs(np.vdot(psi.amplitudes, witness4.matrix @ perp.amplitudes))
            dev = math.sqrt(variance(psi, witness4.matrix))
            assert cross == pytest.approx(dev, abs=1e-10)

    def test_eigenstate_rejected(self, ghz4, witness4):
        with pytest.raises(ValueError, match="eigenstate"):
            optimal_orthogonal_direction(ghz4, witness4)


class TestPerturbativeStep:
    def test_demo_state_significance_increases(self, demo_state, witness4):
        before = variance_model_significance(demo_state, witness4).significance
        result = perturbative_step(demo_state, witness4, gamma=1e-3)
        assert result.significance_after.significance > before

    def test_eigenstate_rejected(self, ghz4, witness4):
        with pytest.raises(ValueError, match="eigenstate"):
            perturbative_step(ghz4, witness4, gamma=1e-3)

    def test_undetected_state_rejected(self, witness4):
        amp = np.zeros(16, dtype=complex)
        amp[1] = 1.0  # product state orthogonal to GHZ: <W> = +1/2
        with pytest.raises(ValueError, match="not detected"):
            perturbative_step(PureState(4, amp), witness4, gamma=1e-3)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0])
    def test_gamma_must_be_positive_and_finite(self, demo_state, witness4, gamma):
        with pytest.raises(ValueError, match=f"^gamma must be positive and finite, got {gamma!r}$"):
            perturbative_step(demo_state, witness4, gamma)

    def test_first_order_expansion(self, demo_state, witness4):
        gamma = 1e-4
        s0 = variance_model_significance(demo_state, witness4).significance
        result = perturbative_step(demo_state, witness4, gamma)
        s1 = result.significance_after.significance
        phi_proj = result.added_operator / gamma
        slope = first_order_slope(demo_state, witness4, phi_proj)
        assert (s1 - s0) / gamma == pytest.approx(slope, rel=0.10)

    def test_gamma_grid_strictly_increases(self, rng, witness4):
        for psi in detected_random_states(witness4, rng, 5):
            s0 = variance_model_significance(psi, witness4).significance
            for gamma in (1e-4, 1e-3):
                res = perturbative_step(psi, witness4, gamma)
                assert res.significance_after.significance > s0


class TestExactImprovement:
    def test_demo_state_all_postconditions(self, demo_state, witness4):
        mean = expectation(demo_state, witness4.matrix)
        dev = math.sqrt(variance(demo_state, witness4.matrix))
        result = exact_improvement(demo_state, witness4, a=0.2, b=dev * dev / 0.2)
        assert result.eigen_residual < 1e-9
        assert result.deviation_after < 1e-10
        assert result.expectation_after == pytest.approx(mean + 0.2, abs=1e-10)
        assert result.expectation_after < 0
        assert math.isinf(result.significance_after.significance)
        evals, _ = hermitian_eig(result.added_operator)
        assert evals[0] >= -DEFAULT.psd
        diff = result.improved_witness.matrix - witness4.matrix
        assert np.max(np.abs(diff - result.added_operator)) < 1e-12

    def test_default_parameters(self, demo_state, witness4):
        result = exact_improvement(demo_state, witness4)
        assert result.expectation_after < 0
        assert math.isinf(result.significance_after.significance)

    def test_a_too_large_rejected(self, demo_state, witness4):
        mean = expectation(demo_state, witness4.matrix)
        with pytest.raises(ValueError, match="no longer be detected"):
            exact_improvement(demo_state, witness4, a=-mean + 0.01)

    @pytest.mark.parametrize("name, value", [("a", math.nan), ("a", math.inf), ("a", 0.0),
                                             ("b", math.nan), ("b", math.inf), ("b", 0.0)])
    def test_parameters_must_be_positive_and_finite(self, demo_state, witness4, name, value):
        # a = 0 must not reach the default b = Delta^2 / a
        with pytest.raises(ValueError, match=f"^parameter {name} must be positive and finite, got {value!r}$"):
            exact_improvement(demo_state, witness4, **{name: value})

    def test_positivity_constraint_rejected(self, demo_state, witness4):
        dev = math.sqrt(variance(demo_state, witness4.matrix))
        with pytest.raises(ValueError, match="positivity"):
            exact_improvement(demo_state, witness4, a=0.2, b=0.5 * dev * dev / 0.2)

    @pytest.mark.parametrize("a, b", [(1e-150, None), (None, 1e150)])
    def test_parameters_lost_to_round_off_rejected(self, demo_state, witness4, a, b):
        # exact arithmetic gives <W'> = <W> + a; here the computed value is about 1e132
        with pytest.raises(ValueError, match="lose <W'> to round-off"):
            exact_improvement(demo_state, witness4, a=a, b=b)

    @pytest.mark.parametrize("a, b", [(None, 1e5), (1e-8, None)])
    def test_exact_eigenstate_infinite_at_large_parameters(self, demo_state, witness4, a, b):
        # W' has entries of size max(a, b); its exact eigenstate's computed
        # deviation is round-off above the absolute zero_error but within
        # zero_error * max|W'|, the scale the zero rule now uses
        result = exact_improvement(demo_state, witness4, a=a, b=b)
        scale = np.max(np.abs(result.improved_witness.matrix))
        assert DEFAULT.zero_error < result.deviation_after <= DEFAULT.zero_error * scale
        assert result.significance_after.infinite and result.significance_after.error == 0.0

    def test_rank_deficient_boundary_still_psd(self, demo_state, witness4):
        dev = math.sqrt(variance(demo_state, witness4.matrix))
        a = 0.2
        result = exact_improvement(demo_state, witness4, a=a, b=dev * dev / a)
        evals, _ = hermitian_eig(result.added_operator)
        assert evals[0] >= -1e-10
        # the 2x2 block [[a, -dev], [-dev, b]] has determinant zero
        assert evals[0] == pytest.approx(0.0, abs=1e-10)

    def test_twenty_random_states_bundle(self, rng, witness4):
        for psi in detected_random_states(witness4, rng, 20):
            mean = expectation(psi, witness4.matrix)
            dev = math.sqrt(variance(psi, witness4.matrix))
            a = -mean * rng.uniform(0.2, 0.8)
            b = dev * dev / a * rng.uniform(1.0, 3.0)
            result = exact_improvement(psi, witness4, a=a, b=b)
            assert result.eigen_residual < 1e-9
            assert result.deviation_after < 1e-10
            evals, _ = hermitian_eig(result.added_operator)
            assert evals[0] >= -DEFAULT.psd
            assert result.expectation_after < 0
            assert math.isinf(result.significance_after.significance)


class TestSafetyCheck:
    def test_exact_improvement_passes(self, demo_state, witness4):
        result = exact_improvement(demo_state, witness4)
        assert separable_safety_check(result.improved_witness, witness4)

    def test_negative_shift_fails(self, witness4):
        shifted = Witness("w-shift", witness4.matrix - 0.1 * np.eye(16))
        assert not separable_safety_check(shifted, witness4)

    def test_identity_case(self, witness4):
        assert separable_safety_check(witness4, witness4)
