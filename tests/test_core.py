import math

import numpy as np
import pytest

from entsig import (
    DEFAULT,
    DensityMatrix,
    PureState,
    bit_flip_channel,
    apply_to_all,
    expectation,
    fidelity_with_pure,
    ghz_state,
    hermitian_eig,
    kron_all,
    pauli,
    tensor,
    variance,
)
from entsig.core import _validate_stack, require_hermitian
from entsig.cli import main
from conftest import random_density, random_pure

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestPauli:
    def test_standard_matrices(self):
        assert np.array_equal(pauli("X").matrix, X)
        assert np.array_equal(pauli("Y").matrix, Y)
        assert np.array_equal(pauli("Z").matrix, Z)
        assert np.array_equal(pauli("I").matrix, np.eye(2))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            pauli("Q")

    def test_squares_to_identity(self):
        for label in "IXYZ":
            m = pauli(label).matrix
            assert np.max(np.abs(m @ m - np.eye(2))) < 1e-10


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_zz_diagonal(self):
        assert np.allclose(tensor(Z, Z), np.diag([1, -1, -1, 1]))

    def test_xx_flips_00_to_11(self):
        v = np.zeros(4)
        v[0] = 1.0
        assert np.allclose(tensor(X, X) @ v, [0, 0, 0, 1])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            tensor(np.ones((2, 3)), np.eye(2))


class TestGHZ:
    def test_four_qubit_amplitudes(self):
        g = ghz_state(4)
        assert g.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
        assert g.amplitudes[15] == pytest.approx(1 / math.sqrt(2))
        assert np.all(g.amplitudes[1:15] == 0)

    def test_two_qubit_bell_state(self):
        g = ghz_state(2)
        assert np.allclose(g.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])

    def test_normalized(self):
        for n in range(2, 7):
            assert np.sum(np.abs(ghz_state(n).amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_out_of_range_rejected(self, n):
        with pytest.raises(ValueError):
            ghz_state(n)

    def test_plus_one_eigenstate_of_all_x(self):
        for n in range(2, 7):
            g = ghz_state(n)
            all_x = kron_all([X] * n)
            assert np.linalg.norm(all_x @ g.amplitudes - g.amplitudes) < 1e-12


class TestStateTypes:
    def test_pure_state_normalization_enforced(self):
        with pytest.raises(ValueError):
            PureState(2, [1.0, 1.0, 0.0, 0.0])

    def test_density_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_density_hermiticity_enforced(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix(2, m)

    def test_density_negativity_rejected(self):
        m = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(2, m)

    def test_nan_rejected(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = np.nan
        with pytest.raises(ValueError):
            PureState(2, amp)

    def test_round_off_negativity_clamped(self):
        # an eigenvalue of -5e-11 is inside the accepted window but beyond
        # psd_clamp, so construction projects back onto the PSD cone
        eps = 5e-11
        m = np.diag([0.5, 0.5 + eps, -eps, 0.0]).astype(complex)
        rho = DensityMatrix(2, m)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= 0.0
        assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_tiny_negativity_left_untouched(self):
        # below psd_clamp the matrix is accepted verbatim (no reconstruction)
        eps = 5e-14
        m = np.diag([0.5, 0.5 + eps, -eps, 0.0]).astype(complex)
        rho = DensityMatrix(2, m)
        assert np.array_equal(rho.matrix, m)


class TestValidateStack:
    # DensityMatrix validates through the stack validator, and the sweep runs
    # it on whole chunks: each member must get exactly its own treatment
    FINE = np.diag([0.5, 0.5 + 5e-14, -5e-14, 0.0]).astype(complex)

    def test_clamp_fires_only_on_the_member_that_needs_it(self):
        eps = 5e-11
        needs = np.diag([0.5, 0.5 + eps, -eps, 0.0]).astype(complex)
        stack = np.array([self.FINE, needs, self.FINE])
        _validate_stack(stack)
        assert np.array_equal(stack[0], self.FINE) and np.array_equal(stack[2], self.FINE)
        assert np.array_equal(stack[1], DensityMatrix(2, needs).matrix)
        assert np.linalg.eigvalsh(stack[1])[0] >= 0.0

    @pytest.mark.parametrize("bad", [
        np.eye(4, dtype=complex) / 2,  # trace
        np.eye(4, dtype=complex) / 4 + 0.1 * np.eye(4, k=1),  # Hermiticity
        np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex),  # negativity
        np.full((4, 4), np.nan, dtype=complex),
    ])
    def test_invalid_member_raises_its_own_message(self, bad):
        with pytest.raises(ValueError) as single:
            DensityMatrix(2, bad)
        with pytest.raises(ValueError) as stacked:
            _validate_stack(np.array([self.FINE, bad, self.FINE]))
        assert str(stacked.value) == str(single.value)


def eigvalsh_validate(m):
    """The reference stack validator: one batched ``eigvalsh`` decides every
    member, with no Cholesky certificate in front of it."""
    require_hermitian(m, DEFAULT.hermitian, "density matrix")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    if (bad := np.flatnonzero(np.abs(tr - 1.0) > DEFAULT.trace_one)).size:
        raise ValueError(f"density matrix trace is {float(tr[bad[0]])!r}, expected 1")
    lo = np.linalg.eigvalsh(m)[:, 0]
    if (bad := np.flatnonzero(lo < -DEFAULT.psd)).size:
        raise ValueError(f"density matrix has negative eigenvalue {lo[bad[0]]:.3e}")
    for g in np.flatnonzero(lo < -DEFAULT.psd_clamp):
        vals, vecs = np.linalg.eigh(m[g])
        vals = np.clip(vals, 0.0, None)
        vals /= vals.sum()
        m[g] = (vecs * vals) @ vecs.conj().T


def outcome(validate, stack):
    """Output bytes of an in-place validation, or the text of its exception."""
    stack = stack.copy()
    try:
        validate(stack)
    except ValueError as exc:
        return str(exc)
    return stack.tobytes()


class TestPositivityCertificate:
    # the Cholesky certificate in front of eigvalsh must change no decision:
    # rejection (-2e-10), clamp (-5e-13), and the round-off left alone near
    # and below the certificate's shift of psd_clamp/2
    LAMBDA_MIN = (-2e-10, -5e-13, -8e-14, -5e-14, 0.0, 1e-3)

    @staticmethod
    def member(rng, d, lam_min):
        """U diag(lam) U^dag with a random unitary U, unit trace and lam_min as its least eigenvalue."""
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        rest = rng.uniform(0.5, 1.5, size=d - 1)
        lam = np.concatenate([[lam_min], rest * (1.0 - lam_min) / rest.sum()])
        return (u * lam) @ u.conj().T

    @pytest.mark.parametrize("d", [16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_decisions_as_eigvalsh(self, d, seed):
        rng = np.random.default_rng(seed)
        members = [self.member(rng, d, lam) for lam in self.LAMBDA_MIN]
        for m in members:
            assert outcome(_validate_stack, m[None]) == outcome(eigvalsh_validate, m[None])
        everything = np.array(members)
        admitted = everything[1:]
        for stack in (everything, admitted, admitted[::-1]):
            assert outcome(_validate_stack, stack) == outcome(eigvalsh_validate, stack)
        assert "negative eigenvalue" in outcome(_validate_stack, everything)

    def test_default_sweep_makes_no_eigensolve(self, monkeypatch, capsys):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(a) or eigvalsh(*a, **k))
        assert main(["sweep"]) == 0
        assert calls == []
        eps = 5e-11  # one member needs the clamp, so the stack falls back to eigvalsh
        needs = np.diag([0.5, 0.5 + eps, -eps, 0.0]).astype(complex)
        stack = np.array([np.eye(4, dtype=complex) / 4, needs])
        expected = outcome(eigvalsh_validate, stack)
        calls.clear()
        assert outcome(_validate_stack, stack) == expected
        assert len(calls) == 1


class TestExpectation:
    def test_ghz4_xxxx(self, rho_ghz4):
        obs = kron_all([X] * 4)
        # oracle: direct 16x16 arithmetic
        direct = np.trace(rho_ghz4.matrix @ obs).real
        assert direct == pytest.approx(1.0, abs=1e-12)
        assert expectation(rho_ghz4, obs) == pytest.approx(direct, abs=1e-12)

    def test_ghz4_mermin_operator(self, rho_ghz4, mermin4):
        assert expectation(rho_ghz4, mermin4.operator) == pytest.approx(8.0, abs=1e-9)

    def test_maximally_mixed_traceless(self):
        mixed = DensityMatrix.maximally_mixed(3)
        assert expectation(mixed, kron_all([X, Y, Z])) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_observable_rejected(self, rho_ghz4, bad):
        for obs in (np.full((16, 16), bad), np.diag([bad] + [0.0] * 15)):
            with pytest.raises(ValueError, match="NaN or Inf"):
                expectation(rho_ghz4, obs)

    def test_dimension_mismatch(self, rho_ghz4):
        with pytest.raises(ValueError):
            expectation(rho_ghz4, np.eye(8, dtype=complex))

    def test_linear_in_observable(self, rng):
        rho = random_density(rng, 3)
        for _ in range(5):
            g1 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            g2 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            a, b = (g1 + g1.conj().T) / 2, (g2 + g2.conj().T) / 2
            x, y = rng.normal(), rng.normal()
            combined = expectation(rho, x * a + y * b)
            split = x * expectation(rho, a) + y * expectation(rho, b)
            assert combined == pytest.approx(split, abs=1e-10)


class TestVariance:
    def test_stabilizer_has_zero_variance(self, ghz4):
        assert variance(ghz4, kron_all([X] * 4)) == pytest.approx(0.0, abs=1e-12)

    def test_z1_on_ghz4(self, ghz4):
        obs = kron_all([Z, np.eye(2), np.eye(2), np.eye(2)])
        # oracle: <Z1> = 0 and Z1^2 = identity, so the variance is exactly 1
        assert expectation(ghz4, obs) == pytest.approx(0.0, abs=1e-12)
        assert variance(ghz4, obs) == pytest.approx(1.0, abs=1e-10)

    def test_eigenstate_of_z(self):
        psi = PureState(1, [1.0, 0.0])
        assert variance(psi, Z) == pytest.approx(0.0, abs=1e-14)

    def test_pure_state_norm_identity(self, rng):
        # variance(psi, W) = ||(W - <W>) psi||^2
        for _ in range(10):
            psi = random_pure(rng, 3)
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            w = (g + g.conj().T) / 2
            mean = expectation(psi, w)
            resid = w @ psi.amplitudes - mean * psi.amplitudes
            assert variance(psi, w) == pytest.approx(float(np.vdot(resid, resid).real), abs=1e-10)
            # and the density-matrix route agrees
            assert variance(psi.density(), w) == pytest.approx(variance(psi, w), abs=1e-9)


class TestFidelity:
    def test_self_fidelity(self, rho_ghz4, ghz4):
        assert fidelity_with_pure(rho_ghz4, ghz4) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self, ghz4):
        mixed = DensityMatrix.maximally_mixed(4)
        assert fidelity_with_pure(mixed, ghz4) == pytest.approx(1 / 16, abs=1e-12)

    def test_bit_flip_all_qubits(self, rho_ghz4, ghz4):
        # oracle: explicit mixture over flip patterns, F = (1-p)^4 + p^4
        p = 0.13
        noisy = apply_to_all(rho_ghz4, bit_flip_channel(p))
        expected = (1 - p) ** 4 + p**4
        assert fidelity_with_pure(noisy, ghz4) == pytest.approx(expected, abs=1e-12)

    def test_dim_mismatch(self, ghz4):
        with pytest.raises(ValueError):
            fidelity_with_pure(DensityMatrix.maximally_mixed(3), ghz4)


class TestHermitianEig:
    def test_diagonal(self):
        w, v = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-12)
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_pauli_x_spectrum(self):
        w, _ = hermitian_eig(X)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_ghz_projector_spectrum(self, ghz4):
        w, _ = hermitian_eig(ghz4.projector())
        assert np.allclose(w[:15], 0.0, atol=1e-12)
        assert w[15] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("d", [2, 5, 16, 33, 64])
    def test_reconstruction_and_residuals(self, d, rng):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = (g + g.conj().T) / 2
        w, v = hermitian_eig(m)
        norm = np.linalg.norm(m)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-8 * norm
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-9
        residual = np.linalg.norm(m @ v - v * w, axis=0).max()
        assert residual < 1e-9 * norm
        # cross-check the spectrum against the LAPACK route
        assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-9 * norm)

    def test_ascending_order(self, rng):
        g = rng.normal(size=(12, 12))
        w, _ = hermitian_eig((g + g.T) / 2)
        assert np.all(np.diff(w) >= -1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN defect fails every "> tol" test, and a lone Inf entry scales
        # the tolerance to Inf: both must still be rejected
        for m in (np.full((2, 2), bad), np.array([[0.0, bad], [0.0, 0.0]])):
            with pytest.raises(ValueError, match="NaN or Inf"):
                hermitian_eig(m)
