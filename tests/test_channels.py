import dataclasses
import itertools
import math

import numpy as np
import pytest

from entsig import (
    AnsatzParams,
    DensityMatrix,
    SingleQubitChannel,
    apply_local,
    apply_to_all,
    bit_flip_channel,
    expectation,
    experimental_ansatz,
    fidelity_with_pure,
    ghz_state,
    kron_all,
    white_noise,
)
from entsig.channels import _NOISE
from entsig.inequalities import _gamma
from entsig.significance import _noisy_stack
from conftest import random_density

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def flip_mixture_oracle(rho, p):
    """Independent bit flips written out as an explicit mixture over flip
    patterns; independent of the Kraus pipeline under test."""
    n = rho.n_qubits
    out = np.zeros_like(rho.matrix)
    for pattern in itertools.product([0, 1], repeat=n):
        weight = math.prod(p if b else (1 - p) for b in pattern)
        op = kron_all([X if b else np.eye(2) for b in pattern])
        out += weight * (op @ rho.matrix @ op)
    return out


def kron_apply_local(m, channel, qubit, n):
    """Reference: each Kraus operator padded to 2**n x 2**n with kron."""
    out = np.zeros_like(m)
    for k in channel.kraus_ops:
        op = kron_all([np.eye(2**qubit), k, np.eye(2 ** (n - qubit - 1))])
        out += op @ m @ op.conj().T
    return out


def random_channel(rng, n_kraus=3):
    """Kraus operators cut from a random isometry, so sum K^dag K = 1."""
    g = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
    q, _ = np.linalg.qr(g)
    return SingleQubitChannel(tuple(q[2 * i:2 * i + 2] for i in range(n_kraus)), "random")


class TestBitFlipChannel:
    def test_p_zero_is_identity(self, rho_ghz4):
        out = apply_to_all(rho_ghz4, bit_flip_channel(0.0))
        assert np.allclose(out.matrix, rho_ghz4.matrix, atol=1e-14)

    def test_p_one_flips_deterministically(self):
        zero = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
        out = apply_local(zero, bit_flip_channel(1.0), 0)
        assert np.allclose(out.matrix, np.diag([0.0, 1.0]), atol=1e-14)

    def test_table_angle_six_degrees(self):
        # p = sin^2(2 theta) at theta = 6 degrees is the 0.043 noise row
        p = math.sin(math.radians(12.0)) ** 2
        assert p == pytest.approx(0.043, abs=5e-4)
        bit_flip_channel(p)  # valid probability

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            bit_flip_channel(p)

    def test_kraus_closure_enforced(self):
        with pytest.raises(ValueError):
            SingleQubitChannel((np.eye(2) * 0.5,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_kraus_operator_refused_before_any_arithmetic(self, bad):
        # the closure check compared a NaN defect (and warned in the product first), so the channel was
        # built, and ``apply_local`` later refused the state it made
        with pytest.raises(ValueError, match="^channel 'bad' contains NaN or Inf entries$"):
            SingleQubitChannel((np.array([[bad, 0], [0, 1]]),), "bad")


class TestApplyLocal:
    def test_identity_channel(self, rho_ghz4):
        ident = SingleQubitChannel((np.eye(2, dtype=complex),))
        out = apply_local(rho_ghz4, ident, 2)
        assert np.allclose(out.matrix, rho_ghz4.matrix, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_matches_kron_construction(self, rng, n):
        rho = random_density(rng, n)
        channel = random_channel(rng)
        expected = rho.matrix
        for q in range(n):
            got = apply_local(rho, channel, q).matrix
            assert np.allclose(got, kron_apply_local(rho.matrix, channel, q, n), rtol=0, atol=1e-15)
            expected = kron_apply_local(expected, channel, q, n)
        assert np.allclose(apply_to_all(rho, channel).matrix, expected, rtol=0, atol=1e-15)

    def test_index_out_of_range(self, rho_ghz4):
        with pytest.raises(ValueError):
            apply_local(rho_ghz4, bit_flip_channel(0.1), 4)

    def test_flip_all_matches_mixture_oracle(self, rho_ghz4, ghz4):
        p = 0.21
        out = apply_to_all(rho_ghz4, bit_flip_channel(p))
        assert np.allclose(out.matrix, flip_mixture_oracle(rho_ghz4, p), atol=1e-12)
        assert fidelity_with_pure(out, ghz4) == pytest.approx((1 - p) ** 4 + p**4, abs=1e-12)

    def test_half_flip_on_one_qubit_of_bell_pair(self):
        rho = DensityMatrix.from_pure(ghz_state(2))
        out = apply_local(rho, bit_flip_channel(0.5), 0)
        # oracle on the 4x4 matrices: XX correlation survives, ZZ dies
        assert expectation(out, kron_all([X, X])) == pytest.approx(1.0, abs=1e-12)
        assert expectation(out, kron_all([Z, Z])) == pytest.approx(0.0, abs=1e-12)

    def test_commutes_across_distinct_qubits(self, rng):
        rho = random_density(rng, 3)
        ch = bit_flip_channel(0.3)
        ab = apply_local(apply_local(rho, ch, 0), ch, 1)
        ba = apply_local(apply_local(rho, ch, 1), ch, 0)
        assert np.max(np.abs(ab.matrix - ba.matrix)) < 1e-12

    def test_output_is_valid_state(self, rng):
        for n in (2, 3):
            rho = random_density(rng, n)
            for p in (0.0, 0.37, 1.0):
                out = apply_to_all(rho, bit_flip_channel(p))
                assert abs(out.matrix.trace().real - 1.0) < 1e-10
                assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12
                assert np.linalg.eigvalsh(out.matrix)[0] > -1e-10

    def test_ghz_keeps_full_flip_parity(self):
        for n in (2, 4, 6):
            rho = DensityMatrix.from_pure(ghz_state(n))
            out = apply_to_all(rho, bit_flip_channel(0.3))
            assert expectation(out, kron_all([X] * n)) == pytest.approx(1.0, abs=1e-10)


class TestWhiteNoise:
    def test_endpoints(self, rho_ghz4):
        assert np.allclose(white_noise(rho_ghz4, 0.0).matrix, rho_ghz4.matrix, atol=1e-14)
        assert np.allclose(white_noise(rho_ghz4, 1.0).matrix, np.eye(16) / 16, atol=1e-14)

    def test_fidelity_is_linear(self, rho_ghz4, ghz4):
        for q in (0.2, 0.55):
            out = white_noise(rho_ghz4, q)
            assert fidelity_with_pure(out, ghz4) == pytest.approx((1 - q) + q / 16, abs=1e-12)

    def test_composition_law(self, rng):
        rho = random_density(rng, 2)
        q1, q2 = 0.3, 0.45
        twice = white_noise(white_noise(rho, q1), q2)
        once = white_noise(rho, 1 - (1 - q1) * (1 - q2))
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12

    def test_rejects_bad_weight(self, rho_ghz4):
        with pytest.raises(ValueError):
            white_noise(rho_ghz4, 1.5)


class TestNoiseStack:
    # the sweep builds a whole chunk of noisy states as one (G, d, d) stack;
    # each member must be the state the public channels give, bit for bit
    GRID = [0.0, 0.043, 0.15, 1 / 3, 0.5, 0.7, 0.99, 1.0, *np.linspace(0.0, 1.0, 13)]

    @pytest.fixture(params=["ghz4", "ansatz4", "random4", "ghz6", "random6"])
    def rho(self, request, rng):
        kind, n = request.param[:-1], int(request.param[-1])
        if kind == "ghz":
            return DensityMatrix.from_pure(ghz_state(n))
        if kind == "ansatz":
            return experimental_ansatz(AnsatzParams())
        return random_density(rng, n)

    def test_bitflip_matches_kraus_path(self, rho):
        stack = _noisy_stack(rho.matrix, "bitflip", self.GRID)
        for p, member in zip(self.GRID, stack):
            assert np.array_equal(member, apply_to_all(rho, bit_flip_channel(p)).matrix), p

    def test_white_matches_white_noise(self, rho):
        stack = _noisy_stack(rho.matrix, "white", self.GRID)
        for q, member in zip(self.GRID, stack):
            assert np.array_equal(member, white_noise(rho, q).matrix), q

    @pytest.mark.parametrize("family, message", [
        ("bitflip", "flip probability must be in \\[0, 1\\], got nan"),
        ("white", "white-noise weight must be in \\[0, 1\\], got 1.5"),
    ])
    def test_range_messages(self, rho_ghz4, family, message):
        bad = math.nan if family == "bitflip" else 1.5
        with pytest.raises(ValueError, match=message):
            _noisy_stack(rho_ghz4.matrix, family, [0.1, bad, 0.2])


class TestNoiseRecord:
    # README, "Crossing search": the model's k = degree + 1 nodes reproduce each probability exactly (step 2),
    # and step 1 takes both maps as mixtures that do not increase ||rho||_F
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("family", list(_NOISE))
    def test_degree_and_norm(self, rng, family, n):
        rho, degree = random_density(rng, n), _NOISE[family][3](n)
        stack = np.array(_noisy_stack(rho.matrix, family, np.linspace(0.0, 1.0, degree + 2).tolist()))
        # a difference of order j sums 2**j entries, each within gamma_{7n} max|rho| of the exact map's
        rounding = 2 ** (degree + 1) * _gamma(7 * n) * np.abs(rho.matrix).max()
        assert np.abs(np.diff(stack, degree + 1, axis=0)).max() <= rounding  # degree at most ``degree``
        assert np.abs(np.diff(stack, degree, axis=0)).max() > rounding  # and not less
        norm, d = np.linalg.norm(rho.matrix), 2**n
        assert np.all(np.linalg.norm(stack, axis=(1, 2)) <= norm * (1 + _gamma(7 * n + d * d + 1)))


class TestExperimentalAnsatz:
    def test_reference_parameters(self):
        params = AnsatzParams()
        assert params.trace_renormalization == pytest.approx(1.004, abs=1e-12)
        state = experimental_ansatz(params)
        assert state.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
        # entries carry the reference structure, scaled by 1/1.004
        assert state.matrix[0, 15].real == pytest.approx(0.398 / 1.004, abs=1e-12)
        assert state.matrix[0, 0].real == pytest.approx((0.362 + 0.12 / 16) / 1.004, abs=1e-12)

    def test_pure_ghz_limit(self, ghz4):
        state = experimental_ansatz(AnsatzParams(0.5, 0.5, 0.5, 0.0))
        assert np.allclose(state.matrix, ghz4.projector(), atol=1e-12)

    def test_non_psd_rejected_with_diagnostic(self):
        # 2x2 corner block [[1/2, 0.6], [0.6, 1/2]] has a negative eigenvalue
        with pytest.raises(ValueError, match="minimal eigenvalue"):
            experimental_ansatz(AnsatzParams(0.5, 0.5, 0.6, 0.0))

    @pytest.mark.parametrize("field, value", [("alpha", math.nan), ("beta", math.inf), ("gamma", -math.inf),
                                              ("lam", math.inf), ("lam", math.nan)])
    def test_non_finite_parameter_rejected_before_any_arithmetic(self, field, value):
        # inf * 0 in the identity term or a NaN trace would warn first
        params = dataclasses.replace(AnsatzParams(), **{field: value})
        with pytest.raises(ValueError, match=f"ansatz parameters must be finite, got alpha=.*{value!r}"):
            experimental_ansatz(params)

    @pytest.mark.parametrize("params", [AnsatzParams(1e-300, 0.0, 1e10, 0.0),  # gamma / 1e-300 overflows
                                        AnsatzParams(0.0, 0.0, 0.0, 1e-320)])  # I/16 in exact arithmetic; 1/tr overflows
    def test_overflowing_renormalization_is_one_error(self, params):
        # finite parameters whose renormalized state is not finite: the finite check
        # refuses it, with no RuntimeWarning from the division first
        with pytest.raises(ValueError, match="ansatz state contains NaN or Inf entries"):
            experimental_ansatz(params)

    def test_reference_state_matches_measured_fidelity(self, ghz4):
        # the model reproduces the reference no-noise fidelity 0.84 +- 0.01
        state = experimental_ansatz(AnsatzParams())
        assert fidelity_with_pure(state, ghz4) == pytest.approx(0.84, abs=0.01)
