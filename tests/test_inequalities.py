import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsig import (
    BellInequality,
    DensityMatrix,
    MeasurementSetting,
    ProductObservable,
    Witness,
    apply_noise,
    ardehali,
    expectation,
    fidelity_with_pure,
    generic_inequality,
    ghz_fidelity_formula,
    ghz_state,
    inequality_from_json_dict,
    inequality_to_json_dict,
    kron_all,
    lhv_bound_bruteforce,
    mermin,
    outcome_probabilities,
    pauli,
    standard_observable,
    variance,
    violation,
    witness_violation,
)
import entsig
from entsig.inequalities import _contraction_plan, _parity_inequality, _probability_rows
from conftest import random_density

SQRT2 = math.sqrt(2.0)


def slow_lhv_maximum(ineq):
    """Independent oracle: pure-python enumeration over deterministic models.

    Uses only the setting labels and the coefficient of the all-plus outcome
    (the term sign), evaluating sum_s c_s * prod_k a[(k, label)] directly.
    """
    n = ineq.n_qubits
    pairs = sorted({(k, s.observables[k].label) for s in ineq.settings for k in range(n)})
    best = -math.inf
    for choice in itertools.product((1, -1), repeat=len(pairs)):
        a = dict(zip(pairs, choice))
        total = 0.0
        for s_idx, s in enumerate(ineq.settings):
            c = ineq.outcome_coeffs[s_idx][0]  # all-plus outcome carries the term sign
            total += c * math.prod(a[(k, s.observables[k].label)] for k in range(n))
        best = max(best, total)
    return best


class TestMermin:
    def test_eight_settings(self, mermin4):
        assert mermin4.n_settings == 8

    def test_xxyy_coefficient_is_minus_one(self, mermin4):
        idx = mermin4.setting_index("XXYY")
        # outcome 0 is the all-plus outcome, whose coefficient is the term sign
        assert mermin4.outcome_coeffs[idx][0] == pytest.approx(-1.0, abs=1e-12)

    def test_xxxx_and_yyyy_signs(self, mermin4):
        assert mermin4.outcome_coeffs[mermin4.setting_index("XXXX")][0] == pytest.approx(1.0)
        assert mermin4.outcome_coeffs[mermin4.setting_index("YYYY")][0] == pytest.approx(1.0)

    def test_ghz_expectation_is_eight(self, rho_ghz4, mermin4):
        assert expectation(rho_ghz4, mermin4.operator) == pytest.approx(8.0, abs=1e-9)

    def test_lhv_bound(self, mermin4):
        assert mermin4.lhv_bound == pytest.approx(4.0, abs=1e-12)

    def test_all_terms_stabilize_ghz(self, ghz4, mermin4):
        # every setting operator has zero variance on GHZ_4
        for s_idx, setting in enumerate(mermin4.settings):
            u = setting.basis
            term_op = (u * mermin4.outcome_coeffs[s_idx]) @ u.conj().T
            assert variance(ghz4, term_op) < 1e-12

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            mermin(5)


class TestArdehali:
    def test_sixteen_settings(self, ardehali4):
        assert ardehali4.n_settings == 16

    def test_xxyb_sign(self, ardehali4):
        idx = ardehali4.setting_index("XXYB")
        assert ardehali4.outcome_coeffs[idx][0] == pytest.approx(1 / SQRT2, abs=1e-12)

    def test_xxya_sign(self, ardehali4):
        idx = ardehali4.setting_index("XXYA")
        assert ardehali4.outcome_coeffs[idx][0] == pytest.approx(-1 / SQRT2, abs=1e-12)

    def test_last_party_measures_a_and_b(self, ardehali4):
        last = {s.observables[3].label for s in ardehali4.settings}
        assert last == {"A", "B"}

    def test_ghz_expectation_is_eight(self, rho_ghz4, ardehali4):
        assert expectation(rho_ghz4, ardehali4.operator) == pytest.approx(8.0, abs=1e-9)

    def test_lhv_bound(self, ardehali4):
        assert ardehali4.lhv_bound == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_contains_non_stabilizer_terms(self, ghz4, ardehali4):
        variances = []
        for s_idx, setting in enumerate(ardehali4.settings):
            u = setting.basis
            term_op = (u * ardehali4.outcome_coeffs[s_idx]) @ u.conj().T
            variances.append(variance(ghz4, term_op))
        assert max(variances) > 1e-3


class TestGenericInequality:
    def build_two_qubit(self, alpha, beta, gamma):
        z, i = pauli("Z"), pauli("I")
        setting = MeasurementSetting((z, z))
        terms = [
            ProductObservable(alpha, (z, z)),
            ProductObservable(beta, (z, i)),
            ProductObservable(gamma, (i, z)),
        ]
        return generic_inequality(terms, [setting], [0, 0, 0], lhv_bound=1.0)

    def test_correlation_coefficients(self):
        a, b, g = 0.7, -0.2, 1.1
        ineq = self.build_two_qubit(a, b, g)
        assert np.allclose(
            ineq.outcome_coeffs[0],
            [a + b + g, -a + b - g, -a - b + g, a - b - g],
            atol=1e-12,
        )

    def test_single_zz_term_gives_parity(self):
        z = pauli("Z")
        ineq = generic_inequality(
            [ProductObservable(1.0, (z, z))], [MeasurementSetting((z, z))], [0], lhv_bound=1.0
        )
        assert np.allclose(ineq.outcome_coeffs[0], [1, -1, -1, 1], atol=1e-12)

    def test_identity_term_is_constant_shift(self):
        z, i = pauli("Z"), pauli("I")
        ineq = generic_inequality(
            [ProductObservable(0.4, (i, i))], [MeasurementSetting((z, z))], [0], lhv_bound=1.0
        )
        assert np.allclose(ineq.outcome_coeffs[0], [0.4] * 4, atol=1e-12)

    def test_non_finite_coefficient_rejected(self):
        z = pauli("Z")
        with pytest.raises(ValueError, match="coefficients must be finite"):
            generic_inequality(
                [ProductObservable(math.nan, (z, z))], [MeasurementSetting((z, z))], [0], lhv_bound=1.0
            )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_term_coefficient_rejected_before_any_arithmetic(self, bad):
        # inf * 0 in the operator's Kronecker product would warn first; the
        # suite turns that warning into an error, so this checks the order
        z = pauli("Z")
        with pytest.raises(ValueError, match="coefficients must be finite"):
            ProductObservable(bad, (z, z))
        with pytest.raises(ValueError, match="coefficients must be finite"):
            generic_inequality(
                [ProductObservable(1.0, (z, z)), ProductObservable(bad, (z, pauli("I")))],
                [MeasurementSetting((z, z))], [0, 0], lhv_bound=1.0,
            )

    def test_non_diagonal_term_rejected(self):
        z, x = pauli("Z"), pauli("X")
        with pytest.raises(ValueError, match="not diagonal"):
            generic_inequality(
                [ProductObservable(1.0, (x, z))], [MeasurementSetting((z, z))], [0], lhv_bound=1.0
            )

    def test_mixed_terms_match_per_qubit_product_exactly(self):
        # identity factors, A/B factors and two terms per setting; the oracle
        # multiplies each term's per-qubit diagonals left to right over the
        # outcome signs, and the result must agree bit for bit
        def obs(labels):
            return tuple(standard_observable(c) for c in labels)

        settings = [MeasurementSetting(obs(s)) for s in ("ZZAX", "XYBZ", "ZYAZ")]
        spec = [(0.7, "ZIAX", 0), (-0.3, "ZZAI", 0), (1.1, "XYBZ", 1),
                (0.25, "IYBI", 1), (-0.6, "ZYAZ", 2), (0.4, "IIAI", 2)]
        terms = [ProductObservable(c, obs(labels)) for c, labels, _ in spec]
        ineq = generic_inequality(terms, settings, [s for *_, s in spec], lhv_bound=1.0)

        n, d = 4, 16
        signs = 1 - 2 * ((np.arange(d)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1)
        expected = np.zeros((len(settings), d))
        for term, (_, _, s_idx) in zip(terms, spec):
            values = np.ones(d)
            for k, factor in enumerate(term.factors):
                u = settings[s_idx].observables[k].eigenbasis()
                f_plus, f_minus = np.real(np.diag(u.conj().T @ factor.matrix @ u))
                values = values * np.where(signs[:, k] > 0, f_plus, f_minus)
            expected[s_idx] += term.coefficient * values
        assert np.array_equal(ineq.outcome_coeffs, expected)
        # recorded before the per-qubit product became a kron of the diagonals
        assert lhv_bound_bruteforce(ineq) == 3.3499999999999983

    def test_operator_matches_coefficients(self, rng):
        ineq = self.build_two_qubit(0.3, 0.5, -0.8)
        for _ in range(5):
            rho = random_density(rng, 2)
            via_counts = float(ineq.outcome_coeffs[0] @ outcome_probabilities(rho, ineq.settings[0]))
            assert via_counts == pytest.approx(expectation(rho, ineq.operator), abs=1e-10)


class TestLHVBruteForce:
    def test_mermin4_bound(self, mermin4):
        assert lhv_bound_bruteforce(mermin4) == pytest.approx(4.0, abs=1e-9)

    def test_ardehali4_bound(self, ardehali4):
        assert lhv_bound_bruteforce(ardehali4) == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_mermin6_matches_slow_enumeration(self):
        m6 = mermin(6)
        assert m6.lhv_bound == pytest.approx(slow_lhv_maximum(m6), abs=1e-9)
        assert m6.lhv_bound == pytest.approx(8.0, abs=1e-9)

    def test_ardehali6_matches_slow_enumeration(self):
        a6 = ardehali(6)
        assert a6.lhv_bound == pytest.approx(slow_lhv_maximum(a6), abs=1e-9)
        assert a6.lhv_bound == pytest.approx(4 * SQRT2, abs=1e-9)

    def test_bounds_bit_for_bit(self):
        # the closed forms 2**(n/2) and 2**((n-1)/2) at n = 4; at n = 6 the
        # brute force's bits, which for Ardehali are 1 ulp above 4*sqrt(2)
        assert (mermin(4).lhv_bound.hex(), ardehali(4).lhv_bound.hex()) == ((4.0).hex(), (2 * SQRT2).hex())
        for ineq in (mermin(6), ardehali(6)):
            assert ineq.lhv_bound.hex() == lhv_bound_bruteforce(ineq).hex()
        assert (mermin(6).lhv_bound.hex(), ardehali(6).lhv_bound.hex()) == ((8.0).hex(), math.nextafter(4 * SQRT2, 8.0).hex())

    def test_six_qubit_construction_does_not_brute_force(self):
        # in a fresh process, so that no bound an earlier test computed is reused
        code = ("import entsig.inequalities as q\n"
                "def refuse(ineq):\n"
                "    raise AssertionError('brute-forced ' + ineq.name)\n"
                "q.lhv_bound_bruteforce = refuse\n"
                "q.mermin(6), q.ardehali(6)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(entsig.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_ardehali4_against_slow_enumeration(self, ardehali4):
        assert lhv_bound_bruteforce(ardehali4) == pytest.approx(
            slow_lhv_maximum(ardehali4), abs=1e-12
        )

    def test_too_many_observables_per_party(self):
        x, y, z = pauli("X"), pauli("Y"), pauli("Z")
        terms = [ProductObservable(1.0, (o, o)) for o in (x, y, z)]
        settings = [MeasurementSetting((o, o)) for o in (x, y, z)]
        ineq = generic_inequality(terms, settings, [0, 1, 2], lhv_bound=3.0)
        with pytest.raises(ValueError, match="more than two"):
            lhv_bound_bruteforce(ineq)

    def test_error_names_first_party_with_a_third_observable(self):
        x, y, z = pauli("X"), pauli("Y"), pauli("Z")
        pairs = [(x, x), (y, z), (x, y), (y, x), (z, z)]
        settings = [MeasurementSetting(p) for p in pairs]
        terms = [ProductObservable(1.0, p) for p in pairs]
        ineq = generic_inequality(terms, settings, range(len(pairs)), lhv_bound=3.0)
        with pytest.raises(ValueError, match=r"^party 1 measures more than two distinct observables; "
                                             "brute-force enumeration not supported$"):
            lhv_bound_bruteforce(ineq)


class TestViolation:
    def test_ghz_mermin(self, rho_ghz4, mermin4):
        assert violation(rho_ghz4, mermin4) == pytest.approx(4.0, abs=1e-9)

    def test_ghz_ardehali(self, rho_ghz4, ardehali4):
        assert violation(rho_ghz4, ardehali4) == pytest.approx(8 - 2 * SQRT2, abs=1e-9)

    def test_maximally_mixed_mermin(self, mermin4):
        mixed = DensityMatrix.maximally_mixed(4)
        assert violation(mixed, mermin4) == pytest.approx(-4.0, abs=1e-10)


class TestWitness:
    def test_ghz_on_projector_witness(self, rho_ghz4, witness4):
        assert witness_violation(rho_ghz4, witness4) == pytest.approx(0.5, abs=1e-12)

    def test_product_state_sits_on_boundary(self, witness4):
        amp = np.zeros(16, dtype=complex)
        amp[0] = 1.0
        rho = DensityMatrix(4, np.outer(amp, amp.conj()))
        assert witness_violation(rho, witness4) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self, witness4):
        mixed = DensityMatrix.maximally_mixed(4)
        assert witness_violation(mixed, witness4) == pytest.approx(-(0.5 - 1 / 16), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN or Inf"):
            Witness("w", np.full((2, 2), bad))


class TestOutcomeProbabilities:
    def test_ghz_in_zzzz(self, rho_ghz4):
        z = pauli("Z")
        p = outcome_probabilities(rho_ghz4, MeasurementSetting((z, z, z, z)))
        expected = np.zeros(16)
        expected[0] = expected[15] = 0.5
        assert np.allclose(p, expected, atol=1e-12)

    def test_ghz_in_xxxx(self, rho_ghz4, mermin4):
        p = outcome_probabilities(rho_ghz4, mermin4.settings[0])
        parity = np.array([(-1) ** bin(o).count("1") for o in range(16)])
        assert np.allclose(p[parity == 1], 1 / 8, atol=1e-12)
        assert np.allclose(p[parity == -1], 0.0, atol=1e-15)

    def test_maximally_mixed_uniform(self, mermin4):
        mixed = DensityMatrix.maximally_mixed(4)
        for setting in mermin4.settings:
            assert np.allclose(outcome_probabilities(mixed, setting), 1 / 16, atol=1e-12)

    def test_sums_to_one(self, rng, ardehali4):
        rho = random_density(rng, 4)
        for setting in ardehali4.settings[:4]:
            p = outcome_probabilities(rho, setting)
            assert p.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(p >= 0)


def per_setting_einsum(rho, ineq):
    """Reference: one unoptimized three-operand einsum per setting, clipped at
    zero; its separately rounded products cancel exactly where rho cannot
    produce an outcome."""
    return np.array([
        np.clip(np.real(np.einsum("io,ij,jo->o", s.basis.conj(), rho.matrix, s.basis)), 0.0, None)
        for s in ineq.settings
    ])


@st.composite
def product_stacks(draw):
    """Distinct product settings on 1-5 qubits with a state to measure: a
    full-rank random state, or GHZ under bit-flip or white noise."""
    kind = draw(st.sampled_from(["random", "bitflip", "white"]))
    n = draw(st.integers(1 if kind == "random" else 2, 5))
    labels = draw(st.lists(st.text("XYZAB", min_size=n, max_size=n), min_size=1, max_size=min(8, 5**n), unique=True))
    stack = [MeasurementSetting(tuple(standard_observable(c) for c in label)) for label in labels]
    if kind == "random":
        rho = random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    else:
        rho = apply_noise(DensityMatrix.from_pure(ghz_state(n)), kind, draw(st.floats(0, 1)))
    return stack, rho


class TestStackedProbabilities:
    # bit-flip 0.15 (4q), 0.25 and 0.375 are points where a fused multiply-add
    # kernel alone turns the Mermin stabilizer's exact zeros into ~1e-17
    NOISE = (("bitflip", 0.15), ("bitflip", 0.25), ("bitflip", 0.375), ("white", 0.1), ("white", 0.5))

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("factory", [mermin, ardehali])
    def test_matches_per_setting_einsum(self, factory, n):
        ineq = factory(n)
        ghz = DensityMatrix.from_pure(ghz_state(n))
        for rho in [ghz] + [apply_noise(ghz, fam, p) for fam, p in self.NOISE]:
            ref = per_setting_einsum(rho, ineq)
            got = ineq.probabilities(rho)
            assert np.max(np.abs(got - ref)) <= 1e-15
            assert np.array_equal(got == 0.0, ref == 0.0)

    # entries below the rounding of the largest ones: the kernel alone put
    # 0.0 where the einsum has ~1e-17 (bit-flip 7e-18 on 3 qubits, AAY; white
    # 2**-52 on 4 qubits, AAAA) and the other way round
    TINY = (("bitflip", 7e-18), ("bitflip", 3e-17), ("bitflip", 1e-323), ("bitflip", 1.0 - 2**-53),
            ("white", 2**-52), ("white", 3e-17), ("white", 2.5e-323))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sub_rounding_entries_keep_einsum_zeros(self, n):
        labels = ["".join(t) for t in itertools.product("XYZAB", repeat=n)][:: 5 ** n // 25 or 1]
        labels = list(dict.fromkeys(labels + ["AAY"[:n] + "X" * (n - 3), "A" * n, "ABX"[:n] + "X" * (n - 3)]))
        stack = [MeasurementSetting(tuple(standard_observable(c) for c in label)) for label in labels]
        ineq = BellInequality("tiny", "T", n, stack, np.zeros((len(stack), 2**n)), 0.0, np.zeros((2**n, 2**n)))
        ghz = DensityMatrix.from_pure(ghz_state(n))
        states = {(fam, p): apply_noise(ghz, fam, p) for fam, p in self.TINY}
        # a dense state next to GHZ: every entry enters the replayed sums, which
        # at 6 qubits run in chunks of outcomes
        noise = random_density(np.random.default_rng(n), n).matrix
        states["dense", 1e-16] = DensityMatrix(n, (1 - 1e-16) * ghz.matrix + 1e-16 * noise)
        for key, rho in states.items():
            ref, got = per_setting_einsum(rho, ineq), ineq.probabilities(rho)
            assert np.max(np.abs(got - ref)) <= 1e-15
            assert np.array_equal(got == 0.0, ref == 0.0), key

    @settings(deadline=None)
    @given(case=product_stacks(), data=st.data())
    def test_random_product_settings(self, case, data):
        stack, rho = case
        d = rho.matrix.shape[0]
        ineq = BellInequality("random", "R", rho.n_qubits, stack, np.zeros((len(stack), d)), 0.0, np.zeros((d, d)))
        rows = ineq.probabilities(rho)
        ref = per_setting_einsum(rho, ineq)
        assert np.max(np.abs(rows - ref)) <= 1e-15
        assert np.array_equal(rows == 0.0, ref == 0.0)
        # a row does not depend on which other settings share the plan
        perm = data.draw(st.permutations(range(len(stack))))
        shuffled = _probability_rows(rho, _contraction_plan([stack[i] for i in perm]))
        assert np.array_equal(shuffled, rows[perm])
        for setting, row in zip(stack, rows):
            assert np.array_equal(outcome_probabilities(rho, setting), row)

    @pytest.mark.parametrize("n", [4, 6])
    def test_state_stack_rows_match_single_states(self, n, rng):
        ineqs = (mermin(n), ardehali(n))
        plan = _contraction_plan([s for q in ineqs for s in q.settings])
        ghz = DensityMatrix.from_pure(ghz_state(n))
        states = [ghz, apply_noise(ghz, "bitflip", 0.15), apply_noise(ghz, "white", 0.3), random_density(rng, n)]
        stack = np.array([rho.matrix for rho in states])
        rows = _probability_rows(stack, plan)
        assert rows.shape == (4, len(plan[1]), 2**n)
        for rho, got in zip(states, rows):
            assert got.tobytes() == _probability_rows(rho, plan).tobytes()
        grid = _probability_rows(stack.reshape(2, 2, 2**n, 2**n), plan)
        assert grid.tobytes() == rows.tobytes() and grid.shape == (2, 2) + rows.shape[1:]
        # 65 states: more than a full 64-point sweep chunk at 4 qubits
        big = np.array([apply_noise(ghz, "bitflip", p).matrix for p in np.linspace(0.0, 0.25, 61)] + list(stack))
        rows = _probability_rows(big, plan)
        assert rows.shape == (65, len(plan[1]), 2**n)
        for m, got in zip(big, rows):
            assert got.tobytes() == _probability_rows(m, plan).tobytes()

    @pytest.mark.parametrize("n", [4, 6])
    def test_rows_are_c_contiguous(self, n, rng):
        # setting_estimates rounds by memory layout, so the kernel's layout
        # is part of its output; a transposed-layout state gives the same bits
        ineqs = (mermin(n), ardehali(n))
        plan = _contraction_plan([s for q in ineqs for s in q.settings])
        ghz = DensityMatrix.from_pure(ghz_state(n))
        states = [apply_noise(ghz, "bitflip", 0.1), apply_noise(ghz, "white", 0.2), random_density(rng, n)]
        stack = np.array([rho.matrix for rho in states + [ghz]])
        for rho in (states[0].matrix, stack, stack.reshape(2, 2, 2**n, 2**n)):
            rows = _probability_rows(rho, plan)
            assert rows.flags.c_contiguous and rows.shape == rho.shape[:-2] + (len(plan[1]), 2**n)
            transposed = np.ascontiguousarray(np.moveaxis(rho, -1, 0)).transpose(*range(1, rho.ndim), 0)
            assert np.array_equal(transposed, rho) and not transposed.flags.c_contiguous
            assert _probability_rows(transposed, plan).tobytes() == rows.tobytes()

    def test_wrong_dimension_rejected(self, mermin4):
        with pytest.raises(ValueError, match="state and setting dimensions differ"):
            mermin4.probabilities(DensityMatrix.maximally_mixed(6))
        with pytest.raises(ValueError, match="state and setting dimensions differ"):
            outcome_probabilities(DensityMatrix.maximally_mixed(3), mermin4.settings[0])

    def test_inequality_without_settings_rejected(self):
        with pytest.raises(ValueError, match="at least one setting"):
            BellInequality("empty", "E", 2, (), np.zeros((0, 4)), 0.0, np.zeros((4, 4)))

    def test_nan_state_rejected(self, mermin4):
        # callers such as monte_carlo_study use the rows without a CountTable
        # check, so the kernel itself must not let NaN through
        with pytest.raises(ValueError, match="sum to nan"):
            mermin4.probabilities(np.full((16, 16), np.nan))

    def test_single_setting_call_is_a_row(self, rng, ardehali4):
        rho = random_density(rng, 4)
        rows = ardehali4.probabilities(rho)
        for s_idx, setting in enumerate(ardehali4.settings):
            assert np.array_equal(outcome_probabilities(rho, setting), rows[s_idx])

    def test_setting_basis_is_the_product_eigenbasis(self, mermin4):
        for setting in mermin4.settings:
            expected = functools.reduce(np.kron, [o.eigenbasis() for o in setting.observables])
            assert np.array_equal(setting.basis, expected)
            assert not setting.basis.flags.writeable

    @pytest.mark.parametrize("builder", [mermin, ardehali])
    def test_no_array_larger_than_one_operator(self, builder):
        # the kernel reads observables, not dense bases: an inequality and its
        # settings keep nothing bigger than its 2**n x 2**n operator
        ineq = builder(6)
        for obj in (ineq, *ineq.settings):
            for name, value in vars(obj).items():
                if isinstance(value, np.ndarray):
                    assert value.size <= 4**6, name

    @pytest.mark.parametrize("label", list("XYZAB"))
    def test_eigenbasis_puts_plus_one_first(self, label):
        # outcome bit 0 means +1 on that qubit: the sign convention of every
        # coefficient table rests on this column order
        obs = standard_observable(label)
        u = obs.eigenbasis()
        assert np.max(np.abs(obs.matrix @ u - u @ np.diag([1.0, -1.0]))) <= 1e-12

    def test_standard_observables_are_shared(self):
        for label in "IXYZAB":
            obs = standard_observable(label)
            assert standard_observable(label) is obs
            assert obs.eigenbasis() is obs.eigenbasis()
            assert not obs.eigenbasis().flags.writeable


class TestParityOperatorOracle:
    # the brute-force bounds as the per-term construction gave them
    BOUNDS = {"mermin4": 4.0, "mermin6": 8.0,
              "ardehali4": float.fromhex("0x1.6a09e667f3bcdp+1"), "ardehali6": float.fromhex("0x1.6a09e667f3bcep+2")}

    @pytest.mark.parametrize("builder", [mermin, ardehali])
    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_per_term_kron_bytes(self, builder, n):
        # the construction the shared-prefix products replaced: one kron_all
        # per term, each c * K added in term order; tobytes() also compares
        # the signs of zeros, which np.array_equal does not
        ineq = builder(n)
        parity = functools.reduce(np.kron, [np.array([1.0, -1.0])] * n)
        op = np.zeros((2**n, 2**n), dtype=complex)
        for setting, row in zip(ineq.settings, ineq.outcome_coeffs):
            c = row[0]
            assert np.all(row == c * parity)
            op += c * kron_all([o.matrix for o in setting.observables])
        assert ineq.operator.tobytes() == op.tobytes()
        assert ineq.lhv_bound == self.BOUNDS[ineq.name]


class TestParityFold:
    @staticmethod
    def check_against_per_term_kron(labels, coeffs):
        # the per-term kron_all sum of TestParityOperatorOracle, from a zero operator
        ineq = _parity_inequality("fold", "F", 4, list(zip(labels, coeffs)), 4.0)
        parity = functools.reduce(np.kron, [np.array([1.0, -1.0])] * 4)
        op = np.zeros((16, 16), dtype=complex)
        for label, c in zip(labels, coeffs):
            op += c * kron_all([standard_observable(l).matrix for l in label])
        assert ineq.operator.tobytes() == op.tobytes()
        assert ineq.outcome_coeffs.tobytes() == np.array([c * parity for c in coeffs]).tobytes()
        assert [s.label for s in ineq.settings] == list(labels)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_terms_match_per_term_kron_bytes(self, data):
        # unsorted off-diagonal labels whose terms share stems of 1-3 qubits
        stems = data.draw(st.lists(st.text("XYAB", min_size=1, max_size=3), min_size=1, max_size=3))
        tails = st.text("XYAB", min_size=4, max_size=4)
        labels = data.draw(st.lists(st.builds(lambda s, t: (s + t)[:4], st.sampled_from(stems), tails),
                                    min_size=1, max_size=16, unique=True))
        coeffs = data.draw(st.lists(st.sampled_from([1.0, -1.0, 1 / SQRT2, -1 / SQRT2]),
                                    min_size=len(labels), max_size=len(labels)))
        self.check_against_per_term_kron(labels, coeffs)

    @pytest.mark.parametrize("label", ["YXXX", "XXXY", "AAAA"])
    def test_one_negative_term_adds_onto_positive_zeros(self, label):
        # -1 * (0+1j) has real part -0.0; the sum starts from +0.0, so it stays +0.0
        self.check_against_per_term_kron([label], [-1.0])

    @pytest.mark.parametrize("labels", [["XXXX", "ZXXX"], ["XYXZ"], ["AIBX", "XXXX"]])
    def test_diagonal_factor_refused(self, labels):
        # the fold reads only off-diagonal entries: a Z or I term is refused, not dropped
        with pytest.raises(ValueError, match="off-diagonal factors"):
            _parity_inequality("diag", "D", 4, [(label, 1.0) for label in labels], 4.0)


class TestOperatorCoefficientConsistency:
    @pytest.mark.parametrize("builder", [mermin, ardehali])
    def test_twenty_random_states(self, builder, rng):
        ineq = builder(4)
        for _ in range(20):
            rho = random_density(rng, 4)
            total = 0.0
            for s_idx, setting in enumerate(ineq.settings):
                p = outcome_probabilities(rho, setting)
                total += float(ineq.outcome_coeffs[s_idx] @ p)
            assert total == pytest.approx(expectation(rho, ineq.operator), abs=1e-10)


class TestGHZFidelityFormula:
    def test_pure_ghz(self, rho_ghz4):
        assert ghz_fidelity_formula(rho_ghz4) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert ghz_fidelity_formula(DensityMatrix.maximally_mixed(4)) == pytest.approx(
            1 / 16, abs=1e-12
        )

    def test_operator_identity_entrywise(self, ghz4, mermin4):
        lhs = np.zeros((16, 16), dtype=complex)
        lhs[0, 0] = lhs[15, 15] = 0.5
        lhs += mermin4.operator / 16.0
        assert np.max(np.abs(lhs - ghz4.projector())) < 1e-12

    def test_matches_direct_fidelity_on_random_states(self, rng, ghz4):
        for _ in range(50):
            rho = random_density(rng, 4)
            assert ghz_fidelity_formula(rho) == pytest.approx(
                fidelity_with_pure(rho, ghz4), abs=1e-10
            )

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            ghz_fidelity_formula(DensityMatrix.maximally_mixed(3))


class TestSerialization:
    @pytest.mark.parametrize("builder", [mermin, ardehali])
    def test_round_trip(self, builder, rng):
        ineq = builder(4)
        rebuilt = inequality_from_json_dict(inequality_to_json_dict(ineq))
        assert rebuilt.name == ineq.name
        assert rebuilt.lhv_bound == pytest.approx(ineq.lhv_bound, abs=1e-12)
        assert [s.label for s in rebuilt.settings] == [s.label for s in ineq.settings]
        assert np.allclose(rebuilt.outcome_coeffs, ineq.outcome_coeffs, atol=1e-12)
        rho = random_density(rng, 4)
        assert expectation(rho, rebuilt.operator) == pytest.approx(
            expectation(rho, ineq.operator), abs=1e-10
        )

    @pytest.mark.parametrize("builder", [mermin, ardehali])
    @pytest.mark.parametrize("n", [4, 6])
    def test_round_trip_keeps_the_constructors_bits(self, builder, n):
        ineq = builder(n)
        rebuilt = inequality_from_json_dict(inequality_to_json_dict(ineq))
        assert rebuilt.operator.tobytes() == ineq.operator.tobytes()
        assert rebuilt.outcome_coeffs.tobytes() == ineq.outcome_coeffs.tobytes()
        assert (rebuilt.name, rebuilt.tag, rebuilt.lhv_bound) == (ineq.name, ineq.tag, ineq.lhv_bound)
        assert [s.label for s in rebuilt.settings] == [s.label for s in ineq.settings]

    @staticmethod
    def loaded_operator(labels, rows):
        n = len(labels[0])
        data = {"name": "f", "n_qubits": n, "lhv_bound": 1.0,
                "settings": [{"label": label, "coefficients": list(row)} for label, row in zip(labels, rows)]}
        return inequality_from_json_dict(data).operator

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_parity_rows_add_the_per_term_kron(self, data):
        # TestParityOperatorOracle's rule for the constructors: each row c * parity adds c * kron_all, from 0
        n = data.draw(st.integers(1, 4))
        labels = data.draw(st.lists(st.text("XYAB", min_size=n, max_size=n), min_size=1, max_size=6, unique=True))
        coeffs = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(labels), max_size=len(labels)))
        parity = functools.reduce(np.kron, [np.array([1.0, -1.0])] * n)
        op = np.zeros((2**n, 2**n), dtype=complex)
        for label, c in zip(labels, coeffs):
            op += c * kron_all([standard_observable(l).matrix for l in label])
        assert self.loaded_operator(labels, [c * parity for c in coeffs]).tobytes() == op.tobytes()

    @pytest.mark.parametrize("labels, rows, terms", [
        (["ZX", "XY"], [[1.0, -1.0, -1.0, 1.0], [0.5, -0.5, -0.5, 0.5]], [False, True]),  # a Z label
        (["XX", "YY"], [[1.0, 2.0, 3.0, 4.0], [-1.0, 1.0, 1.0, -1.0]], [False, True]),  # a row that is not c * parity
        (["XZ", "AB"], [[1.0, 1.0, -1.0, -1.0], [0.25, 0.5, 0.5, 0.25]], [False, False]),
    ])
    def test_other_rows_keep_the_eigenbasis_sum(self, labels, rows, terms):
        # a row that is not an X/Y/A/B parity row adds (u * row) @ u^dagger in its eigenbasis u
        op = np.zeros((4, 4), dtype=complex)
        for label, row, term in zip(labels, map(np.array, rows), terms):
            setting = MeasurementSetting(tuple(map(standard_observable, label)))
            if term:
                op += row[0] * kron_all([o.matrix for o in setting.observables])
            else:
                op += (setting.basis * row) @ setting.basis.conj().T
        assert self.loaded_operator(labels, rows).tobytes() == op.tobytes()

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            inequality_from_json_dict({"name": "x"})

    @pytest.mark.parametrize("settings", [[{"label": "XX"}], {"XX": [1.0, -1.0, -1.0, 1.0]}, 5])
    def test_malformed_settings_rejected(self, settings):
        data = {"name": "x", "n_qubits": 2, "lhv_bound": 1.0, "settings": settings}
        with pytest.raises(ValueError, match="malformed inequality description"):
            inequality_from_json_dict(data)

    def test_no_settings_rejected(self):
        # the empty check comes before the coefficient-table shape check
        data = {"name": "x", "n_qubits": 4, "lhv_bound": 1.0, "settings": []}
        with pytest.raises(ValueError, match="at least one setting required"):
            inequality_from_json_dict(data)

    def test_too_many_qubits_rejected(self):
        data = {"name": "x", "n_qubits": 7, "lhv_bound": 1.0,
                "settings": [{"label": "X" * 7, "coefficients": [1.0] * 2**7}]}
        with pytest.raises(ValueError, match="n_qubits must be in"):
            inequality_from_json_dict(data)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_rejected(self, mermin4, bound):
        data = {**inequality_to_json_dict(mermin4), "lhv_bound": bound}
        with pytest.raises(ValueError, match="malformed inequality description: lhv_bound must be finite"):
            inequality_from_json_dict(data)

    def test_non_finite_coefficient_rejected(self, mermin4):
        data = inequality_to_json_dict(mermin4)
        data["settings"][0]["coefficients"][0] = math.nan
        with pytest.raises(ValueError, match="coefficients must be finite"):
            inequality_from_json_dict(data)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_coefficient_rejected_before_the_operator(self, mermin4, bad):
        # BellInequality checks finiteness after the operator is built, whose
        # eigenbasis products meet inf * 0: they must not warn
        data = inequality_to_json_dict(mermin4)
        data["settings"][3]["coefficients"][5] = bad
        with pytest.raises(ValueError, match="outcome coefficients must be finite"):
            inequality_from_json_dict(data)

    def test_later_malformed_setting_is_named_before_a_non_finite_coefficient(self, mermin4):
        # every setting is read before BellInequality checks the coefficients' finiteness
        data = inequality_to_json_dict(mermin4)
        data["settings"][1]["coefficients"][3] = math.inf
        data["settings"][4]["coefficients"] = [1.0, 2.0]
        with pytest.raises(ValueError, match="setting 'YXXY' needs 16 coefficients"):
            inequality_from_json_dict(data)

    @pytest.mark.parametrize("count", [4.7, 3.999, math.inf, math.nan])
    def test_non_integral_qubit_count_rejected(self, mermin4, count):
        data = {**inequality_to_json_dict(mermin4), "n_qubits": count}
        with pytest.raises(ValueError, match="malformed inequality description: n_qubits must be a whole number"):
            inequality_from_json_dict(data)
        assert inequality_from_json_dict({**data, "n_qubits": 4.0}).n_qubits == 4

    def test_standard_observable_labels(self):
        a = standard_observable("A").matrix
        b = standard_observable("B").matrix
        x, y = pauli("X").matrix, pauli("Y").matrix
        assert np.allclose(a, (x + y) / SQRT2, atol=1e-15)
        assert np.allclose(b, (x - y) / SQRT2, atol=1e-15)
        with pytest.raises(ValueError):
            standard_observable("C")
