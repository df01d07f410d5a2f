import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entsig import (
    CountTable,
    DensityMatrix,
    NoCrossingError,
    ShotBudget,
    apply_noise,
    crossing_point,
    evaluate,
    ghz_state,
    monte_carlo_study,
    predicted_counts,
    sample_counts,
    setting_estimate,
    significance_sweep,
    variance_model_significance,
    violation,
    experimental_ansatz,
    AnsatzParams,
)
from entsig.significance import setting_estimates
from conftest import lab_noise_row, random_density


def scalar_estimate(counts, coeffs, coeff_spread=1e-12):
    """Reference: the one-setting estimate written as scalar code."""
    n = np.asarray(counts, dtype=float)
    lam = np.asarray(coeffs, dtype=float)
    n_tot = float(n.sum())
    supported = lam[n > 0]
    if float(supported.max() - supported.min()) <= coeff_spread:
        return float(supported[0]), 0.0, n_tot
    mean = float(lam @ n) / n_tot
    return mean, math.sqrt(float(((lam - mean) ** 2) @ n) / (n_tot * n_tot)), n_tot


COUNT_ROWS = hnp.arrays(np.int64, (3, 8), elements=st.integers(0, 1000))
COEFF_ROWS = hnp.arrays(np.float64, (3, 8), elements=st.floats(-10, 10))


class TestShotBudget:
    def test_equal_split(self, mermin4):
        b = ShotBudget.equal_split(8000, mermin4)
        assert all(v == 1000 for v in b.allocation.values())
        assert len(b.allocation) == 8

    def test_allocation_must_sum(self, mermin4):
        with pytest.raises(ValueError):
            ShotBudget(8000, {s.label: 100 for s in mermin4.settings})

    def test_positive_copies(self):
        with pytest.raises(ValueError):
            ShotBudget(0, {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_finite_copies(self, mermin4, bad):
        with pytest.raises(ValueError, match="finite"):
            ShotBudget.equal_split(bad, mermin4)
        with pytest.raises(ValueError, match="finite"):
            ShotBudget(1000.0, {"XXXX": 1000.0, "YYYY": bad})

    def test_missing_setting(self, mermin4, rho_ghz4, ardehali4):
        budget = ShotBudget.equal_split(8000, mermin4)
        with pytest.raises(ValueError, match="no allocation"):
            predicted_counts(rho_ghz4, ardehali4, budget)


class TestPredictedCounts:
    def test_ghz_mermin_xxxx(self, rho_ghz4, mermin4):
        table = predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(8000, mermin4))
        counts = table.for_setting("XXXX")
        parity = np.array([(-1) ** bin(o).count("1") for o in range(16)])
        assert np.allclose(counts[parity == 1], 125.0, atol=1e-9)
        assert np.all(counts[parity == -1] == 0.0)

    def test_maximally_mixed_uniform(self, mermin4):
        mixed = DensityMatrix.maximally_mixed(4)
        budget = ShotBudget(160 * 8, {s.label: 160 for s in mermin4.settings})
        table = predicted_counts(mixed, mermin4, budget)
        for s in mermin4.settings:
            assert np.allclose(table.for_setting(s.label), 10.0, atol=1e-10)

    def test_ghz_zzzz_type(self, rho_ghz4):
        from entsig import MeasurementSetting, ProductObservable, generic_inequality, pauli

        z = pauli("Z")
        ineq = generic_inequality(
            [ProductObservable(1.0, (z, z, z, z))],
            [MeasurementSetting((z, z, z, z))],
            [0],
            lhv_bound=1.0,
        )
        table = predicted_counts(rho_ghz4, ineq, ShotBudget(1000, {"ZZZZ": 1000}))
        counts = table.for_setting("ZZZZ")
        assert counts[0] == pytest.approx(500.0, abs=1e-9)
        assert counts[15] == pytest.approx(500.0, abs=1e-9)
        assert np.all(counts[1:15] == 0.0)


class TestSampleCounts:
    def test_zero_mean_outcomes_stay_zero(self, rho_ghz4, mermin4):
        budget = ShotBudget.equal_split(8000, mermin4)
        table = sample_counts(rho_ghz4, mermin4, budget, seed=5)
        parity = np.array([(-1) ** bin(o).count("1") for o in range(16)])
        for s_idx, setting in enumerate(mermin4.settings):
            counts = table.for_setting(setting.label)
            lam0 = mermin4.outcome_coeffs[s_idx][0]
            supported = parity == (1 if lam0 > 0 else -1)
            assert np.all(counts[~supported] == 0)

    def test_draws_match_per_setting_reference(self, mermin4):
        # at bit-flip 0.15 a fused multiply-add kernel alone leaves ~1e-17
        # means on impossible outcomes, and poisson(>0) consumes random numbers
        rho = apply_noise(DensityMatrix.from_pure(ghz_state(4)), "bitflip", 0.15)
        budget = ShotBudget.equal_split(8000, mermin4)
        table = sample_counts(rho, mermin4, budget, seed=11)
        rng = np.random.default_rng(11)
        for s in mermin4.settings:
            p = np.real(np.einsum("io,ij,jo->o", s.basis.conj(), rho.matrix, s.basis))
            expected = rng.poisson(1000.0 * np.clip(p, 0.0, None))
            assert np.array_equal(table.for_setting(s.label), expected)

    def test_fixed_seed_reproducible(self, rho_ghz4, ardehali4):
        budget = ShotBudget.equal_split(8000, ardehali4)
        t1 = sample_counts(rho_ghz4, ardehali4, budget, seed=42)
        t2 = sample_counts(rho_ghz4, ardehali4, budget, seed=42)
        for s in ardehali4.settings:
            assert np.array_equal(t1.for_setting(s.label), t2.for_setting(s.label))

    def test_empirical_mean_within_three_sigma(self):
        # single-outcome Poisson check across 10000 draws
        rng_means = 37.5
        draws = np.array(
            [
                np.random.default_rng(seed).poisson(rng_means)
                for seed in range(10000)
            ]
        )
        sigma = math.sqrt(rng_means / 10000)
        assert abs(draws.mean() - rng_means) < 3 * sigma


class TestSettingEstimate:
    def test_single_outcome_support(self):
        mean, err = setting_estimate([100.0, 0.0, 0.0, 0.0], [3.0, -1.0, -1.0, 1.0])
        assert mean == 3.0
        assert err == 0.0

    def test_fifty_fifty_case(self):
        mean, err = setting_estimate([50.0, 50.0, 0.0, 0.0], [1.0, -1.0, -1.0, 1.0])
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert err == pytest.approx(0.1, abs=1e-12)

    def test_ghz_stabilizer_error_vanishes(self, rho_ghz4, mermin4):
        table = predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(8000, mermin4))
        for s_idx, setting in enumerate(mermin4.settings):
            mean, err = setting_estimate(
                table.for_setting(setting.label), mermin4.outcome_coeffs[s_idx]
            )
            assert err == 0.0
            assert mean == 1.0

    def test_no_data_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            setting_estimate([0.0, 0.0], [1.0, -1.0])

    def test_scale_invariance(self, rng):
        counts = rng.uniform(1, 50, size=16)
        lam = rng.normal(size=16)
        mean1, err1 = setting_estimate(counts, lam)
        mean2, err2 = setting_estimate(7.3 * counts, lam)
        assert mean2 == pytest.approx(mean1, abs=1e-10)
        assert err2 == pytest.approx(err1 / math.sqrt(7.3), abs=1e-10)

    def test_error_formula_verbatim(self, rng):
        # spell out the propagation sum independently: bracket is
        # lambda_o/n_tot - mean/n_tot, weighted by the count
        counts = rng.uniform(0.5, 30, size=8)
        lam = rng.normal(size=8)
        mean, err = setting_estimate(counts, lam)
        n_tot = counts.sum()
        direct = sum((lam[o] / n_tot - mean / n_tot) ** 2 * counts[o] for o in range(8))
        assert err == pytest.approx(math.sqrt(direct), abs=1e-12)


class TestSettingEstimates:
    def test_rows_match_scalar_formula(self, rng):
        lam = rng.normal(size=(6, 16))
        counts = rng.poisson(20.0, size=(6, 16)).astype(float)
        counts[2] = 0.0
        counts[2, 5] = 40.0  # single-outcome support
        counts[4, ::2] = 0.0
        lam[4, 1::2] = lam[4, 1]  # several outcomes, one coefficient
        means, errors, totals = setting_estimates(counts, lam)
        for s_idx in range(6):
            assert (means[s_idx], errors[s_idx], totals[s_idx]) == scalar_estimate(counts[s_idx], lam[s_idx])
        assert errors[2] == 0.0 and means[2] == lam[2, 5]
        assert errors[4] == 0.0 and means[4] == lam[4, 1]

    def test_any_empty_row_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            setting_estimates([[1.0, 2.0], [0.0, 0.0]], [[1.0, -1.0], [1.0, -1.0]])

    @settings(deadline=None)
    @given(counts=COUNT_ROWS, coeffs=COEFF_ROWS)
    def test_error_is_nonnegative(self, counts, coeffs):
        assume(np.all(counts.sum(axis=1) > 0))
        _, errors, _ = setting_estimates(counts, coeffs)
        assert np.all(errors >= 0.0)

    @settings(deadline=None)
    @given(counts=COUNT_ROWS, coeffs=COEFF_ROWS, k=st.integers(2, 1000))
    def test_error_scales_as_inverse_sqrt_of_counts(self, counts, coeffs, k):
        assume(np.all(counts.sum(axis=1) > 0))
        _, e1, _ = setting_estimates(counts, coeffs)
        _, ek, _ = setting_estimates(k * counts, coeffs)
        assert np.allclose(ek * math.sqrt(k), e1, rtol=1e-9, atol=1e-12)


class TestEvaluate:
    def test_perfect_ghz_mermin(self, rho_ghz4, mermin4):
        table = predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(8000, mermin4))
        rep = evaluate(table, mermin4)
        assert rep.violation == 4.0
        assert rep.error == 0.0
        assert math.isinf(rep.significance)
        assert not rep.degenerate
        assert all(s.error == 0.0 for s in rep.per_setting)

    def test_perfect_ghz_ardehali(self, rho_ghz4, ardehali4):
        table = predicted_counts(rho_ghz4, ardehali4, ShotBudget.equal_split(8000, ardehali4))
        rep = evaluate(table, ardehali4)
        assert rep.violation == pytest.approx(8 - 2 * math.sqrt(2), abs=1e-9)
        assert rep.error > 0
        assert math.isfinite(rep.significance)
        assert rep.significance * rep.error == pytest.approx(rep.violation, abs=1e-9)

    def test_maximally_mixed_no_violation(self, mermin4, ardehali4):
        mixed = DensityMatrix.maximally_mixed(4)
        for ineq in (mermin4, ardehali4):
            table = predicted_counts(mixed, ineq, ShotBudget.equal_split(8000, ineq))
            rep = evaluate(table, ineq)
            assert rep.violation < 0

    def test_degenerate_flag_for_nonpositive_violation(self):
        from entsig import MeasurementSetting, ProductObservable, generic_inequality, pauli

        z = pauli("Z")
        ineq = generic_inequality(
            [ProductObservable(1.0, (z,))], [MeasurementSetting((z,))], [0], lhv_bound=2.0
        )
        table = CountTable(ineq.name, {"Z": [100, 0]}, mode="sampled")
        rep = evaluate(table, ineq)
        assert rep.violation == -1.0
        assert rep.error == 0.0
        assert rep.significance == 0.0
        assert rep.degenerate

    def test_missing_setting_rejected(self, mermin4):
        table = CountTable(mermin4.name, {"XXXX": np.ones(16)}, mode="predicted")
        with pytest.raises(ValueError, match="no setting"):
            evaluate(table, mermin4)

    def test_table_of_other_inequality_rejected(self, rho_ghz4, mermin4):
        table = predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(8000, mermin4))
        renamed = CountTable("ardehali4", table.counts, mode="predicted")
        with pytest.raises(ValueError, match="'ardehali4', not 'mermin4'"):
            evaluate(renamed, mermin4)

    def test_extra_setting_rejected(self, rho_ghz4, mermin4):
        table = predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(8000, mermin4))
        counts = dict(table.counts, ZZZZ=np.ones(16))
        with pytest.raises(ValueError, match="ZZZZ"):
            evaluate(CountTable(mermin4.name, counts, mode="predicted"), mermin4)

    def test_reproduces_violation_for_random_states(self, rng, mermin4, ardehali4):
        for ineq in (mermin4, ardehali4):
            budget = ShotBudget.equal_split(8000, ineq)
            for _ in range(5):
                rho = random_density(rng, 4)
                rep = evaluate(predicted_counts(rho, ineq, budget), ineq)
                assert rep.violation == pytest.approx(violation(rho, ineq), abs=1e-9)


class TestVarianceModel:
    def test_eigenstate_gives_infinite_s(self, ghz4, witness4):
        rep = variance_model_significance(ghz4, witness4)
        assert rep.violation == pytest.approx(0.5, abs=1e-12)
        assert rep.error == pytest.approx(0.0, abs=1e-10)
        assert math.isinf(rep.significance)

    def test_maximally_mixed_moment_formula(self, witness4):
        mixed = DensityMatrix.maximally_mixed(4)
        rep = variance_model_significance(mixed, witness4)
        w = witness4.matrix
        expected_e = math.sqrt(
            np.trace(w @ w).real / 16 - (np.trace(w).real / 16) ** 2
        )
        assert rep.error == pytest.approx(expected_e, abs=1e-12)
        assert rep.violation == pytest.approx(-(0.5 - 1 / 16), abs=1e-12)

    def test_bell_inequality_input(self, rho_ghz4, mermin4):
        rep = variance_model_significance(rho_ghz4, mermin4)
        assert rep.violation == pytest.approx(4.0, abs=1e-9)
        assert math.isinf(rep.significance)

    def test_copies_scaling(self, witness4):
        mixed = DensityMatrix.maximally_mixed(4)
        single = variance_model_significance(mixed, witness4)
        many = variance_model_significance(mixed, witness4, copies=100)
        assert many.error == pytest.approx(single.error / 10, abs=1e-12)


class TestSweep:
    def test_bitflip_four_qubit_pattern(self, mermin4, ardehali4):
        table = significance_sweep(
            (mermin4, ardehali4), "bitflip", np.linspace(0, 0.25, 9)
        )
        s_m, s_a = table.values["M"]["S"], table.values["A"]["S"]
        assert math.isinf(s_m[0]) and math.isfinite(s_a[0])
        low_f = table.fidelity < 0.70
        assert np.all(s_a[low_f] > s_m[low_f])

    def test_ansatz_start_mermin_wins_at_zero(self, mermin4, ardehali4):
        state = experimental_ansatz(AnsatzParams())
        table = significance_sweep((mermin4, ardehali4), "bitflip", [0.0], initial_state=state)
        assert table.values["M"]["S"][0] > table.values["A"]["S"][0]
        assert math.isfinite(table.values["M"]["S"][0])

    def test_ansatz_white_noise_crosses_outside_measured_rows(self):
        # The criterion-6 bracket (the theta = 4 and 6 degree bit-flip rows)
        # is narrow enough to reject a crossing from the wrong noise model:
        # global white noise on the same state swaps the order near p = 0.114.
        state = experimental_ansatz(AnsatzParams())
        res = crossing_point("white", 4, initial_state=state)
        assert res.p_star == pytest.approx(0.114, abs=2e-3)
        assert not lab_noise_row(4.0) < res.p_star < lab_noise_row(6.0)

    def test_csv_layout(self, mermin4, ardehali4):
        table = significance_sweep((mermin4, ardehali4), "bitflip", [0.0, 0.1])
        text = table.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "p,F,V_M,E_M,S_M,V_A,E_A,S_A"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[4] == "inf"

    def test_grid_validation(self, mermin4, ardehali4):
        with pytest.raises(ValueError):
            significance_sweep((mermin4, ardehali4), "bitflip", [0.0, 1.5])
        with pytest.raises(ValueError):
            significance_sweep((mermin4, ardehali4), "nonsense", [0.0])


class TestCrossing:
    def test_bitflip_four_qubits(self):
        res = crossing_point("bitflip", 4)
        assert res.fidelity_star == pytest.approx(0.70, abs=0.01)

    def test_unknown_family_is_value_error(self):
        with pytest.raises(ValueError, match="unknown noise family"):
            crossing_point("pink", 4)

    def test_no_crossing_raises(self):
        with pytest.raises(NoCrossingError):
            crossing_point("bitflip", 4, span=(0.2, 0.25))

    def test_bisection_resolution(self):
        res1 = crossing_point("bitflip", 4)
        res2 = crossing_point("bitflip", 4, coarse=57)
        assert res2.p_star == pytest.approx(res1.p_star, abs=2e-6)

    def test_single_crossing_sign_pattern(self, mermin4, ardehali4):
        # S_M >= S_A exactly when F >= F* along the swept family
        res = crossing_point("bitflip", 4)
        table = significance_sweep((mermin4, ardehali4), "bitflip", np.linspace(0, 0.25, 60))
        s_m, s_a = table.values["M"]["S"], table.values["A"]["S"]
        above = table.fidelity > res.fidelity_star + 1e-6
        below = table.fidelity < res.fidelity_star - 1e-6
        assert np.all(s_m[above] >= s_a[above])
        assert np.all(s_a[below] > s_m[below])


class TestCountTableIO:
    def test_round_trip(self, rho_ghz4, mermin4):
        table = predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(8000, mermin4))
        data = json.loads(json.dumps(table.to_json_dict()))
        rebuilt = CountTable.from_json_dict(data)
        assert rebuilt.mode == "predicted"
        for s in mermin4.settings:
            assert np.allclose(rebuilt.for_setting(s.label), table.for_setting(s.label), atol=1e-12)

    def test_mode_inference(self):
        data = {"inequality": "x", "settings": [{"label": "Z", "counts": [1, 2]}]}
        assert CountTable.from_json_dict(data).mode == "sampled"
        data = {"inequality": "x", "settings": [{"label": "Z", "counts": [1.5, 2.0]}]}
        assert CountTable.from_json_dict(data).mode == "predicted"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            CountTable.from_json_dict({"settings": "nope"})

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountTable("x", {"Z": [-1, 2]})


class TestMonteCarlo:
    def test_zero_noise_mermin_is_deterministic(self, rho_ghz4, mermin4):
        budget = ShotBudget.equal_split(8000, mermin4)
        summary = monte_carlo_study(rho_ghz4, mermin4, budget, trials=150, seed=3)
        assert summary.violation_std == 0.0
        assert summary.error_mean == 0.0
        assert math.isnan(summary.std_ratio)

    def test_trials_floor(self, rho_ghz4, mermin4):
        budget = ShotBudget.equal_split(8000, mermin4)
        with pytest.raises(ValueError):
            monte_carlo_study(rho_ghz4, mermin4, budget, trials=10)

    def test_error_shrinks_with_root_two(self, mermin4, rho_ghz4):
        noisy = apply_noise(rho_ghz4, "bitflip", 0.05)
        rep1 = evaluate(
            predicted_counts(noisy, mermin4, ShotBudget.equal_split(8000, mermin4)), mermin4
        )
        rep2 = evaluate(
            predicted_counts(noisy, mermin4, ShotBudget.equal_split(16000, mermin4)), mermin4
        )
        assert rep2.error == pytest.approx(rep1.error / math.sqrt(2), rel=0.05)

    def test_seed_and_order_independence(self, mermin4, rho_ghz4):
        noisy = apply_noise(rho_ghz4, "bitflip", 0.05)
        budget = ShotBudget.equal_split(8000, mermin4)
        s1 = monte_carlo_study(noisy, mermin4, budget, trials=120, seed=9)
        s2 = monte_carlo_study(noisy, mermin4, budget, trials=120, seed=9)
        assert s1 == s2
