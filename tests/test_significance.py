import contextlib
import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entsig import (
    CountTable,
    DensityMatrix,
    MonteCarloSummary,
    NoCrossingError,
    PureState,
    ShotBudget,
    apply_noise,
    crossing_point,
    evaluate,
    fidelity_with_pure,
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
    ardehali,
    inequality_from_json_dict,
    inequality_to_json_dict,
    lhv_bound_bruteforce,
    mermin,
    generic_inequality,
    MeasurementSetting,
    ProductObservable,
    standard_observable,
)
import entsig.significance as significance
from entsig.inequalities import SQRT2, _XY, _even_y_coefficient, _parity_inequality
from entsig.significance import (
    _POISSON_LAM_MAX, _SWEEP_ENTRIES, DEFAULT_SPAN, NOISE_FAMILIES, _combine, _monte_carlo_studies, setting_estimates,
)
from entsig.tolerances import DEFAULT
from conftest import lab_noise_row, random_density, random_pure


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


def left_to_right(values):
    """Reference: add a sequence strictly left to right (``sum`` is compensated
    from Python 3.12 on, so it is no reference)."""
    acc = values[0]
    for x in values[1:]:
        acc += x
    return acc


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


COUNT_ROWS = hnp.arrays(np.int64, (3, 8), elements=st.integers(0, 1000))
COEFF_ROWS = hnp.arrays(np.float64, (3, 8), elements=st.floats(-10, 10))


@st.composite
def setting_rows(draw):
    """Equal-shape (k, n_settings) arrays of setting means and errors."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 40)))
    means = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    errors = draw(hnp.arrays(np.float64, shape, elements=st.floats(0, 1e3)))
    return means, errors


@st.composite
def count_tables(draw):
    """Count tables in either mode with arbitrary labels and entries."""
    mode = draw(st.sampled_from(["predicted", "sampled"]))
    if mode == "sampled":
        vectors = hnp.arrays(np.int64, st.integers(1, 16), elements=st.integers(0, 10**9))
    else:
        vectors = hnp.arrays(np.float64, st.integers(1, 16), elements=st.floats(0, 1e9))
    counts = draw(st.dictionaries(st.text("XYZAB", min_size=1, max_size=6), vectors, min_size=1, max_size=5))
    return CountTable(draw(st.text(max_size=10)), counts, mode=mode)


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

    def test_largest_poisson_mean_is_sampled_and_the_next_is_refused(self, rho_ghz4, mermin4):
        # numpy's own check says only "lam value too large"; entsig names the
        # setting and its count before any draw
        p_max = mermin4.probabilities(rho_ghz4).max()
        labels = [s.label for s in mermin4.settings]
        at_limit = _POISSON_LAM_MAX / p_max
        assert at_limit * p_max == _POISSON_LAM_MAX
        table = sample_counts(rho_ghz4, mermin4, ShotBudget(8 * at_limit, dict.fromkeys(labels, at_limit)), seed=1)
        assert table.for_setting("XXXX").max() > 0.99 * _POISSON_LAM_MAX
        above = np.nextafter(at_limit, np.inf)
        assert above * p_max == np.nextafter(_POISSON_LAM_MAX, np.inf)
        with pytest.raises(ValueError, match=r"expected count 9\.2233720064847[0-9]*e\+18 in setting 'XXXX' is too large"):
            sample_counts(rho_ghz4, mermin4, ShotBudget(8 * above, dict.fromkeys(labels, above)), seed=1)

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

    @pytest.mark.parametrize("total", [1e155, math.inf, 2.0**-511 * (1 - 2.0**-53), 1e-300, 5e-324])
    def test_total_without_a_normal_square_is_named(self, total):
        # n_tot * n_tot overflows or underflows: refused by name, with no warning
        with pytest.raises(ValueError, match=re.escape(f"setting total {total!r} has no finite positive normal square")):
            setting_estimates([[1.0, 1.0], [total, 0.0]], [[1.0, -1.0], [1.0, -1.0]])

    @pytest.mark.parametrize("total", [1e154, 2.0**-511])
    def test_totals_at_the_edge_keep_the_formula(self, total):
        means, errors, totals = setting_estimates([[0.25 * total, 0.75 * total]], [[1.0, -1.0]])
        assert (means[0], errors[0], totals[0]) == scalar_estimate([0.25 * total, 0.75 * total], [1.0, -1.0])

    def test_count_stack_matches_each_table_alone(self, rng):
        # a (G, S, d) stack against one (S, d) coefficient table gives, per
        # point, the bits of that point's (S, d) table passed alone
        lam = rng.normal(size=(5, 16))
        lam[3, 1::2] = lam[3, 1]
        counts = rng.poisson(20.0, size=(7, 5, 16)).astype(float)
        counts[2, 1] = 0.0
        counts[2, 1, 9] = 30.0  # single-outcome support
        counts[4, 3, ::2] = 0.0  # several outcomes, one coefficient
        means, errors, totals = setting_estimates(counts, lam)
        assert means.shape == errors.shape == totals.shape == (7, 5)
        for g in range(7):
            alone = setting_estimates(counts[g], lam)
            assert [bits(x[g]) for x in (means, errors, totals)] == [bits(x) for x in alone]
        assert errors[2, 1] == 0.0 and errors[4, 3] == 0.0
        with pytest.raises(ValueError, match="matching shape"):
            setting_estimates(counts, lam[:4])
        with pytest.raises(ValueError, match="matching shape"):
            setting_estimates(counts, np.broadcast_to(lam, counts.shape))

    @pytest.mark.parametrize("n", [4, 6])
    def test_bits_do_not_depend_on_memory_layout(self, n):
        # predicted counts of 16 bit-flip states, passed again as equal-valued
        # copies stored outcome-axis first; each row must still be estimated
        # exactly as the C-ordered row alone
        ineq = ardehali(n)
        budget = ShotBudget.equal_split(8000, ineq)
        ghz = DensityMatrix.from_pure(ghz_state(n))
        counts = np.array([
            significance._expected_counts(ineq.probabilities(apply_noise(ghz, "bitflip", p)), ineq, budget)
            for p in np.linspace(0.01, 0.2, 16)
        ])
        moved = np.ascontiguousarray(np.moveaxis(counts, -1, 0)).transpose(1, 2, 0)
        lam = np.asfortranarray(ineq.outcome_coeffs)
        assert np.array_equal(moved, counts) and not moved.flags.c_contiguous and not lam.flags.c_contiguous
        expected = setting_estimates(counts, ineq.outcome_coeffs)
        for got in (setting_estimates(moved, ineq.outcome_coeffs), setting_estimates(counts, lam)):
            assert [bits(x) for x in got] == [bits(x) for x in expected]
        sampled = np.random.default_rng(3).poisson(counts).astype(float)
        moved = np.ascontiguousarray(np.moveaxis(sampled, -1, 0)).transpose(1, 2, 0)
        expected = setting_estimates(sampled, ineq.outcome_coeffs)
        assert [bits(x) for x in setting_estimates(moved, lam)] == [bits(x) for x in expected]

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

    @settings(deadline=None, max_examples=40)
    @given(noise=st.sampled_from(NOISE_FAMILIES), p=st.floats(0, 1), which=st.sampled_from(["M", "A"]))
    def test_predicted_counts_reproduce_violation(self, rho_ghz4, mermin4, ardehali4, noise, p, which):
        ineq = mermin4 if which == "M" else ardehali4
        rho = apply_noise(rho_ghz4, noise, p)
        rep = evaluate(predicted_counts(rho, ineq, ShotBudget.equal_split(8000, ineq)), ineq)
        assert rep.violation == pytest.approx(violation(rho, ineq), abs=1e-9)

    @settings(deadline=None)
    @given(rows=setting_rows(), bound=st.floats(-10, 10))
    def test_combine_adds_left_to_right(self, rows, bound):
        means, errors = rows
        v, e = _combine(means, errors, bound)
        for k in range(len(means)):
            assert bits(v[k]) == bits(left_to_right(means[k].tolist()) - bound)
            assert bits(e[k]) == bits(math.sqrt(left_to_right([x * x for x in errors[k].tolist()])))

    def test_error_summed_past_the_float_range_is_named(self, mermin4):
        # every setting's error is 6.4e153; their squares add past the float range
        data = inequality_to_json_dict(mermin4)
        for entry in data["settings"]:
            entry["coefficients"] = [c * 9e153 for c in entry["coefficients"]]
        ineq = inequality_from_json_dict(data)
        table = CountTable(ineq.name, {s.label: [1, 1] + [0] * 14 for s in ineq.settings})
        with pytest.raises(ValueError, match=re.escape("inequality 'mermin4' has no finite violation and error: V -4.0, E inf")):
            evaluate(table, ineq)

    @pytest.mark.parametrize("run", [
        lambda big, rho: evaluate(predicted_counts(rho, big, ShotBudget.equal_split(8000, big)), big),
        lambda big, rho: significance_sweep([big], "bitflip", [0.0]),
        lambda big, rho: monte_carlo_study(rho, big, ShotBudget.equal_split(8000, big), 100),
    ], ids=["evaluate", "sweep", "montecarlo"])
    def test_violation_past_the_float_range_is_refused(self, rho_ghz4, mermin4, run):
        # every setting's mean is 3e307 at GHZ; their sum is not a float
        data = inequality_to_json_dict(mermin4)
        for entry in data["settings"]:
            entry["coefficients"] = [c * 3e307 for c in entry["coefficients"]]
        big = inequality_from_json_dict({**data, "name": "big", "tag": "B", "lhv_bound": 0.0})
        with pytest.raises(ValueError, match=re.escape("inequality 'big' has no finite violation and error: V inf, E 0.0")):
            run(big, rho_ghz4)

    @pytest.mark.parametrize("bound, v", [(1e300, "-1e+300"), (-1e300, "1e+300")])
    def test_significance_past_the_float_range_is_refused(self, bound, v):
        # V and E are finite, but V/E is not: refused in the words of V and E, with no numpy warning;
        # an infinite S is kept for an exact-zero error alone
        zz = inequality_from_json_dict({"name": "zz", "n_qubits": 2, "lhv_bound": bound,
                                        "settings": [{"label": "XX", "coefficients": [1, 1.000000001, 1, 1]}]})
        table = CountTable("zz", {"XX": [1e150] * 4}, mode="predicted")
        message = f"inequality 'zz' has no finite significance: V {v}, E 2.1650636885992548e-85"
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(table, zz)

    @pytest.mark.parametrize("grid", [[1e-300], [0.0, 1e-300]])
    def test_sweep_significance_past_the_float_range_is_refused(self, grid):
        # at p = 0 the ZZ row is flat (E = 0, S = 0, degenerate); at 1e-300 its E is 3.2e-152
        z = standard_observable("Z")
        zz = generic_inequality([ProductObservable(1.0, (z, z))], [MeasurementSetting((z, z))], [0], 1e300)
        message = "inequality 'custom' has no finite significance: V -1e+300, E 3.1622776601683796e-152"
        with pytest.raises(ValueError, match=re.escape(message)):
            significance_sweep([zz], "bitflip", grid)
        assert significance_sweep([zz], "bitflip", [0.0]).values["custom"]["S"].tolist() == [0.0]

    def test_crossing_read_past_the_float_range_is_refused(self):
        # the model certifies no gap here; the exact read of the coarse grid is refused at p = 1e-299/32
        z = standard_observable("Z")
        pair = [generic_inequality([ProductObservable(1.0, (z, z))], [MeasurementSetting((z, z))], [0], bound, name=name)
                for name, bound in (("a", 1e300), ("b", 0.5))]
        message = "inequality 'a' has no finite significance: V -1e+300, E 1.7677669529663692e-152"
        with pytest.raises(ValueError, match=re.escape(message)):
            crossing_point("bitflip", ineqs=pair, span=(0.0, 1e-299))


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

    def test_copies_must_be_finite(self, rho_ghz4, mermin4):
        # NaN copies gave E = S = nan, and inf copies E = 0 and S = inf for a state that is no eigenstate
        rho = apply_noise(rho_ghz4, "white", 0.3)
        finite = variance_model_significance(rho, mermin4, copies=1e6)
        assert 0.0 < finite.error and math.isfinite(finite.significance)
        for copies in (math.nan, math.inf, np.float64(math.inf)):
            with pytest.raises(ValueError, match=re.escape(f"copies must be positive and finite, got {copies!r}")):
                variance_model_significance(rho, mermin4, copies=copies)
        with pytest.raises(ValueError, match=r"^copies must be positive$"):
            variance_model_significance(rho, mermin4, copies=-math.inf)


def _csv_row_per_value(row) -> str:
    """The per-value spelling of a CSV row that ``SweepTable.to_csv_text`` formats in one step."""
    return ",".join(f"{x:.9g}" for x in row)


class TestCsvText:
    EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
             np.finfo(float).tiny, 1e-320, 1e300, 0.5, 1.0, 123456789.5, 9.99999999949e-5]

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=12))
    @example(EDGES)
    def test_row_spellings_agree(self, row):
        assert ",".join(["%.9g"] * len(row)) % tuple(row) == _csv_row_per_value(row)

    def test_row_spellings_agree_across_magnitudes(self):
        rng = np.random.default_rng(20261020)
        values = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-320, 300, 20_000)
        rows = np.concatenate([values, self.EDGES * 3]).reshape(-1, 8).tolist()
        assert [",".join(["%.9g"] * 8) % tuple(row) for row in rows] == [_csv_row_per_value(row) for row in rows]


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

    def test_rows_and_json_hold_the_columns_unrounded(self, mermin4, ardehali4):
        table = significance_sweep((mermin4, ardehali4), "bitflip", np.linspace(0.0, 0.25, 7))
        columns = [table.p, table.fidelity] + [table.values[tag][key] for tag in ("M", "A") for key in "VES"]
        rows = table.rows()
        assert all(type(x) is float for row in rows for x in row)
        assert bits(rows) == bits(np.transpose(columns))
        data = table.to_json_dict()
        json.dumps(data, allow_nan=False)  # infinities are spelled "inf"
        assert data["rows"][0]["S_M"] == "inf"
        assert [list(row.values()) for row in data["rows"][1:]] == rows[1:]
        assert list(data["rows"][0]) == table.header() == table.to_csv_text().split("\n")[0].split(",")

    def test_grid_validation(self, mermin4, ardehali4):
        with pytest.raises(ValueError):
            significance_sweep((mermin4, ardehali4), "bitflip", [0.0, 1.5])
        with pytest.raises(ValueError):
            significance_sweep((mermin4, ardehali4), "nonsense", [0.0])

    def test_nan_grid_value_rejected_by_grid_check(self, mermin4, ardehali4):
        with pytest.raises(ValueError, match=r"noise grid values must lie in \[0, 1\]"):
            significance_sweep((mermin4, ardehali4), "bitflip", [0.1, math.nan])

    @pytest.mark.parametrize("n, noise, grid", [
        (4, "bitflip", np.linspace(0.0, 0.25, 21)),
        (4, "white", np.linspace(0.0, 0.9, 21)),
        (6, "bitflip", [0.0, 0.05, 0.15]),
        (6, "white", [0.0, 0.3]),
    ])
    def test_columns_match_evaluate_bitwise(self, n, noise, grid):
        # the sweep skips CountTable and evaluate; this is the path it replaced
        ineqs = (mermin(n), ardehali(n))
        table = significance_sweep(ineqs, noise, grid)
        state0 = DensityMatrix.from_pure(ghz_state(n))
        for i, p in enumerate(grid):
            noisy = apply_noise(state0, noise, float(p))
            for q in ineqs:
                rep = evaluate(predicted_counts(noisy, q, ShotBudget.equal_split(8000.0, q)), q)
                column = [table.values[q.tag][key][i] for key in ("V", "E", "S")]
                assert bits(column) == bits([rep.violation, rep.error, rep.significance])
        assert math.isinf(table.values["M"]["S"][0])

    @pytest.mark.parametrize("noise, grid", [
        ("bitflip", np.linspace(0.0, 0.08, 37)),
        ("white", np.linspace(0.0, 1.0, 21)),
    ])
    def test_ansatz_columns_match_evaluate_bitwise(self, noise, grid):
        # the imperfect source has no stabilizer zeros to lean on: every row
        # of a chunk's one fused estimate must still match evaluate
        ineqs = (mermin(4), ardehali(4))
        state0 = experimental_ansatz(AnsatzParams())
        table = significance_sweep(ineqs, noise, grid, initial_state=state0)
        for i, p in enumerate(grid):
            noisy = apply_noise(state0, noise, float(p))
            for q in ineqs:
                rep = evaluate(predicted_counts(noisy, q, ShotBudget.equal_split(8000.0, q)), q)
                column = [table.values[q.tag][key][i] for key in ("V", "E", "S")]
                assert bits(column) == bits([rep.violation, rep.error, rep.significance])

    @pytest.mark.parametrize("n, noise, grid, state", [
        (4, "bitflip", np.linspace(0.0, 0.25, 37), None),
        (4, "white", np.linspace(0.0, 0.9, 37), "ansatz"),
        (6, "bitflip", [0.0, 0.1, 0.25], None),
        (4, "bitflip", np.linspace(0.0, 0.25, 101), None),
    ])
    def test_chunks_match_one_point_sweeps(self, n, noise, grid, state):
        # 37 points at 4 qubits are one short chunk, 101 a full 64-point chunk
        # and a short one; a one-point sweep is a chunk of its own, as in the
        # crossing bisection
        if n == 4:
            assert len(grid) % (_SWEEP_ENTRIES // 4**n) != 0
        ineqs = (mermin(n), ardehali(n))
        state = experimental_ansatz(AnsatzParams()) if state else None
        table = significance_sweep(ineqs, noise, grid, initial_state=state)
        for i, p in enumerate(grid):
            one = significance_sweep(ineqs, noise, [p], initial_state=state)
            assert bits(table.fidelity[i]) == bits(one.fidelity[0])
            for q in ineqs:
                for key in ("V", "E", "S"):
                    assert bits(table.values[q.tag][key][i]) == bits(one.values[q.tag][key][0])

    @pytest.mark.parametrize("n, chunks", [(4, [64, 64, 64, 8]), (6, [4] * 50)])
    def test_default_sweep_chunks(self, monkeypatch, n, chunks):
        # a sweep chunk holds _SWEEP_ENTRIES state entries, unlike the
        # crossing scan's smaller chunks (TestCrossing pins those)
        built, noisy_stack = [], significance._noisy_stack
        monkeypatch.setattr(significance, "_noisy_stack", lambda m, f, ps: built.append(len(ps)) or noisy_stack(m, f, ps))
        significance_sweep((mermin(n), ardehali(n)), "bitflip", np.linspace(0.0, 0.25, 200))
        assert built == chunks

    @pytest.mark.parametrize("run", [
        lambda pair: significance_sweep(pair, "bitflip", [0.1]),
        lambda pair: crossing_point("bitflip", ineqs=pair),
    ], ids=["sweep", "crossing"])
    def test_refusal_names_the_setting(self, ardehali4, mermin4, run):
        # big's settings follow Ardehali's 16 in the shared estimate pass; the refusal
        # names its setting 'XXYY' by label, as evaluate does, not as row 17
        data = inequality_to_json_dict(mermin4)
        for entry in data["settings"]:
            entry["coefficients"] = [c * 3e307 for c in entry["coefficients"]]
        big = inequality_from_json_dict({**data, "name": "big", "tag": "B"})
        with pytest.raises(ValueError, match=re.escape("setting 'XXYY' has no finite estimate: mean ")):
            run((ardehali4, big))


def _z_inequality(n):
    """One setting, Z on every qubit: a sweep of it on n qubits costs little besides its states."""
    z = standard_observable("Z")
    return generic_inequality([ProductObservable(1.0, (z,) * n)], [MeasurementSetting((z,) * n)], [0], 0.5)


def _fidelity_state(kind, n):
    """An initial state for the fidelity column: GHZ_n (None), the ansatz, a random density matrix, GHZ_n with a
    minus sign, orthogonal to GHZ_n, or a state whose overlap with GHZ_n is one ulp, whose fidelity at p = 0 comes
    out as -1.96e-17: its fidelities are exact zeros, or round-off below zero that the clamp sets to 0.0."""
    if kind in ("ghz", "ansatz", "random"):
        return {"ghz": None, "ansatz": experimental_ansatz(AnsatzParams()), "random": random_density(np.random.default_rng(n), n)}[kind]
    amp = np.zeros(2**n, dtype=complex)
    if kind == "minus":
        amp[0], amp[-1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    else:
        a, b = 0.301, 0.301 + math.ulp(0.301)
        amp[0], amp[-1], amp[1] = a, -b, math.sqrt(1 - a * a - b * b)
    return PureState(n, amp)


class TestFidelityColumn:
    # one stacked product per chunk: matmul calls the gemv of one state's product on each member, so
    # the column has the bits of a fidelity_with_pure call per point and of the scalar formula it replaced
    @pytest.mark.parametrize("noise, grid", [("bitflip", [*np.linspace(0.0, 0.5, 9), 1.0]), ("white", np.linspace(0.0, 1.0, 9))])
    @pytest.mark.parametrize("n, kind", [(n, kind) for n in range(2, 7) for kind in ("ghz", "random", "minus", "below")]
                             + [(4, "ansatz")])
    def test_matches_per_point_fidelities_bitwise(self, n, kind, noise, grid):
        state, reference = _fidelity_state(kind, n), ghz_state(n)
        table = significance_sweep([_z_inequality(n)], noise, grid, initial_state=state)
        state0 = DensityMatrix.from_pure(reference) if state is None else state
        state0 = DensityMatrix.from_pure(state0) if isinstance(state0, PureState) else state0
        raw = []
        for i, p in enumerate(grid):
            m = apply_noise(state0, noise, float(p)).matrix
            raw.append(complex(np.vdot(reference.amplitudes, m @ reference.amplitudes)).real)
            assert bits(table.fidelity[i]) == bits(fidelity_with_pure(m, reference)) == bits(min(max(raw[-1], 0.0), 1.0)), p
        if kind == "minus" and noise == "bitflip":
            assert bits(table.fidelity) == bits(np.zeros(len(grid)))
        if kind == "below":  # clamped to +0.0
            assert raw[0] < 0.0 and bits(table.fidelity[0]) == bits(0.0)

    def test_clamp_keeps_nan_as_the_scalar_formula_does(self):
        # a NaN fidelity is inside no range and outside no range: min(max(nan, 0.0), 1.0) is nan
        nan = np.full((2, 2), np.nan, dtype=complex)
        assert math.isnan(fidelity_with_pure(nan, PureState(1, [1.0, 0.0])))


def _stacker(n, noise, state):
    """The sweep evaluator's ``stack(ps)`` from ``state`` on n qubits."""
    return significance._sweep_evaluator([_z_inequality(n)], noise, [0.0], state, 8000.0)[2]


def _hermitian_part(m):
    return (m + m.conj().T) / 2  # exactly Hermitian: entries ij and ji add the same two numbers


@st.composite
def certified_states(draw):
    """GHZ, a random pure state (its Hermitian part: ``from_pure``'s outer product rounds the two halves
    differently), a real pure state, a random mixed state of random rank on 1-6 qubits, or the ansatz."""
    kind, rng = draw(st.sampled_from(["ghz", "pure", "real", "mixed", "ansatz"])), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 4 if kind == "ansatz" else draw(st.integers(2 if kind == "ghz" else 1, 6))
    if kind in ("ghz", "ansatz"):
        return n, DensityMatrix.from_pure(ghz_state(n)) if kind == "ghz" else experimental_ansatz(AnsatzParams())
    if kind == "pure":
        return n, DensityMatrix(n, _hermitian_part(DensityMatrix.from_pure(random_pure(rng, n)).matrix))
    if kind == "real":
        amp = rng.normal(size=2**n)
        return n, DensityMatrix.from_pure(PureState(n, amp / np.linalg.norm(amp)))
    g = rng.normal(size=(2**n, draw(st.integers(1, 2**n)))) * np.exp(2j * np.pi * rng.random((2**n, 1)))
    m = _hermitian_part(g @ g.conj().T)
    return n, DensityMatrix(n, m / np.trace(m).real)


def _ghz_with(n, *changes):
    """GHZ_n's projector with ``change`` added to entry (i, j) for each ((i, j), change) of ``changes``."""
    m = ghz_state(n).projector()
    for (i, j), change in changes:
        m[i, j] += change
    return DensityMatrix(n, m)


class TestCertifiedStates:
    # a state that is exactly Hermitian, has |tr - 1| <= trace_one/2 and a Cholesky factor of
    # rho + psd_clamp/4 I is certified once per sweep or search: no noisy stack of it can fail or change
    # in _validate_stack (README, "Crossing search", step 1), so the evaluator does not validate its stacks
    EDGES = [0.0, 5e-324, 1e-17, 1 - 1e-16, 1.0]

    @settings(deadline=None, max_examples=200)
    @given(state=certified_states(), noise=st.sampled_from(NOISE_FAMILIES), more=st.lists(st.floats(0, 1), max_size=4))
    def test_validation_passes_noisy_stacks_unchanged(self, state, noise, more):
        (n, rho), checked = state, []
        with mock.patch.object(significance, "_validate_stack", side_effect=checked.append):
            noisy = _stacker(n, noise, rho)(self.EDGES + more)
        assert not checked  # certified
        copy = noisy.copy()
        significance._validate_stack(copy)  # raises nothing
        assert copy.tobytes() == noisy.tobytes()

    @staticmethod
    def _count(monkeypatch, run):
        """(stacks built, stacks validated by the evaluator) in ``run()``."""
        stacks, checked = [], []
        noisy_stack, validate = significance._noisy_stack, significance._validate_stack
        monkeypatch.setattr(significance, "_noisy_stack", lambda m, f, ps: stacks.append(len(ps)) or noisy_stack(m, f, ps))
        monkeypatch.setattr(significance, "_validate_stack", lambda m: checked.append(len(m)) or validate(m))
        run()
        return len(stacks), len(checked)

    @pytest.mark.parametrize("noise, n, state", [
        ("bitflip", 4, None), ("white", 4, None), ("bitflip", 6, None), ("white", 6, None), ("bitflip", 4, "ansatz"),
    ])
    @pytest.mark.parametrize("search", [False, True], ids=["sweep", "crossing"])
    def test_default_runs_validate_no_chunk(self, monkeypatch, noise, n, state, search):
        # the default sweeps and the five paper crossings (F* at p* included)
        initial = experimental_ansatz(AnsatzParams()) if state else None
        pair = (mermin(n), ardehali(n))
        run = (lambda: crossing_point(noise, n, initial_state=initial)) if search else (
            lambda: significance_sweep(pair, noise, np.linspace(*DEFAULT_SPAN[noise], 200), initial_state=initial))
        stacks, checked = self._count(monkeypatch, run)
        assert stacks > 0 and checked == 0

    @pytest.mark.parametrize("state", [
        lambda: _ghz_with(4, ((0, 15), 1e-13)),  # Hermitian to 1e-13, not exactly
        lambda: _ghz_with(4, ((0, 0), 0.75 * DEFAULT.trace_one)),  # |tr - 1| above trace_one/2
        lambda: _ghz_with(4, ((0, 0), 0.45e-13), ((15, 15), 0.45e-13), ((1, 1), -0.9e-13)),  # lambda_min -0.9e-13
        lambda: experimental_ansatz(AnsatzParams(gamma=0.4423236936905418)),  # the factor of rho + psd_clamp/4 I fails
        lambda: experimental_ansatz(AnsatzParams(gamma=0.44232369369059177)),  # the stacks' factor fails too: eigvalsh
        lambda: DensityMatrix.from_pure(random_pure(np.random.default_rng(4), 4)),  # rounded outer product
    ], ids=["hermitian_defect", "trace", "lambda_min", "ansatz_gamma_quarter", "ansatz_gamma_eigvalsh", "complex_pure"])
    @pytest.mark.parametrize("search", [False, True], ids=["sweep", "crossing"])
    def test_states_without_a_certificate_validate_every_chunk(self, monkeypatch, state, search):
        # each stack is validated, the crossing's state at p* included, as before the certificate
        rho, pair = state(), (mermin(4), ardehali(4))

        def run():
            with contextlib.suppress(NoCrossingError):  # the random pure state has none
                if search:
                    crossing_point("bitflip", initial_state=rho)
                else:
                    significance_sweep(pair, "bitflip", np.linspace(0.0, 0.25, 200), initial_state=rho)
        stacks, checked = self._count(monkeypatch, run)
        assert checked == stacks >= (1 if search else 4)  # a default sweep's four chunks


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

    def test_empty_coarse_grid(self):
        with pytest.raises(ValueError, match="empty noise grid"):
            crossing_point("bitflip", 4, coarse=0)

    def test_one_point_coarse_grid_has_no_crossing(self):
        with pytest.raises(NoCrossingError):
            crossing_point("bitflip", 4, coarse=1)

    @pytest.mark.parametrize("coarse", [-1, True, False, np.True_, 2.5, 33.0, "33", None])
    def test_coarse_must_be_a_non_negative_integer(self, coarse):
        with pytest.raises(ValueError, match=r"^coarse must be a non-negative integer, got "):
            crossing_point("bitflip", 4, coarse=coarse)

    def test_numpy_integer_coarse_is_an_integer(self):
        assert crossing_point("bitflip", 4, coarse=np.int64(33)) == crossing_point("bitflip", 4)

    def test_qubit_count_comes_from_the_inequalities(self):
        # n defaults to the inequalities' qubit count, 4 for the default pair
        six = (mermin(6), ardehali(6))
        assert crossing_point("bitflip", ineqs=six) == crossing_point("bitflip", 6)
        assert crossing_point("white") == crossing_point("white", 4)
        with pytest.raises(ValueError, match=r"^n = 4 does not match the inequalities' 6 qubits$"):
            crossing_point("bitflip", 4, ineqs=six)

    @pytest.mark.parametrize("kwargs, message", [
        (lambda: {"ineqs": (mermin(4),)}, r"^ineqs must be two inequalities, got 1$"),
        (lambda: {"ineqs": (mermin(4), ardehali(4), mermin(4))}, r"^ineqs must be two inequalities, got 3$"),
        (lambda: {"span": (0.0, 0.25, 0.3)}, r"^invalid search span \(0\.0, 0\.25, 0\.3\)$"),

    ], ids=["one_inequality", "three_inequalities", "three_span_values"])
    def test_ineqs_and_span_must_be_pairs(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            crossing_point("bitflip", **kwargs())

    @pytest.mark.parametrize("noise, span", [("bitflip", "0, 0.25"), ("white", "0, 0.9")])
    def test_identical_pair_has_no_crossing(self, noise, span):
        # one inequality twice ties everywhere, as in the all-exact search; the
        # shared tag is no error, since no table of a crossing is keyed by it
        message = rf"^significance difference does not change sign on \[{span}\] for {noise} noise$"
        with pytest.raises(NoCrossingError, match=message):
            crossing_point(noise, ineqs=(mermin(4), mermin(4)))
        with pytest.raises(ValueError, match=r"^inequality tags must be distinct within one sweep$"):
            significance_sweep([mermin(4), mermin(4)], noise, [0.0])

    @pytest.mark.parametrize("noise, n, state, exact_states", [
        ("bitflip", 4, None, 30),
        ("white", 4, None, 32),
        ("bitflip", 6, None, 34),
        ("white", 6, None, 39),
        ("bitflip", 4, "ansatz", 30),
    ])
    def test_states_built_per_search(self, monkeypatch, noise, n, state, exact_states):
        # an all-exact search builds 30-39 states: its coarse scan up to the
        # chunk that completes the first sign change, every bisection step and
        # the state at p*.  With signs from the certified model, a search builds
        # the k = n + 1 (or 2) interpolation nodes and the state at p*: at most
        # n + 2.  For GHZ at p = 0, where Mermin's error is exactly 0 and S = inf,
        # the exact fallback takes the rows of the node there.  The nodes come
        # first, in chunks of a sweep (2**14 state entries: all k at 4 qubits,
        # 4 and 3 at 6); no later call builds more than a scan chunk (2**12
        # state entries), and the search builds one contraction plan.
        initial = experimental_ansatz(AnsatzParams()) if state else None
        built, plans = [], []
        noisy_stack, contraction_plan = significance._noisy_stack, significance._contraction_plan
        monkeypatch.setattr(significance, "_noisy_stack", lambda m, f, ps: built.append(len(ps)) or noisy_stack(m, f, ps))
        monkeypatch.setattr(significance, "_contraction_plan", lambda s: plans.append(1) or contraction_plan(s))
        expected = exact_crossing(noise, n, initial, 8000.0, None, (mermin(n), ardehali(n)))
        assert sum(built) == exact_states
        built.clear()
        plans.clear()
        result = crossing_point(noise, n, initial_state=initial)
        assert (result.p_star, result.fidelity_star) == expected
        assert sum(built) == (n + 1 if noise == "bitflip" else 2) + 1 <= n + 2
        nodes = node_chunks(noise, n)
        assert built[:len(nodes)] == nodes and max(nodes) <= max(1, 2**14 // 4**n)
        assert max(built[len(nodes):]) <= max(1, 2**12 // 4**n)
        assert len(plans) == 1

    @pytest.mark.parametrize("noise, n, state, tree_passes", [
        ("bitflip", 4, None, 7),
        ("white", 4, None, 7),
        ("bitflip", 6, None, 10),
        ("white", 6, None, 11),
        ("bitflip", 4, "ansatz", 6),
    ])
    def test_estimate_passes_per_search(self, monkeypatch, noise, n, state, tree_passes):
        # the moment model runs once on the whole coarse grid and once on each
        # bisection path predicted from the bracket's gaps, up to the first
        # midpoint that turns away from it; each exact estimate pass for
        # uncertified points is one more pass.  One model point per pass took
        # 15/17/34/39/14, the 7 midpoints of three levels per call took
        # tree_passes, and model probability rows in scan chunks of 2**15 table
        # entries (5 points at 6 qubits) with paths of at most 7 points there
        # took chunk_passes.  At 4 qubits those chunks and paths already held
        # the whole grid and path.
        chunk_passes = {("bitflip", 4, None): 4, ("white", 4, None): 4, ("bitflip", 6, None): 7,
                        ("white", 6, None): 9, ("bitflip", 4, "ansatz"): 3}[noise, n, state]
        moment_passes = {("bitflip", 4, None): 4, ("white", 4, None): 4, ("bitflip", 6, None): 4,
                         ("white", 6, None): 4, ("bitflip", 4, "ansatz"): 3}[noise, n, state]
        initial = experimental_ansatz(AnsatzParams()) if state else None
        states, models, tables = [], [], []
        noisy_stack, model, estimates = significance._noisy_stack, significance._moment_model, significance.setting_estimates
        monkeypatch.setattr(significance, "_noisy_stack", lambda m, f, ps: states.append(len(ps)) or noisy_stack(m, f, ps))
        monkeypatch.setattr(significance, "_moment_model", lambda ps, *a: models.append(len(ps)) or model(ps, *a))
        monkeypatch.setattr(significance, "setting_estimates", lambda c, *a: tables.append(c.shape) or estimates(c, *a))
        crossing_point(noise, n, initial_state=initial)
        assert len(models) + len(tables) == moment_passes <= chunk_passes < tree_passes
        assert models[0] == 33 > max(models[1:])  # one scan call, on the whole grid; the rest are paths
        # the nodes in sweep chunks, then every other state (the one at p*) in a scan chunk at most
        nodes = node_chunks(noise, n)
        assert states[:len(nodes)] == nodes and max(nodes) * 4**n <= significance._SWEEP_ENTRIES
        assert max(states[len(nodes):]) * 4**n <= significance._SCAN_ENTRIES

    def test_kernel_and_noise_map_calls_per_paper_round(self, monkeypatch):
        # the five paper crossings of the crossing benchmark: each search reads its
        # k nodes in sweep chunks, one kernel call but for the seven 6-qubit
        # bit-flip nodes (4 and 3 states), and its model certifies every other
        # point it reads (p = 0 for GHZ takes its node's rows); one more noise map
        # builds the state at p*
        kernel, maps = [], []
        rows, noisy_stack = significance._probability_rows, significance._noisy_stack
        monkeypatch.setattr(significance, "_probability_rows", lambda m, plan: kernel[-1].append(len(m)) or rows(m, plan))
        monkeypatch.setattr(significance, "_noisy_stack", lambda m, f, ps: maps[-1].append(len(ps)) or noisy_stack(m, f, ps))
        for noise, n, state in [("bitflip", 4, None), ("white", 4, None), ("bitflip", 6, None), ("white", 6, None),
                                ("bitflip", 4, "ansatz")]:
            kernel.append([])
            maps.append([])
            crossing_point(noise, n, initial_state=experimental_ansatz(AnsatzParams()) if state else None)
        assert kernel == [[5], [2], [4, 3], [2], [5]] and sum(map(len, kernel)) == 6
        assert maps == [[5, 1], [2, 1], [4, 3, 1], [2, 1], [5, 1]] and sum(map(len, maps)) == 11

    @pytest.mark.parametrize("noise, n, state, states_built, passes", [
        ("bitflip", 4, None, 34, 14),
        ("white", 4, None, 33, 16),
        ("bitflip", 6, None, 40, 33),
        ("white", 6, None, 40, 38),
        ("bitflip", 4, "ansatz", 34, 14),
    ])
    def test_reads_ahead_when_the_model_certifies_nothing(self, monkeypatch, noise, n, state, states_built, passes):
        # with infinite rounding bounds every sign is read exactly: the scan reads
        # its uncertified points a chunk at a time up to the chunk that completes
        # the first sign change, and each bisection midpoint takes one pass; the
        # states are the nodes, those chunks, the midpoints and the state at p*
        initial = experimental_ansatz(AnsatzParams()) if state else None
        monkeypatch.setattr(significance, "_gamma", lambda m: math.inf)
        expected = exact_crossing(noise, n, initial, 8000.0, None, (mermin(n), ardehali(n)))
        states, models, tables = [], [], []
        noisy_stack, model, estimates = significance._noisy_stack, significance._moment_model, significance.setting_estimates
        monkeypatch.setattr(significance, "_noisy_stack", lambda m, f, ps: states.append(len(ps)) or noisy_stack(m, f, ps))
        monkeypatch.setattr(significance, "_moment_model", lambda ps, *a: models.append(len(ps)) or model(ps, *a))
        monkeypatch.setattr(significance, "setting_estimates", lambda c, *a: tables.append(c.shape) or estimates(c, *a))
        result = crossing_point(noise, n, initial_state=initial)
        assert (result.p_star.hex(), result.fidelity_star.hex()) == tuple(x.hex() for x in expected)
        assert (sum(states), len(tables), len(models)) == (states_built, passes, 3)

    # points at and next to three paper crossings (p = 0 of a GHZ span has S_M = inf),
    # and a mixed state on the whole range at 1e7 shots
    @example(n=4, noise="bitflip", kind="ghz", weight=1.0, span=None, shots=8000.0, at=[0.0, 0.34, 0.345, 1.0])
    @example(n=6, noise="white", kind="ghz", weight=1.0, span=None, shots=8000.0, at=[0.0, 0.66, 0.664, 1.0])
    @example(n=4, noise="bitflip", kind="ansatz", weight=1.0, span=None, shots=8000.0, at=[0.12, 0.125])
    @example(n=6, noise="bitflip", kind="mixed", weight=0.9, span=(0.0, 1.0), shots=1e7, at=[0.1, 0.5, 0.9])
    @settings(deadline=None, max_examples=30)
    @given(
        n=st.sampled_from([4, 6]),
        noise=st.sampled_from(NOISE_FAMILIES),
        kind=st.sampled_from(["ghz", "ansatz", "mixed"]),
        weight=st.floats(0, 1),
        span=st.none() | st.tuples(st.floats(0, 1), st.floats(0, 1)).map(sorted).filter(lambda s: s[0] < s[1]).map(tuple),
        shots=st.floats(1, 7).map(lambda x: 10.0**x),
        at=st.lists(st.floats(0, 1), min_size=1, max_size=8),
    )
    def test_model_bound_holds_where_certified(self, n, noise, kind, weight, span, shots, at):
        # wherever the moment model certifies a point, |S_model - S_exact| of each
        # inequality is at most its bound, with S_exact from the exact rows and
        # estimate pass; the search constants are those of the search's scan call
        assume(kind != "ansatz" or n == 4)
        if kind == "ansatz":
            state = experimental_ansatz(AnsatzParams())
        else:
            mixed = random_density(np.random.default_rng(n), n).matrix
            state = DensityMatrix(n, weight * ghz_state(n).projector() + (1 - weight) * mixed if kind == "mixed" else ghz_state(n).projector())
        ineqs = (mermin(n), ardehali(n))
        with mock.patch.object(significance, "_moment_model", wraps=significance._moment_model) as model:
            with contextlib.suppress(NoCrossingError):
                crossing_point(noise, n, state, shots, ineqs, span)
        lo, hi = span or DEFAULT_SPAN[noise]
        ps = np.minimum(lo + (hi - lo) * np.array(at), hi)
        search = model.call_args_list[0].args[1:]
        s, bound, unsure = significance._moment_model(ps, *search)
        _, _, _, rows, table = significance._sweep_evaluator(ineqs, noise, ps, state, shots)
        exact = table(rows(ps.tolist())[1])[:, 2]
        assert np.all(np.abs(s[:, ~unsure] - exact[:, ~unsure]) <= bound[:, ~unsure])
        if span is None and kind == "ghz":  # the paper searches certify every scan point but p = 0
            assert not significance._moment_model(np.linspace(lo, hi, 33)[1:], *search)[2].any()

    # the five paper crossings, and GHZ spans from 0, where S_M = inf at p = 0
    @example(n=4, noise="bitflip", kind="ghz", weight=1.0, span=None, shots=8000.0, coarse=33)
    @example(n=4, noise="white", kind="ghz", weight=1.0, span=None, shots=8000.0, coarse=33)
    @example(n=6, noise="bitflip", kind="ghz", weight=1.0, span=None, shots=8000.0, coarse=33)
    @example(n=6, noise="white", kind="ghz", weight=1.0, span=None, shots=8000.0, coarse=33)
    @example(n=4, noise="bitflip", kind="ansatz", weight=1.0, span=None, shots=8000.0, coarse=33)
    @example(n=4, noise="bitflip", kind="ghz", weight=1.0, span=(0.0, 0.0872), shots=800.0, coarse=33)
    @example(n=5, noise="white", kind="ghz", weight=1.0, span=(0.0, 1.0), shots=1e7, coarse=33)
    # crossings in the first grid interval of a GHZ span from 0: the bracket's
    # end at p = 0 has S_M = inf, an infinite gap, so no secant predicts the path
    @example(n=4, noise="bitflip", kind="ghz", weight=1.0, span=(0.0, 0.25), shots=8000.0, coarse=3)
    @example(n=6, noise="white", kind="ghz", weight=1.0, span=None, shots=8000.0, coarse=2)
    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(3, 6),
        noise=st.sampled_from(NOISE_FAMILIES),
        kind=st.sampled_from(["ghz", "ansatz", "mixed"]),
        weight=st.floats(0, 1),
        span=st.none() | st.tuples(st.floats(0, 1), st.floats(0, 1)).map(sorted).filter(lambda s: s[0] < s[1]).map(tuple),
        shots=st.floats(1, 7).map(lambda x: 10.0**x),
        coarse=st.integers(2, 65),
    )
    def test_matches_exact_search(self, n, noise, kind, weight, span, shots, coarse):
        # every sign the model certifies is the exact sign, so p*, F* and the
        # NoCrossingError text are the all-exact search's, bit for bit
        assume(kind != "ansatz" or n == 4)
        if kind == "ansatz":
            state = experimental_ansatz(AnsatzParams())
        else:
            mixed = random_density(np.random.default_rng(n), n).matrix
            state = DensityMatrix(n, weight * ghz_state(n).projector() + (1 - weight) * mixed if kind == "mixed" else ghz_state(n).projector())
        ineqs = parity_pair(n)

        def outcome(search):
            try:
                return search()
            except NoCrossingError as exc:
                return str(exc)

        expected = outcome(lambda: exact_crossing(noise, n, state, shots, span, ineqs, coarse))
        result = outcome(lambda: crossing_point(noise, n, state, shots, ineqs, span, coarse))
        if isinstance(result, str):
            assert result == expected
        else:
            assert (result.p_star.hex(), result.fidelity_star.hex()) == tuple(x.hex() for x in expected)

    @pytest.mark.parametrize("noise, n", [("bitflip", 4), ("white", 4), ("bitflip", 6)])
    def test_ties_inside_the_bracket_match_exact_search(self, monkeypatch, noise, n):
        # the parity pair ties exactly only at q = 1, the span's end, so here
        # S_second takes S_first's value wherever they are within 5 %, and the
        # model certifies nothing (its rounding bounds are infinite): the scan's
        # bracket spans tied grid points, tied midpoints (sign 0) move a, and
        # the gap at a tied end is 0, so the path is predicted from a gap of 0.
        # ``ties`` counts the tied one-point passes, the bisection's midpoints.
        evaluator, ties = significance._sweep_evaluator, []

        def tied(*args):
            state0, grid, stack, rows, table = evaluator(*args)

            def table_with_ties(probs):
                out = table(probs)
                tie = np.abs(out[0, 2] - out[1, 2]) < 0.05 * np.abs(out[0, 2])
                out[1, 2, tie] = out[0, 2, tie]
                ties.append(tie.sum() if tie.size == 1 else 0)
                return out
            return state0, grid, stack, rows, table_with_ties

        monkeypatch.setattr(significance, "_sweep_evaluator", tied)
        monkeypatch.setattr(significance, "_gamma", lambda m: math.inf)
        expected = exact_crossing(noise, n, None, 8000.0, None, (mermin(n), ardehali(n)))
        assert sum(ties) > 0  # the exact search meets tied midpoints
        ties.clear()
        result = crossing_point(noise, n)
        assert sum(ties) > 0
        assert (result.p_star.hex(), result.fidelity_star.hex()) == tuple(x.hex() for x in expected)


def parity_pair(n):
    """Mermin and Ardehali on n qubits: the library's at 4 and 6, the same
    terms (with brute-forced bounds) at 3 and 5."""
    if n in (4, 6):
        return mermin(n), ardehali(n)
    y = [bin(mask).count("1") for mask in range(2**n)]
    m_terms = [(np.binary_repr(mask, n).translate(_XY), _even_y_coefficient(y[mask])) for mask in range(2**n) if y[mask] % 2 == 0]
    a_terms = []
    for mask in range(2 ** (n - 1)):
        labels, c = np.binary_repr(mask, n - 1).translate(_XY), _even_y_coefficient(y[mask]) / SQRT2
        a_terms += [(labels + "A", -c if y[mask] % 2 else c), (labels + "B", c)]
    pair = _parity_inequality(f"mermin{n}", "M", n, m_terms, 0.0), _parity_inequality(f"ardehali{n}", "A", n, a_terms, 0.0)
    return tuple(dataclasses.replace(q, lhv_bound=lhv_bound_bruteforce(q)) for q in pair)


def node_chunks(noise, n):
    """The stack sizes in which a search reads its k = degree + 1 interpolation nodes:
    chunks of a sweep's ``_SWEEP_ENTRIES`` state entries, the last one shorter."""
    k, size = (n + 1 if noise == "bitflip" else 2), max(1, significance._SWEEP_ENTRIES // 4**n)
    return [min(size, k - i) for i in range(0, k, size)]


def exact_crossing(noise, n, state, shots, span, ineqs, coarse=33):
    """Reference: ``crossing_point``'s coarse scan and bisection with every sign
    evaluated exactly by one ``_sweep_evaluator`` chunk, as the search ran before
    its sign model.  Returns (p*, F*)."""
    lo, hi = span or DEFAULT_SPAN[noise]
    state = significance._as_initial_state(state, n)
    _, grid, _, rows, table = significance._sweep_evaluator(ineqs, noise, np.linspace(lo, hi, coarse), state, shots)
    step = max(1, significance._SCAN_ENTRIES // 4**n)

    def signs_at(ps):
        s0, s1 = table(rows(ps)[1])[:, 2]
        return [int(a > b) - int(a < b) for a, b in zip(s0, s1)]

    signs, flips = [], []
    for start in range(0, grid.size, step):
        signs += signs_at(grid[start:start + step].tolist())
        nonzero = [i for i, sign in enumerate(signs) if sign]
        flips = [(i, j) for i, j in zip(nonzero, nonzero[1:]) if signs[i] != signs[j]]
        if flips:
            break
    else:
        raise NoCrossingError(f"significance difference does not change sign on [{lo:g}, {hi:g}] for {noise} noise")
    (i, j), = flips[:1]
    a, b = float(grid[i]), float(grid[j])
    while b - a > DEFAULT.bisection:
        mid = 0.5 * (a + b)
        if signs_at([mid])[0] in (signs[i], 0):
            a = mid
        else:
            b = mid
    p_star = 0.5 * (a + b)
    return p_star, fidelity_with_pure(apply_noise(state, noise, p_star), ghz_state(n))


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

    def test_repeated_label_rejected(self):
        data = {"inequality": "x", "settings": [{"label": "Z", "counts": [1, 2]},
                                                {"label": "Z", "counts": [3, 0]}]}
        with pytest.raises(ValueError, match="'Z' twice"):
            CountTable.from_json_dict(data)

    @settings(deadline=None)
    @given(table=count_tables())
    def test_json_round_trip_is_lossless(self, table):
        rebuilt = CountTable.from_json_dict(json.loads(json.dumps(table.to_json_dict())))
        assert (rebuilt.inequality, rebuilt.mode) == (table.inequality, table.mode)
        assert list(rebuilt.counts) == list(table.counts)
        for label, vec in table.counts.items():
            assert rebuilt.counts[label].dtype == vec.dtype
            assert rebuilt.counts[label].tobytes() == vec.tobytes()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountTable("x", {"Z": [-1, 2]})

    def test_count_past_the_float_range_is_malformed(self):
        data = {"inequality": "x", "settings": [{"label": "Z", "counts": [10**400, 2]}]}
        with pytest.raises(ValueError, match="malformed count table: int too large to convert to float"):
            CountTable.from_json_dict(data)

    @pytest.mark.parametrize("count", [2**63, 10**19])
    def test_sampled_count_past_int64_is_refused(self, count):
        # the int64 cast would wrap it to a negative count
        with pytest.raises(ValueError, match=r"sampled counts must be below 2\*\*63 in setting 'Z'"):
            CountTable("x", {"Z": [count, 2]})

    def test_largest_float_below_2_63_is_kept(self):
        count = 2**63 - 1024  # the largest float below 2**63
        assert CountTable("x", {"Z": [count, 2]}).for_setting("Z")[0] == count

    @pytest.mark.parametrize("count", [2**53 + 1, 2**63 - 1])
    def test_integer_counts_are_exact(self, count):
        # integers are kept as given, not read through float64 (2**53 + 1 was 2**53)
        table = CountTable("x", {"Z": [count, 0]})
        assert table.for_setting("Z")[0] == count
        data = json.loads(json.dumps(table.to_json_dict()))
        assert data["settings"][0]["counts"][0] == count
        del data["mode"]  # inferred from the counts
        assert CountTable.from_json_dict(data).for_setting("Z")[0] == count

    @pytest.mark.parametrize("counts, bad", [
        ('["1", true]', "'1'"), ("[1, true]", "True"), ("[false, 0]", "False"), ('[2, "3.5"]', "'3.5'"),
    ])
    @pytest.mark.parametrize("mode", [None, "sampled", "predicted"])
    def test_strings_and_booleans_are_not_counts(self, counts, bad, mode):
        # float() reads numeric strings and booleans: ["1", true] was the sampled counts [1, 1]
        data = {"inequality": "x", "settings": [{"label": "Z", "counts": json.loads(counts)}]}
        if mode:
            data["mode"] = mode
        message = rf"^count {re.escape(bad)} in setting 'Z' is not a number$"
        with pytest.raises(ValueError, match=message):
            CountTable.from_json_dict(data)
        with pytest.raises(ValueError, match=message):
            CountTable("x", {"Z": json.loads(counts)}, mode or "sampled")

    def test_total_sums_in_floats(self):
        table = CountTable("x", {"Z": [4 * 10**18] * 3, "X": [2**62, 2**62]})
        assert table.total() == 12e18 + 2.0**63


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

    def test_trials_must_be_whole_number(self, rho_ghz4, mermin4):
        budget = ShotBudget.equal_split(8000, mermin4)
        with pytest.raises(ValueError, match="trials must be a whole number"):
            monte_carlo_study(rho_ghz4, mermin4, budget, trials=150.0)
        summary = monte_carlo_study(rho_ghz4, mermin4, budget, trials=np.int64(150), seed=3)
        assert summary == monte_carlo_study(rho_ghz4, mermin4, budget, trials=150, seed=3)

    def test_refusal_names_the_setting(self, mermin4, rho_ghz4):
        # as evaluate and the sweep do: 'XXYY', not "row 1"; the second study's labels name it
        data = inequality_to_json_dict(mermin4)
        for entry in data["settings"]:
            entry["coefficients"] = [c * 3e307 for c in entry["coefficients"]]
        big = inequality_from_json_dict({**data, "name": "big"})
        noisy = apply_noise(rho_ghz4, "bitflip", 0.1)
        message = re.escape("setting 'XXYY' has no finite estimate: mean nan, error nan")
        with pytest.raises(ValueError, match=message):
            monte_carlo_study(noisy, big, ShotBudget.equal_split(8000, big), 100)
        studies = [(q, ShotBudget.equal_split(8000, q)) for q in (mermin4, big)]
        with pytest.raises(ValueError, match=message):
            _monte_carlo_studies(noisy, studies, 100, 0)

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

    @pytest.mark.parametrize("p, factory", [(0.15, mermin), (0.05, ardehali)])
    def test_matches_per_trial_evaluate(self, rho_ghz4, p, factory):
        # bit-flip 0.15 with Mermin has outcomes of exactly zero mean, which
        # must draw nothing; the reference is the per-trial CountTable path
        ineq = factory(4)
        noisy = apply_noise(rho_ghz4, "bitflip", p)
        budget = ShotBudget.equal_split(8000, ineq)
        trials, seed = 200, 4
        v_pred = evaluate(predicted_counts(noisy, ineq, budget), ineq).violation
        reps = [
            evaluate(sample_counts(noisy, ineq, budget, np.random.SeedSequence(entropy=seed, spawn_key=(i,))), ineq)
            for i in range(trials)
        ]
        v = np.array([r.violation for r in reps])
        e = np.array([r.error for r in reps])
        v_std, e_mean = float(np.std(v, ddof=1)), float(np.mean(e))
        reference = MonteCarloSummary(
            trials, v_pred, float(np.mean(v)), v_std, e_mean, v_std / e_mean,
            float(np.mean(np.abs(v - v_pred) <= e)),
        )
        assert monte_carlo_study(noisy, ineq, budget, trials, seed=seed) == reference

    @pytest.mark.parametrize("n, factory, p, trials", [
        (4, mermin, 0.15, 137),
        (4, ardehali, 0.05, 137),
        (6, mermin, 0.05, 100),
    ])
    def test_blocks_match_per_trial_evaluate(self, monkeypatch, n, factory, p, trials):
        # a budget of 2**12 counts gives blocks of 32 (Mermin) and 16 (Ardehali)
        # trials, the last of them partial at 137 trials; at 6 qubits a block holds 2
        monkeypatch.setattr(significance, "_BLOCK_COUNTS", 2**12)
        ineq = factory(n)
        assert 1 < significance._BLOCK_COUNTS // (ineq.n_settings * 2**n) < trials
        noisy = apply_noise(DensityMatrix.from_pure(ghz_state(n)), "bitflip", p)
        budget = ShotBudget.equal_split(8000, ineq)
        seed = 11
        reps = [
            evaluate(sample_counts(noisy, ineq, budget, np.random.SeedSequence(entropy=seed, spawn_key=(i,))), ineq)
            for i in range(trials)
        ]
        v = np.array([r.violation for r in reps])
        e = np.array([r.error for r in reps])
        v_pred = evaluate(predicted_counts(noisy, ineq, budget), ineq).violation
        v_std, e_mean = float(np.std(v, ddof=1)), float(np.mean(e))
        reference = MonteCarloSummary(
            trials, v_pred, float(np.mean(v)), v_std, e_mean, v_std / e_mean,
            float(np.mean(np.abs(v - v_pred) <= e)),
        )
        assert monte_carlo_study(noisy, ineq, budget, trials, seed=seed) == reference

    @pytest.mark.parametrize("n, trials, seed", [(4, 100, 0), (4, 100, 3), (4, 137, 0), (4, 137, 3), (6, 101, 5)])
    def test_joint_studies_match_separate_studies(self, n, trials, seed):
        # one generator per trial for both studies; each still draws from its fresh state
        noisy = apply_noise(DensityMatrix.from_pure(ghz_state(n)), "bitflip", 0.05)
        studies = [(q, ShotBudget.equal_split(8000, q)) for q in (mermin(n), ardehali(n))]
        joint = _monte_carlo_studies(noisy, studies, trials, seed)
        assert joint == [monte_carlo_study(noisy, q, b, trials, seed=seed) for q, b in studies]

    @pytest.mark.parametrize("n, factories, trials, seed", [
        pytest.param(4, (mermin, ardehali), 300, 0, id="pair4-seed0"),
        pytest.param(4, (mermin, ardehali), 300, 104729, id="pair4-seed104729"),
        pytest.param(6, (ardehali,), 101, 0, id="ardehali6"),  # 101: the least trials a study takes, plus one
    ])
    def test_block_budget_does_not_change_summaries(self, monkeypatch, n, factories, trials, seed):
        # one trial per block, then the default 2**15 counts: every field bitwise equal
        noisy = apply_noise(DensityMatrix.from_pure(ghz_state(n)), "bitflip", 0.05)
        studies = [(f(n), ShotBudget.equal_split(8000, f(n))) for f in factories]
        monkeypatch.setattr(significance, "_BLOCK_COUNTS", max(q.outcome_coeffs.size for q, _ in studies))
        single = _monte_carlo_studies(noisy, studies, trials, seed)
        monkeypatch.setattr(significance, "_BLOCK_COUNTS", 2**15)
        blocked = _monte_carlo_studies(noisy, studies, trials, seed)
        assert [bits(dataclasses.astuple(s)) for s in blocked] == [bits(dataclasses.astuple(s)) for s in single]

    @pytest.mark.parametrize("n, factories, trials, block", [
        pytest.param(4, (mermin, ardehali), 300, 128, id="pair4"),
        pytest.param(4, (mermin,), 300, 256, id="mermin4"),
        pytest.param(6, (mermin, ardehali), 100, 8, id="pair6"),
    ])
    def test_blocks_hold_at_most_the_count_budget(self, monkeypatch, n, factories, trials, block):
        shapes = []
        estimates = setting_estimates
        monkeypatch.setattr(significance, "setting_estimates", lambda c, *a: shapes.append(c.shape) or estimates(c, *a))
        noisy = apply_noise(DensityMatrix.from_pure(ghz_state(n)), "bitflip", 0.05)
        _monte_carlo_studies(noisy, [(f(n), ShotBudget.equal_split(8000, f(n))) for f in factories], trials, 0)
        stacks = [shape for shape in shapes if len(shape) == 3]
        assert max(shape[0] for shape in stacks) == block
        assert max(math.prod(shape) for shape in stacks) <= 2**15

    def test_too_large_mean_refused_before_the_predicted_violation(self, rho_ghz4, mermin4):
        budget = ShotBudget.equal_split(1e200, mermin4)
        with pytest.raises(ValueError, match="in setting 'XXXX' is too large to sample"):
            monte_carlo_study(rho_ghz4, mermin4, budget, trials=100)


class TestZeroErrorIsExact:
    # S is inf only for an error of exactly 0.0; a tiny nonzero error at a
    # huge shot count gives the finite V/E it stands for
    def test_tiny_error_in_a_table_gives_finite_significance(self, rho_ghz4, mermin4):
        rho = apply_noise(rho_ghz4, "bitflip", 0.1)
        rep = evaluate(predicted_counts(rho, mermin4, ShotBudget.equal_split(1e26, mermin4)), mermin4)
        assert 0.0 < rep.error <= 1e-12
        assert rep.significance == rep.violation / rep.error and not rep.degenerate

    def test_tiny_error_in_a_sweep_gives_finite_significance(self, mermin4, ardehali4):
        table = significance_sweep((mermin4, ardehali4), "bitflip", [0.1, 0.2], total_copies=1e26)
        for tag in "MA":
            v, e, s = (table.values[tag][k] for k in "VES")
            assert np.all(e > 0.0) and e[0] <= 1e-12
            assert bits(s) == bits([vi / ei for vi, ei in zip(v.tolist(), e.tolist())])

    def test_exact_zero_keeps_the_convention(self, rho_ghz4, mermin4):
        # the support rule's exact zeros: inf for V > 0, else 0 flagged degenerate
        s, degenerate = significance._significance_of(np.array([2.0, 0.0, -1.0, 3.0]), np.array([0.0, 0.0, 0.0, 1e-300]))
        assert s.tolist() == [math.inf, 0.0, 0.0, 3e300] and degenerate.tolist() == [False, True, True, False]
        rep = evaluate(predicted_counts(rho_ghz4, mermin4, ShotBudget.equal_split(1e26, mermin4)), mermin4)
        assert rep.error == 0.0 and rep.infinite

    def test_copies_do_not_decide_infinity_in_the_variance_model(self, ghz4, witness4):
        psi = PureState(4, np.r_[0.8, np.zeros(14), 0.6])
        rep = variance_model_significance(psi, witness4, copies=1e30)
        assert 0.0 < rep.error < 1e-12
        assert rep.significance == rep.violation / rep.error and math.isfinite(rep.significance)
        for copies in (None, 1e-30, 1.0, 1e30):
            rep = variance_model_significance(ghz4, witness4, copies=copies)
            assert rep.error == 0.0 and rep.infinite


class TestEstimateRange:
    # coefficients whose estimates overflow are refused by name, with no
    # warning; a row whose support shares one coefficient keeps its exact zero
    def test_overflowing_error_is_named(self):
        counts, coeffs = [[3.0, 1.0], [2.0, 2.0]], [[1.0, -1.0], [1e200, -1e200]]
        with pytest.raises(ValueError, match=re.escape("setting row 1 has no finite estimate: mean 0.0, error inf")):
            setting_estimates(counts, coeffs)
        with pytest.raises(ValueError, match=re.escape("setting 'XY' has no finite estimate")):
            setting_estimates(counts, coeffs, ["XX", "XY"])

    def test_overflowing_mean_is_named(self):
        with pytest.raises(ValueError, match=re.escape("setting row 0 has no finite estimate: mean inf")):
            setting_estimates([[1e10, 1e10]], [[1e300, 1e300 * (1 - 2**-50)]])

    def test_flat_row_with_huge_coefficients_keeps_its_zero(self):
        means, errors, _ = setting_estimates([[5.0, 0.0]], [[1e200, -1e200]])
        assert means.tolist() == [1e200] and errors.tolist() == [0.0]
