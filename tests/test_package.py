import dataclasses
import inspect
import io
import runpy
import shutil
import tokenize
from pathlib import Path

import pytest

import entsig

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
SOURCES = sorted(Path(entsig.__file__).parent.glob("*.py"))

# the public names, in order; adding, removing or reordering one is a contract change
PUBLIC_NAMES = [
    "AnsatzParams",
    "BellInequality",
    "CountTable",
    "CrossingResult",
    "DEFAULT",
    "DensityMatrix",
    "ImprovementResult",
    "MeasurementSetting",
    "MonteCarloSummary",
    "NoCrossingError",
    "ProductObservable",
    "PureState",
    "SettingEstimate",
    "ShotBudget",
    "SignificanceReport",
    "SingleQubitChannel",
    "SingleQubitObservable",
    "SweepTable",
    "Tolerances",
    "Witness",
    "apply_local",
    "apply_noise",
    "apply_to_all",
    "ardehali",
    "bit_flip_channel",
    "crossing_point",
    "evaluate",
    "exact_improvement",
    "expectation",
    "experimental_ansatz",
    "fidelity_with_pure",
    "generic_inequality",
    "ghz_fidelity_formula",
    "ghz_state",
    "hermitian_eig",
    "inequality_from_json_dict",
    "inequality_to_json_dict",
    "kron_all",
    "lhv_bound_bruteforce",
    "mermin",
    "monte_carlo_study",
    "optimal_orthogonal_direction",
    "outcome_probabilities",
    "pauli",
    "perturbative_step",
    "predicted_counts",
    "projector_witness",
    "q_operator",
    "sample_counts",
    "separable_safety_check",
    "setting_estimate",
    "significance_sweep",
    "standard_observable",
    "tensor",
    "variance",
    "variance_model_significance",
    "violation",
    "white_noise",
    "witness_violation",
]


def test_public_names_are_pinned():
    assert list(entsig.__all__) == PUBLIC_NAMES


def test_thresholds_have_no_per_call_override():
    # every check reads tolerances.DEFAULT; no public callable or method takes a `tol`
    for name in entsig.__all__:
        value = getattr(entsig, name)
        if isinstance(value, type):
            calls = [m for _, m in inspect.getmembers(value) if inspect.isfunction(m) or inspect.ismethod(m)]
        else:
            calls = [value] if callable(value) else []
        for f in calls:
            assert "tol" not in inspect.signature(f).parameters, f"{name}.{f.__name__}"
    assert "tol" not in {f.name for f in dataclasses.fields(entsig.DensityMatrix)}


def test_thresholds_are_named_in_tolerances():
    # a threshold is a field of tolerances.DEFAULT: no float literal in
    # scientific notation anywhere else in the package
    assert len(SOURCES) > 1
    literals = [
        f"{path.name}:{tok.start[0]}: {tok.string}"
        for path in SOURCES if path.name != "tolerances.py"
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NUMBER and "e" in tok.string.lower() and not tok.string.lower().startswith("0x")
    ]
    assert literals == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the demos call the public API outside the tests; a copy keeps the files they write in tmp_path
    runpy.run_path(shutil.copy(demo, tmp_path), run_name="__main__")
