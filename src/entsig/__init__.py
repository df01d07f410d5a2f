"""entsig: statistical significance of multi-qubit entanglement tests.

Violation alone does not rank entanglement tests; the statistical error of
the counting experiment matters just as much.  This package builds the
relevant Bell inequalities and witnesses, propagates Poissonian counting
errors per measurement setting, locates significance crossovers under noise,
and constructs witness improvements that drive the variance-model error to
zero on a detected pure state.
"""

import types

from .channels import (
    AnsatzParams,
    SingleQubitChannel,
    apply_local,
    apply_to_all,
    bit_flip_channel,
    experimental_ansatz,
    white_noise,
)
from .core import (
    DensityMatrix,
    PureState,
    SingleQubitObservable,
    expectation,
    fidelity_with_pure,
    ghz_state,
    hermitian_eig,
    kron_all,
    pauli,
    tensor,
    variance,
)
from .improve import (
    ImprovementResult,
    exact_improvement,
    optimal_orthogonal_direction,
    perturbative_step,
    q_operator,
    separable_safety_check,
)
from .inequalities import (
    BellInequality,
    MeasurementSetting,
    ProductObservable,
    Witness,
    ardehali,
    generic_inequality,
    ghz_fidelity_formula,
    inequality_from_json_dict,
    inequality_to_json_dict,
    lhv_bound_bruteforce,
    mermin,
    outcome_probabilities,
    projector_witness,
    standard_observable,
    violation,
    witness_violation,
)
from .significance import (
    CountTable,
    CrossingResult,
    MonteCarloSummary,
    NoCrossingError,
    SettingEstimate,
    ShotBudget,
    SignificanceReport,
    SweepTable,
    apply_noise,
    crossing_point,
    evaluate,
    monte_carlo_study,
    predicted_counts,
    sample_counts,
    setting_estimate,
    significance_sweep,
    variance_model_significance,
)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

# a name imported here without a leading underscore is public
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
