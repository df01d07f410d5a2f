"""Refusals of the public constructors and functions: exception type and message.

Each case is a call on invalid input, the exception it raises and its full
message; the messages are the ones these refusals have always given.  The last
two tests take a ``PureState`` where a ``DensityMatrix`` is usual.
"""

import math

import numpy as np
import pytest

from entsig import (
    AnsatzParams,
    BellInequality,
    CountTable,
    DensityMatrix,
    MeasurementSetting,
    ProductObservable,
    PureState,
    SingleQubitChannel,
    SingleQubitObservable,
    Witness,
    ardehali,
    evaluate,
    expectation,
    experimental_ansatz,
    fidelity_with_pure,
    generic_inequality,
    ghz_state,
    hermitian_eig,
    inequality_from_json_dict,
    inequality_to_json_dict,
    mermin,
    outcome_probabilities,
    pauli,
    projector_witness,
    setting_estimate,
    significance_sweep,
    variance,
    variance_model_significance,
)

X, Z = pauli("X"), pauli("Z")
ZERO = PureState(1, [1.0, 0.0])
NOT_PSD = np.diag([2.0, -1.0])  # unit trace, an eigenvalue below zero


def _setting(labels: str, label: str = "") -> MeasurementSetting:
    return MeasurementSetting(tuple(pauli(c) for c in labels), label)


def _from_json_with_label(label: str):
    data = inequality_to_json_dict(mermin(4))
    data["settings"][0]["label"] = label
    return inequality_from_json_dict(data)


def _bell(settings, n_qubits: int):
    return BellInequality("b", "b", n_qubits, tuple(settings), np.ones((len(settings), 2**n_qubits)),
                          0.0, np.zeros((2**n_qubits, 2**n_qubits)))


def _sweep(ineqs, initial_state=None):
    return significance_sweep(ineqs, "bitflip", [0.0], initial_state=initial_state)


def _short_rows_table():
    q = mermin(4)
    return evaluate(CountTable(q.name, {s.label: np.ones(8) for s in q.settings}), q)


REFUSALS = {
    "observable not 2x2": (lambda: SingleQubitObservable(np.eye(3), "O"), ValueError,
                           "single-qubit observable must be 2x2"),
    "observable not dichotomic": (lambda: SingleQubitObservable(2 * X.matrix, "2X"), ValueError,
                                  "observable '2X' does not square to identity"),
    "pure state no qubits": (lambda: PureState(0, [1.0]), ValueError, "n_qubits must be in [1, 6]"),
    "pure state seven qubits": (lambda: PureState(7, np.eye(128)[0]), ValueError, "n_qubits must be in [1, 6]"),
    "pure state length": (lambda: PureState(1, [1.0, 0.0, 0.0]), ValueError,
                          "amplitude vector length must be 2**n_qubits"),
    "density no qubits": (lambda: DensityMatrix(0, [[1.0]]), ValueError, "n_qubits must be in [1, 6]"),
    "density seven qubits": (lambda: DensityMatrix(7, np.eye(128) / 128), ValueError, "n_qubits must be in [1, 6]"),
    "density shape": (lambda: DensityMatrix(1, np.eye(4) / 4), ValueError,
                      "density matrix must be 2x2 for 1 qubits"),
    "expectation pure dimension": (lambda: expectation(ZERO, np.eye(4)), ValueError,
                                   "state and observable dimensions differ"),
    "expectation matrix dimension": (lambda: expectation(np.eye(2) / 2, np.eye(4)), ValueError,
                                     "state and observable dimensions differ"),
    "expectation imaginary residue": (lambda: expectation(np.array([[0.0, 1.0], [0.0, 0.0]]), pauli("Y")), ValueError,
                                      "expectation has imaginary residue 1.000e+00"),
    "expectation observable not square": (lambda: expectation(ZERO, np.ones((2, 3))), ValueError,
                                          "observable must be a square matrix, got shape (2, 3)"),
    "variance observable not square": (lambda: variance(ZERO, np.ones((3, 2))), ValueError,
                                       "observable must be a square matrix, got shape (3, 2)"),
    "variance not psd": (lambda: variance(NOT_PSD, Z), ValueError, "variance came out negative: -8.000e+00"),
    "fidelity above one": (lambda: fidelity_with_pure(NOT_PSD, ZERO), ValueError, "fidelity 2.0 outside [0, 1]"),
    "fidelity below zero": (lambda: fidelity_with_pure(NOT_PSD[::-1, ::-1], ZERO), ValueError,
                            "fidelity -1.0 outside [0, 1]"),
    "fidelity stack": (lambda: fidelity_with_pure(np.array([NOT_PSD, NOT_PSD]), ZERO), ValueError,
                       "state and reference dimensions differ"),
    "hermitian_eig not square": (lambda: hermitian_eig(np.ones((2, 3))), ValueError,
                                 "hermitian_eig expects a square matrix"),
    "setting empty": (lambda: MeasurementSetting(()), ValueError, "setting needs at least one observable"),
    "setting entry not observable": (lambda: MeasurementSetting((X.matrix,)), ValueError,
                                     "setting entries must be SingleQubitObservable"),
    "setting traceful observable": (lambda: MeasurementSetting((pauli("I"),)), ValueError,
                                    "observable 'I' is degenerate (trace != 0); settings need +1/-1 outcomes"),
    "product factor not observable": (lambda: ProductObservable(1.0, (X.matrix,)), ValueError,
                                      "factors must be SingleQubitObservable"),
    "product coefficient not finite": (lambda: ProductObservable(math.nan, (X,)), ValueError,
                                       "term coefficients must be finite, got nan"),
    "witness not square": (lambda: Witness("w", np.ones((2, 3))), ValueError, "witness matrix must be square"),
    "bell duplicate labels": (lambda: _bell([_setting("XX"), _setting("ZZ", "XX")], 2), ValueError,
                              "setting labels must be unique"),
    "bell qubit mismatch": (lambda: _bell([_setting("X")], 2), ValueError,
                            "all settings must act on the inequality's qubits"),
    "generic assignment length": (lambda: generic_inequality([ProductObservable(1.0, (Z,))], [_setting("Z")], [], 1.0),
                                  ValueError, "assignment must give one setting index per term"),
    "generic no settings": (lambda: generic_inequality([], [], [], 1.0), ValueError, "at least one setting required"),
    "generic settings qubit mismatch": (lambda: generic_inequality([], [_setting("Z"), _setting("ZZ")], [], 1.0),
                                        ValueError, "all settings must act on the same number of qubits"),
    "generic index out of range": (lambda: generic_inequality([ProductObservable(1.0, (Z,))], [_setting("Z")], [1], 1.0),
                                   ValueError, "setting index 1 out of range"),
    "generic term qubit count": (lambda: generic_inequality([ProductObservable(1.0, (Z,))], [_setting("ZZ")], [0], 1.0),
                                 ValueError, "term qubit count does not match settings"),
    "json label length": (lambda: _from_json_with_label("XXX"), ValueError,
                          "setting label 'XXX' does not match 4 qubits"),
    "negative outcome probability": (lambda: outcome_probabilities(np.diag([1.5, -0.5]), _setting("Z")), ValueError,
                                     "negative outcome probability -5.000e-01"),
    "count mode": (lambda: CountTable("m", {"a": [1]}, mode="guessed"), ValueError, "unknown count mode 'guessed'"),
    "counts not flat": (lambda: CountTable("m", {"a": [[1, 2]]}), ValueError, "counts for 'a' must be a flat vector"),
    "counts not finite": (lambda: CountTable("m", {"a": [1.0, math.inf]}, mode="predicted"), ValueError,
                          "non-finite count in setting 'a'"),
    "sampled counts not integer": (lambda: CountTable("m", {"a": [1.5]}), ValueError,
                                   "sampled counts must be integers in setting 'a'"),
    "evaluate outcome count": (_short_rows_table, ValueError, "setting 'XXXX' has 8 outcomes, expected 16"),
    "setting_estimate negative counts": (lambda: setting_estimate([-1.0, 2.0], [1.0, -1.0]), ValueError,
                                         "negative counts"),
    "variance model test type": (lambda: variance_model_significance(ghz_state(4), "mermin"), ValueError,
                                 "test must be a Witness or a BellInequality"),
    "variance model copies zero": (lambda: variance_model_significance(ghz_state(4), projector_witness(4), copies=0),
                                   ValueError, "copies must be positive"),
    "variance model copies negative": (lambda: variance_model_significance(ghz_state(4), mermin(4), copies=-1.0),
                                       ValueError, "copies must be positive"),
    "variance model copies nan": (lambda: variance_model_significance(ghz_state(4), mermin(4), copies=math.nan),
                                  ValueError, "copies must be positive and finite, got nan"),
    "variance model copies inf": (lambda: variance_model_significance(ghz_state(4), mermin(4), copies=math.inf),
                                  ValueError, "copies must be positive and finite, got inf"),
    "sweep no inequalities": (lambda: _sweep([]), ValueError, "need at least one inequality"),
    "sweep mixed qubit counts": (lambda: _sweep([mermin(4), ardehali(6)]), ValueError,
                                 "all inequalities must share the qubit count"),
    "sweep state type": (lambda: _sweep([mermin(4)], ghz_state(4).amplitudes), ValueError,
                         "initial_state must be a DensityMatrix or PureState"),
    "sweep state qubit count": (lambda: _sweep([mermin(4)], DensityMatrix.from_pure(ghz_state(6))), ValueError,
                                "initial state qubit count does not match"),
    "ansatz zero trace": (lambda: experimental_ansatz(AnsatzParams(0.0, 0.0, 0.0, 0.0)), ValueError,
                          "ansatz parameters give non-positive trace"),
    "setting_index unknown label": (lambda: mermin(4).setting_index("ZZZZ"), KeyError,
                                    "inequality 'mermin4' has no setting 'ZZZZ'"),
    "channel empty": (lambda: SingleQubitChannel(()), ValueError, "channel needs at least one Kraus operator"),
    "channel not 2x2": (lambda: SingleQubitChannel((np.eye(3),)), ValueError, "Kraus operators must be 2x2"),
    "channel not finite": (lambda: SingleQubitChannel((np.array([[math.nan, 0], [0, 1]]),), "bad"), ValueError,
                           "channel 'bad' contains NaN or Inf entries"),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert info.value.args == (message,)


def test_pure_initial_state_gives_the_default_sweep():
    pair = (mermin(4), ardehali(4))
    grid = np.linspace(0.0, 0.25, 9)
    default, pure = (significance_sweep(pair, "bitflip", grid, initial_state=s) for s in (None, ghz_state(4)))
    assert default.fidelity.tobytes() == pure.fidelity.tobytes()
    for tag in default.tags:
        for key in "VES":
            assert default.values[tag][key].tobytes() == pure.values[tag][key].tobytes()


@pytest.mark.parametrize("q", [mermin(4), ardehali(4)], ids=["mermin", "ardehali"])
def test_pure_state_gives_the_density_matrix_rows(q):
    psi = ghz_state(4)
    for s in q.settings:
        pure, mixed = outcome_probabilities(psi, s), outcome_probabilities(DensityMatrix.from_pure(psi), s)
        assert pure.tobytes() == mixed.tobytes()
