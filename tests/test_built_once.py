"""Constructors, contraction plans and the GHZ initial state built once per process.

``mermin(n)`` and ``ardehali(n)`` build each int n once and return a fresh
object over the same read-only arrays and settings on every call;
``_contraction_plan`` derives the plan of a tuple of observables once, and
``_as_initial_state(None, n)`` validates the GHZ_n density matrix once.  The
``caches`` fixture empties those caches before each test, so the first call is
checked too, whatever ran before.  To check it in a fresh interpreter as well,
run this file alone:

    PYTHONPATH=src python -m pytest -q tests/test_built_once.py
"""

import dataclasses
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from entsig import DensityMatrix, SingleQubitObservable, ardehali, ghz_state, mermin, outcome_probabilities, pauli
from entsig import core, inequalities, significance
from entsig.cli import main
from entsig.inequalities import (
    MeasurementSetting,
    _contraction_plan,
    _probability_rows,
    inequality_from_json_dict,
    inequality_to_json_dict,
    standard_observable,
)
from conftest import random_density

CONSTRUCTORS = {"mermin": mermin, "ardehali": ardehali}
BUILDERS = {"mermin": inequalities._mermin, "ardehali": inequalities._ardehali}


def _refused(arg, exc, message):
    return [(name, arg, exc, message.format(name=name)) for name in CONSTRUCTORS]


# What each constructor did with these arguments before it kept its results (recorded at the
# commit before the caches): the exception type and message.  4.0 and 4 + 0j pass the (4, 6)
# check and equal the cached key 4, so a cache keyed by value alone would return mermin(4).
REFUSALS = [
    *_refused(4.0, TypeError, "'float' object cannot be interpreted as an integer"),
    *_refused(6.0, TypeError, "'float' object cannot be interpreted as an integer"),
    *_refused(np.float64(4.0), TypeError, "'numpy.float64' object cannot be interpreted as an integer"),
    *_refused(4 + 0j, TypeError, "'complex' object cannot be interpreted as an integer"),
    *_refused(np.array([4]), TypeError, "only integer scalar arrays can be converted to a scalar index"),
    ("mermin", np.array(4), TypeError, "The 'out' kwarg is necessary when using the string multiply ufunc "
     "directly. Use numpy.strings.multiply to multiply strings without specifying 'out'."),
    ("ardehali", np.array(4), ValueError, "outcome coefficient table has wrong shape"),
    *_refused(True, ValueError, "{name} inequality implemented for n in (4, 6), got True"),
    *_refused(False, ValueError, "{name} inequality implemented for n in (4, 6), got False"),
    *_refused([4], ValueError, "{name} inequality implemented for n in (4, 6), got [4]"),
    *_refused((4,), ValueError, "{name} inequality implemented for n in (4, 6), got (4,)"),
    *_refused(5, ValueError, "{name} inequality implemented for n in (4, 6), got 5"),
    *_refused(4.5, ValueError, "{name} inequality implemented for n in (4, 6), got 4.5"),
    *_refused("4", ValueError, "{name} inequality implemented for n in (4, 6), got 4"),
    *_refused(None, ValueError, "{name} inequality implemented for n in (4, 6), got None"),
    *_refused(1 + 0j, ValueError, "{name} inequality implemented for n in (4, 6), got (1+0j)"),
]

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def _clear():
    for built in (inequalities._mermin, inequalities._ardehali, inequalities._plan, significance._ghz):
        built.cache_clear()


@pytest.fixture(params=["cold", "warm"])
def caches(request):
    _clear()
    if request.param == "warm":
        mermin(4), ardehali(6), significance._as_initial_state(None, 4), significance._as_initial_state(None, 6)
    yield request.param
    _clear()


def fields(ineq):
    """Every field of an inequality, arrays as bytes, with the types of its scalars."""
    return (ineq.name, ineq.tag, ineq.n_qubits, type(ineq.n_qubits), ineq.lhv_bound, type(ineq.lhv_bound),
            [(s.label, s.observables) for s in ineq.settings],
            ineq.outcome_coeffs.shape, ineq.outcome_coeffs.tobytes(), ineq.operator.shape, ineq.operator.tobytes())


@pytest.mark.parametrize("name, arg, exc, message", REFUSALS, ids=[f"{r[0]}-{r[1]!r}" for r in REFUSALS])
def test_odd_arguments_are_refused_as_before(caches, name, arg, exc, message):
    with pytest.raises(exc) as info:
        CONSTRUCTORS[name](arg)
    assert type(info.value) is exc and str(info.value) == message
    with pytest.raises(exc):  # nothing was kept by the refusal
        CONSTRUCTORS[name](arg)


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("n", [4, 6])
def test_numpy_integer_builds_anew_with_its_own_types(caches, name, n):
    # n_qubits keeps the caller's type, and mermin's bound 2.0 ** (n // 2) becomes a numpy float
    got = CONSTRUCTORS[name](np.int64(n))
    assert type(got.n_qubits) is np.int64
    assert type(got.lhv_bound) is (np.float64 if name == "mermin" else float)
    assert fields(got) == fields(BUILDERS[name].__wrapped__(np.int64(n)))
    assert fields(got)[6:] == fields(CONSTRUCTORS[name](n))[6:]
    assert type(CONSTRUCTORS[name](n).n_qubits) is int


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("n", [4, 6])
def test_each_call_is_a_fresh_object_with_the_same_bits(caches, name, n):
    first, second = CONSTRUCTORS[name](n), CONSTRUCTORS[name](n)
    assert first is not second
    assert fields(first) == fields(second) == fields(BUILDERS[name].__wrapped__(n))
    assert first.settings is second.settings and first.operator is second.operator  # built once


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_attribute_writes_stay_with_their_object(caches, name):
    expected = fields(BUILDERS[name].__wrapped__(4))
    changed = CONSTRUCTORS[name](4)
    changed.name, changed.tag, changed.lhv_bound = "changed", "C", -1.0
    changed.settings = changed.settings[:1]
    changed.outcome_coeffs = np.zeros((1, 16))
    assert fields(CONSTRUCTORS[name](4)) == expected


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_shared_arrays_are_read_only(caches, name):
    ineq = CONSTRUCTORS[name](4)
    for shared in (ineq.outcome_coeffs, ineq.operator):
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1.0
    levels, index, _ = _contraction_plan(ineq.settings)
    for shared in (index, *(a for level in levels for a in level)):
        assert not shared.flags.writeable
    assert fields(CONSTRUCTORS[name](4)) == fields(BUILDERS[name].__wrapped__(4))


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_shared_settings_are_frozen(caches, name):
    # every call shares the settings' objects: a write to one would reach every later call
    setting = CONSTRUCTORS[name](4).settings[1]
    label = setting.label
    for field, value in (("label", "QQQQ"), ("observables", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(setting, field, value)
    assert CONSTRUCTORS[name](4).settings[1].label == label
    assert fields(CONSTRUCTORS[name](4)) == fields(BUILDERS[name].__wrapped__(4))


def test_shared_observables_are_frozen(caches):
    # standard_observable("X") is one instance per process, shared by every setting built from it
    x = standard_observable("X")
    for field, value in (("label", "Q"), ("matrix", np.eye(2))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, field, value)
    assert standard_observable("X").label == "X" and x.matrix.tobytes() == pauli("X").matrix.tobytes()
    rebuilt = inequality_from_json_dict(inequality_to_json_dict(mermin(4)))  # reads the labels back
    assert [s.label for s in rebuilt.settings] == [s.label for s in mermin(4).settings]


@pytest.mark.parametrize("n", [4, 6])
def test_cached_plan_gives_the_rows_of_a_derived_one(caches, rng, n):
    settings = mermin(n).settings + ardehali(n).settings
    derived = (*inequalities._plan.__wrapped__(tuple(s.observables for s in settings)), settings)
    first, again = _contraction_plan(settings), _contraction_plan(settings)
    assert again[0] is first[0] and again[1] is first[1]  # derived once
    # settings rebuilt around the same observables share the plan, and come back as the caller's own
    rebuilt = tuple(MeasurementSetting(s.observables) for s in settings)
    other = _contraction_plan(rebuilt)
    assert other[0] is first[0] and other[2] == rebuilt and other[2] != settings
    stack = np.array([random_density(rng, n).matrix for _ in range(3)])
    expected = _probability_rows(stack, derived)
    for plan in (first, again, other):
        assert _probability_rows(stack, plan).tobytes() == expected.tobytes()


def test_plan_cache_is_bounded(caches):
    # generic settings with fresh observables are new keys each time
    z = pauli("Z").matrix
    limit = inequalities._plan.cache_info().maxsize
    assert limit is not None
    for _ in range(limit + 5):
        setting = MeasurementSetting((SingleQubitObservable(z, "Z"),))
        assert outcome_probabilities(np.eye(2) / 2, setting).tolist() == [0.5, 0.5]
    assert inequalities._plan.cache_info().currsize == limit


def test_concurrent_first_calls_agree(caches):
    # a race may build an inequality or a plan twice; every caller still gets the same bits
    expected = [fields(BUILDERS[name].__wrapped__(6)) for name in CONSTRUCTORS]
    settings = mermin(6).settings + ardehali(6).settings
    plan = inequalities._plan.__wrapped__(tuple(s.observables for s in settings))
    _clear()
    results, interval = [], sys.getswitchinterval()

    def worker():
        ineqs = [f(6) for f in CONSTRUCTORS.values()]
        levels, index, _ = _contraction_plan(ineqs[0].settings + ineqs[1].settings)
        results.append(([fields(q) for q in ineqs], levels, index))

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 4
    for got, levels, index in results:
        assert got == expected and index.tobytes() == plan[1].tobytes()
        assert all(a.tobytes() == b.tobytes() for level, ref in zip(levels, plan[0]) for a, b in zip(level, ref))


@pytest.mark.parametrize("name", ["crossing", "crossing_white", "crossing6", "crossing6_white", "crossing_ansatz", "sweep"])
def test_cli_bytes_cold_then_warm(caches, capsys, name):
    # the five paper crossings and the default sweep, twice in one process
    case, outputs = GOLDEN[name], []
    for _ in range(2):
        code = main(list(case["argv"]))
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    assert outputs[0] == outputs[1] == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("n", [4, 6])
def test_ghz_initial_state_is_a_fresh_copy_of_one_build(caches, n):
    expected, misses = DensityMatrix.from_pure(ghz_state(n)), significance._ghz.cache_info().misses
    first, second = significance._as_initial_state(None, n), significance._as_initial_state(None, n)
    assert first is not second and significance._ghz.cache_info().misses - misses == (caches == "cold")
    assert first.matrix is second.matrix and not first.matrix.flags.writeable  # validated once, shared read-only
    for state in (first, second):
        assert type(state.n_qubits) is int and state.matrix.tobytes() == expected.matrix.tobytes()
    first.matrix, first.n_qubits = np.zeros_like(first.matrix), 0  # a caller's writes stay with its copy
    again = significance._as_initial_state(None, n)
    assert again.n_qubits == n and again.matrix.tobytes() == expected.matrix.tobytes()
    built = significance._as_initial_state(None, np.int64(n))  # a numpy integer is built anew
    assert type(built.n_qubits) is np.int64 and built.matrix.tobytes() == expected.matrix.tobytes()


@pytest.mark.parametrize("argv, cold, warm", [(["sweep", "--grid", "0:0.2:5"], 1, 0), (["crossing"], 2, 1),
                                              (["sweep", "--qubits", "6", "--grid", "0:0.2:3"], 1, 0)])
def test_cli_validates_the_ghz_state_once(caches, monkeypatch, capsys, argv, cold, warm):
    # DensityMatrix validations, the crossing's state at p* included: the GHZ state only on the first call
    made, validate = [], core._validate_stack
    monkeypatch.setattr(core, "_validate_stack", lambda m: made.append(m.shape) or validate(m))
    counts = []
    for _ in range(2):
        del made[:]
        assert main(list(argv)) == 0
        counts.append(len(made))
    capsys.readouterr()
    assert counts == ([cold, warm] if caches == "cold" else [warm, warm])
