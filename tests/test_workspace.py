"""The per-thread work arrays and ufunc buffer scope of the probability kernel, the
noise maps, stack validation and the per-setting estimates.

``core._work`` hands out views of two arrays per thread, the noise maps' output
stack and the temporaries, grown to the largest request and then reused.  The
``empty`` fixture drops the calling thread's arrays before each test, so each
test also takes the first-allocation path.  ``core._small_buffer`` runs their
elementwise loops under a small ufunc buffer and gives the caller's back.  To
check the first-call paths in a fresh interpreter as well, run this file alone:

    PYTHONPATH=src python -m pytest -q tests/test_workspace.py
"""

import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from entsig import DensityMatrix, ShotBudget, ardehali, ghz_state, mermin, significance_sweep, white_noise
from entsig import core
from entsig.inequalities import MeasurementSetting, _contraction_plan, _probability_rows, standard_observable
from entsig.significance import _noisy_stack, setting_estimates
from conftest import random_density

GRID = [0.0, 0.043, 0.15, 1 / 3, 0.5, 0.7, 0.99, 1.0, *np.linspace(0.0, 1.0, 13)]


@pytest.fixture
def empty():
    core._WORK.__dict__.clear()
    yield
    core._WORK.__dict__.clear()


def _pair_plan(n):
    return _contraction_plan(mermin(n).settings + ardehali(n).settings)


def _plan5():
    labels = ["".join(bits) for bits in itertools.product("XY", repeat=5)] + ["ZZZZZ", "ZXZYZ", "ABXYZ"]
    return _contraction_plan([MeasurementSetting(tuple(map(standard_observable, label))) for label in labels])


def _stack4():
    """The bit-flip stack of 64 4-qubit GHZ states that a default sweep chunk validates."""
    ghz4 = DensityMatrix.from_pure(ghz_state(4)).matrix
    return np.array(_noisy_stack(ghz4, "bitflip", np.linspace(0.0, 0.5, 64).tolist()))


def _chunk_counts(stack):
    """The predicted counts of Mermin's and Ardehali's 24 settings that a sweep chunk estimates, and their coefficients."""
    ineqs = mermin(4), ardehali(4)
    copies = np.array([[c] for q in ineqs for c in ShotBudget.equal_split(8000.0, q).allocation.values()])
    return copies * _probability_rows(stack, _pair_plan(4)), np.concatenate([q.outcome_coeffs for q in ineqs])


def _clamped(stack):
    """A copy of ``stack`` validated in place: its GHZ member 0 has an eigenvalue of -1e-12, which the PSD clamp projects away."""
    out = stack.copy()
    out[0] = out[0] * (1 + 1e-12) - 1e-12 * np.diag(np.eye(16)[5]).astype(complex)
    core._validate_stack(out)
    return out


def _calls(rng):
    """Each call of a workload that reuses the arrays, by name: kernels of 64 4-qubit states,
    of one 6-qubit state and of 7 5-qubit states, bit-flip and white stacks, the validation
    of 64 4-qubit states, one of them clamped, and the estimates of a sweep chunk."""
    rho5, rho6 = random_density(rng, 5).matrix, random_density(rng, 6).matrix
    stack4 = _stack4()
    stack5 = np.array(_noisy_stack(rho5, "bitflip", [0.0, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0]))
    plan4, plan5, plan6 = _pair_plan(4), _plan5(), _pair_plan(6)
    counts, coeffs = _chunk_counts(stack4)
    return {
        "kernel4x64": lambda: _probability_rows(stack4, plan4),
        "kernel6x1": lambda: _probability_rows(rho6, plan6),
        "kernel5x7": lambda: _probability_rows(stack5, plan5),
        "bitflip5": lambda: _noisy_stack(rho5, "bitflip", GRID),
        "white6": lambda: _noisy_stack(rho6, "white", GRID),
        "bitflip6x1": lambda: _noisy_stack(rho6, "bitflip", [0.2]),
        "validate4x64": lambda: _clamped(stack4),
        "estimates4x64": lambda: np.array(setting_estimates(counts, coeffs)),
    }


def test_interleaved_calls_keep_the_bytes_of_first_calls(empty, rng):
    calls = _calls(rng)
    first = {}
    for name, call in calls.items():  # each on fresh arrays, copied: a stack is valid until the next noise map
        core._WORK.__dict__.clear()
        first[name] = call().tobytes()
    for order in (list(calls), list(calls)[::-1], [*calls] * 2):
        for name in order:  # on arrays grown by the others and holding their data
            assert calls[name]().tobytes() == first[name], name


def test_kernel_rows_are_fresh_and_c_contiguous(empty, rng):
    calls = _calls(rng)
    kept = calls["kernel4x64"]()
    expected = kept.tobytes()
    for name in ("kernel6x1", "kernel5x7", "bitflip5", "kernel4x64"):
        calls[name]()
    assert kept.flags.c_contiguous and kept.tobytes() == expected
    assert not any(np.shares_memory(kept, work) for work in vars(core._WORK).values())


@pytest.mark.parametrize("n", [4, 6])
def test_stack_then_white_noise_in_a_loop(empty, rng, n):
    # as TestNoiseStack::test_white_matches_white_noise, with a stack made before each white_noise
    rho = random_density(rng, n)
    first = np.array(_noisy_stack(rho.matrix, "white", GRID))
    kept = []
    for q, member in zip(GRID, first):
        assert _noisy_stack(rho.matrix, "white", GRID).tobytes() == first.tobytes()
        kept.append(white_noise(rho, q))
        assert kept[-1].matrix.tobytes() == member.tobytes(), q
    # white_noise returns its own array: later noise maps do not reach it
    assert all(state.matrix.tobytes() == member.tobytes() for state, member in zip(kept, first))


def test_two_threads_give_the_serial_bytes(empty):
    grids = {4: np.linspace(0.0, 0.5, 150), 6: np.linspace(0.0, 0.4, 21)}

    def sweep(n):
        table = significance_sweep([mermin(n), ardehali(n)], "bitflip", grids[n])
        return table.to_csv_text()

    serial = {n: sweep(n) for n in grids}
    results, interval = {4: [], 6: []}, sys.getswitchinterval()

    def worker(n):
        for _ in range(3):
            results[n].append(sweep(n))

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in grids]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {n: [serial[n]] * 3 for n in grids}


def _peak(call) -> int:
    call()  # warm: the arrays are grown
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_calls_allocate_little(empty, rng):
    calls = _calls(rng)
    # the kernel: its fresh (64, 24, 16) rows and the contiguous copy of the real parts that np.take
    # reads them from (2178 KB before the work arrays)
    rows = calls["kernel4x64"]()
    assert _peak(calls["kernel4x64"]) <= 2 * rows.nbytes + 32 * 1024
    # the bit-flip map of 64 4-qubit states: nothing large (1156 KB before the work arrays, then
    # two 128 KB ufunc buffers until its loops ran under a small one)
    ghz4, ps = DensityMatrix.from_pure(ghz_state(4)).matrix, np.linspace(0.0, 0.5, 64).tolist()
    assert _peak(lambda: _noisy_stack(ghz4, "bitflip", ps)) <= 16 * 1024


def test_warm_validation_allocates_only_its_cholesky_factor(empty):
    # 657 KB before the work arrays: the isfinite mask, the conjugate transpose, the difference,
    # its magnitudes and the Cholesky input; numpy's cholesky takes no out=
    stack = _stack4()
    assert _peak(lambda: core._validate_stack(stack)) <= stack.nbytes + 16 * 1024  # the factor has the stack's shape


def test_warm_estimates_allocate_only_their_outputs(empty):
    # 482 KB before the work arrays: the support masks, the masked coefficient tables, the squared
    # deviations and their (64, 24) intermediates
    counts, coeffs = _chunk_counts(_stack4())
    outputs = setting_estimates(counts, coeffs)
    assert _peak(lambda: setting_estimates(counts, coeffs)) <= sum(x.nbytes for x in outputs) + 16 * 1024
    assert not any(np.shares_memory(x, work) for x in outputs for work in vars(core._WORK).values())


@pytest.mark.parametrize("bad, message", [
    (np.eye(16, dtype=complex) / 16 + 0.1 * np.eye(16, k=1), "density matrix is not Hermitian (defect 1.000e-01 > 1.0e-12)"),
    (np.eye(16, dtype=complex) / 8, "density matrix trace is 2.0, expected 1"),
    (np.diag([1.2, -0.2] + [0.0] * 14).astype(complex), "density matrix has negative eigenvalue -2.000e-01"),
], ids=["hermitian", "trace", "negative"])
def test_validation_refusals_keep_their_text_when_warm(empty, rng, bad, message):
    calls = _calls(rng)
    stack = _stack4()
    for name in ("validate4x64", "kernel6x1", "estimates4x64", "white6"):  # arrays grown and holding other data
        calls[name]()
    stack[40] = bad
    with pytest.raises(ValueError) as info:
        core._validate_stack(stack)
    assert info.value.args == (message,)


def test_views_are_disjoint_and_staggered(empty):
    views = core._work(100, 256, 7)
    stack = core._work(50, stack=True)[0]
    spans = sorted((v.ctypes.data, v.ctypes.data + v.nbytes) for v in (*views, stack))
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    # each array starts on a page; its views start 1280 bytes apart past 64-byte rounding
    assert stack.ctypes.data % 4096 == 0
    assert [v.ctypes.data % 4096 for v in views] == [1280, (1280 + 1600 + 1280) % 4096, (1280 + 1600 + 1280 + 4096 + 1280) % 4096]
    assert core._work(10)[0].ctypes.data == views[0].ctypes.data  # reused while large enough


def test_each_thread_has_its_own_arrays(empty):
    mine = core._work(64)[0].ctypes.data
    theirs = []
    thread = threading.Thread(target=lambda: theirs.append(core._work(64)[0].ctypes.data))
    thread.start()
    thread.join(timeout=60)
    assert theirs and theirs[0] != mine


@pytest.fixture
def bufsize():
    """``np.setbufsize`` for the test; the size it found is restored afterwards."""
    old = np.getbufsize()
    yield np.setbufsize
    np.setbufsize(old)


@pytest.mark.parametrize("family", ["bitflip", "white"])
def test_warm_noise_maps_allocate_no_ufunc_buffer(empty, family):
    # 64 4-qubit states: 260 KB (bit-flip) and 262 KB (white) of 128 KB ufunc buffers under numpy's default size
    ghz4, ps = DensityMatrix.from_pure(ghz_state(4)).matrix, np.linspace(0.0, 0.5, 64).tolist()
    assert _peak(lambda: _noisy_stack(ghz4, family, ps)) <= 16 * 1024


@pytest.mark.parametrize("size", [16, 8192, 2**20])
def test_scope_restores_the_callers_buffer(bufsize, size):
    bufsize(size)
    with core._small_buffer():
        assert np.getbufsize() == core._BUFSIZE
    assert np.getbufsize() == size
    with pytest.raises(ZeroDivisionError), core._small_buffer():
        1 / 0
    assert np.getbufsize() == size


def _check_calls_keep_buffer(calls, size):
    """Every call, a refusal after the kernel's scope and an overflow inside it leave ``size`` in place."""
    for name, call in calls.items():
        call()
        assert np.getbufsize() == size, name
    with pytest.raises(ValueError, match="negative outcome probability"):
        _probability_rows(3 * np.diag([1.0] + [0.0] * 15) - 2 * DensityMatrix.from_pure(ghz_state(4)).matrix, _pair_plan(4))
    assert np.getbufsize() == size
    with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="overflow"):
        warnings.simplefilter("error")  # raised inside the scope; np.errstate would restore the size itself on exit
        _probability_rows(np.full((16, 16), np.finfo(float).max / 2, dtype=complex), _pair_plan(4))  # products overflow
    assert np.getbufsize() == size


@pytest.mark.parametrize("size", [16, 8192, 2**20])
def test_calls_leave_the_callers_buffer(empty, rng, bufsize, size):
    calls = _calls(rng)
    bufsize(size)
    _check_calls_keep_buffer(calls, size)


def test_scope_is_per_thread(empty, rng, bufsize):
    calls = _calls(rng)
    bufsize(2**20)
    inside, release, seen, errors = threading.Event(), threading.Event(), [], []

    def worker():
        try:
            own = np.getbufsize()
            with core._small_buffer():
                seen.append(np.getbufsize())
                inside.set()
                release.wait(60)
            seen.append(np.getbufsize() == own)
            _check_calls_keep_buffer(calls, own)
        except BaseException as e:  # reported by the main thread
            errors.append(e)
            inside.set()

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert inside.wait(60)
        assert np.getbufsize() == 2**20  # the worker's scope does not reach this thread
        calls["kernel4x64"]()
        assert np.getbufsize() == 2**20
    finally:
        release.set()
        thread.join(timeout=120)
    assert not thread.is_alive() and not errors, errors
    assert seen == [core._BUFSIZE, True]
    assert np.getbufsize() == 2**20


@pytest.mark.parametrize("size", [16, 2**20])
def test_bits_do_not_depend_on_the_callers_buffer(empty, rng, bufsize, size):
    calls = _calls(rng)
    expected = {name: np.array(call()).tobytes() for name, call in calls.items()}
    bufsize(size)
    assert {name: np.array(call()).tobytes() for name, call in calls.items()} == expected
