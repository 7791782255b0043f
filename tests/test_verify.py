"""The expected logical actions and the block reduction of dfsqft.verify,
against Kronecker-product and per-index constructions; the batched noise
invariance check against a per-state loop; a guard that the encoded
suites never lower a circuit on the physical register to a dense unitary
and stay within a fixed memory peak; and the memo of suite inputs, which
must hold only read-only values and never skip a run's work."""
import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dfsqft import (
    SCD,
    WCD,
    CollectiveModel,
    NoiseEvent,
    StateVector,
    apply_noise,
    fidelity,
    h,
    p,
)
from dfsqft import cli, noise, statevector, verify
from dfsqft.verify import (
    SUITES,
    contract,
    expected_actions,
    logical_hadamard,
    logical_phase,
    noise_invariance_check,
    phase_keys,
)

HADAMARD_2X2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@pytest.mark.parametrize("n", range(1, 5))
def test_logical_hadamard_is_kron_embedding(n):
    for k in range(1, n + 1):
        expected = np.kron(np.eye(2 ** (n - k)), np.kron(HADAMARD_2X2, np.eye(2 ** (k - 1))))
        assert np.array_equal(logical_hadamard(n, k), expected)


@pytest.mark.parametrize("n", range(2, 5))
def test_logical_phase_marks_indices_with_both_bits(n):
    theta = 0.3
    for i, j, _ in phase_keys(n, (theta,)):
        phases = [np.exp(1j * theta) if (l >> (i - 1)) & (l >> (j - 1)) & 1 else 1.0
                  for l in range(2**n)]
        assert np.array_equal(logical_phase(n, i, j, theta), np.diag(phases))


def test_phase_keys_cover_ordered_distinct_pairs():
    keys = list(phase_keys(3, (0.5, 0.25)))
    assert keys[:4] == [(1, 2, 0.5), (1, 2, 0.25), (1, 3, 0.5), (1, 3, 0.25)]
    assert len(keys) == 3 * 2 * 2 and all(i != j for i, j, _ in keys)


def test_contract_takes_worst_deviation_and_leakage_per_kind():
    wrong_h = logical_hadamard(2, 1).copy()
    wrong_h[3, 1] += 1e-3
    expected = expected_actions(2, (0.5,))
    blocks = [
        (wrong_h, 0.0),
        (logical_hadamard(2, 2), 5e-4),
        (logical_phase(2, 1, 2, 0.5), 2e-3),
        (logical_phase(2, 2, 1, 0.5), 0.0),
    ]
    assert [gate for gate, _ in expected] == [h(1), h(2), p(1, 2, 0.5), p(2, 1, 0.5)]
    assert contract(expected, blocks, "H") == pytest.approx((1e-3, 5e-4))
    assert contract(expected, blocks, "P") == (0.0, 2e-3)


def per_state_noise_invariance(basis, model, seed):
    """Reference: one state and one event at a time through apply_noise."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for state in map(StateVector, basis.matrix.T):
        for _ in range(20):
            event = NoiseEvent(tuple(rng.uniform(0.0, 2.0 * math.pi, len(model.axes))))
            worst = max(worst, 1.0 - fidelity(apply_noise(state, event, model), state))
    return worst


@pytest.mark.parametrize("seed", [0, 17, 20])
@pytest.mark.parametrize(
    "basis,model",
    [(WCD.basis(n), CollectiveModel.WCD) for n in (1, 2, 3)]
    + [(SCD.basis(n), CollectiveModel.SCD) for n in (1, 2, 3)],
    ids=["wcd1", "wcd2", "wcd3", "scd1", "scd2", "scd3"],
)
def test_batched_noise_invariance_is_bit_identical_to_per_state_loop(basis, model, seed):
    batched = noise_invariance_check(basis, model, seed, 1e-10)["deviation"]
    assert batched == per_state_noise_invariance(basis, model, seed)


@pytest.mark.parametrize("edge", ["divides", "remainder-1", "remainder-step-1"])
@pytest.mark.parametrize(
    "basis,model",
    [(WCD.basis(2), CollectiveModel.WCD), (WCD.basis(3), CollectiveModel.WCD),
     (SCD.basis(2), CollectiveModel.SCD)],
    ids=["wcd2", "wcd3", "scd2"],
)
def test_noise_invariance_is_bit_identical_at_chunk_edges(monkeypatch, basis, model, edge):
    events = 20 * len(basis)
    step = {
        "divides": 20,
        "remainder-1": events - 1,
        "remainder-step-1": min(s for s in range(2, events) if (events + 1) % s == 0),
    }[edge]
    assert events % step == {"divides": 0, "remainder-1": 1, "remainder-step-1": step - 1}[edge]
    assert events > step
    reference = per_state_noise_invariance(basis, model, 17)
    monkeypatch.setattr(noise, "BATCH_AMPLITUDES", step << basis.n_qubits)
    chunk_sizes = []
    propagate = noise._propagate

    def counting_propagate(ops, arr, n):
        chunk_sizes.append(arr.shape[1])
        return propagate(ops, arr, n)

    monkeypatch.setattr(noise, "_propagate", counting_propagate)
    batched = noise_invariance_check(basis, model, 17, 1e-10)["deviation"]
    assert chunk_sizes == [step] * (events // step) + [events % step] * (events % step > 0)
    assert batched == reference


def run_recording_dense_unitaries(encoding, n, monkeypatch):
    """Run one suite; return the dimensions of every circuit_unitary it
    builds and its tracemalloc peak in bytes."""
    dims = []
    real = verify.circuit_unitary

    def recording(*args, **kwargs):
        unitary = real(*args, **kwargs)
        dims.append(unitary.shape[0])
        return unitary

    monkeypatch.setattr(verify, "circuit_unitary", recording)
    tracemalloc.start()
    try:
        checks, _ = SUITES[encoding][1](n, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["pass"] for c in checks)
    return dims, peak


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scd_suite_never_lowers_the_physical_register(n, monkeypatch):
    dims, peak = run_recording_dense_unitaries("scd", n, monkeypatch)
    assert dims and 2 ** (4 * n) not in dims
    assert peak < 64 * 2**20


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_wcd_suite_never_lowers_the_physical_register(n, monkeypatch):
    dims, peak = run_recording_dense_unitaries("wcd", n, monkeypatch)
    assert dims and 2 ** (2 * n) not in dims
    assert peak < 64 * 2**20


# the benchmark's verify cases
BENCH_VERIFY_CASES = ([("plain", n) for n in range(1, 6)] + [("wcd", n) for n in range(1, 4)]
                      + [("scd", n) for n in range(1, 3)])


def record_kernel_calls(monkeypatch) -> list:
    """Patch the one kernel loop wherever it is bound; return the list that
    collects (n, input shape, op count) of every call."""
    calls = []
    real = statevector._propagate

    def recording(ops, arr, n):
        ops = list(ops)
        calls.append((n, arr.shape, len(ops)))
        return real(ops, arr, n)

    monkeypatch.setattr(statevector, "_propagate", recording)
    monkeypatch.setattr(noise, "_propagate", recording)
    return calls


def run_twice(argv, capsys, monkeypatch) -> list[tuple[list, str]]:
    """(kernel calls, stdout) of two runs of one command in this process."""
    calls = record_kernel_calls(monkeypatch)
    runs = []
    for _ in range(2):
        calls.clear()
        assert cli.main(argv) == 0
        runs.append((list(calls), capsys.readouterr().out))
    return runs


class TestSuiteInputs:
    @pytest.mark.parametrize("encoding,n", BENCH_VERIFY_CASES)
    def test_a_second_run_does_the_work_of_the_first(self, encoding, n, capsys, monkeypatch,
                                                     cold_suite_inputs):
        (first_calls, first_out), (second_calls, second_out) = run_twice(
            ["verify", encoding, str(n), "--seed", "29", "--format", "json"], capsys, monkeypatch)
        assert (encoding, n) in cold_suite_inputs and ("plain", n) in cold_suite_inputs
        assert first_calls and second_calls == first_calls
        timeless = [re.sub(r'"duration_s": [^,]+,', "", out) for out in (first_out, second_out)]
        assert timeless[0] != first_out and timeless[1] == timeless[0]

    def test_a_second_noise_bench_run_does_the_work_of_the_first(self, capsys, monkeypatch,
                                                                 cold_suite_inputs):
        trial_runs = []
        real = cli.run_trials

        def recording(circuit, input_state, ideal, policy, model, bounds, subspace):
            trial_runs.append((circuit, input_state.amplitudes.tobytes(),
                               ideal.amplitudes.tobytes(), policy, model, tuple(bounds),
                               None if subspace is None else subspace.matrix.tobytes()))
            return real(circuit, input_state, ideal, policy, model, bounds, subspace=subspace)

        monkeypatch.setattr(cli, "run_trials", recording)
        argv = ["noise-bench", "--encoding", "scd", "--n", "2", "--policy", "elementary",
                "--trials", "12", "--seed", "8", "--format", "csv"]
        (first_calls, first_out), (second_calls, second_out) = run_twice(argv, capsys, monkeypatch)
        assert len(trial_runs) == 4 and trial_runs[2:] == trial_runs[:2]
        assert first_calls and second_calls == first_calls
        assert second_out == first_out and first_out.count("\n") == 2 + 1 + 2 * 12

    def test_entries_hold_only_read_only_values(self, cold_suite_inputs):
        arrays = []

        def walk(value):
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable
                arrays.append(value)
            elif dataclasses.is_dataclass(value):
                assert type(value).__dataclass_params__.frozen, type(value)
                for field in dataclasses.fields(value):
                    walk(getattr(value, field.name))
            elif isinstance(value, tuple):
                for item in value:
                    walk(item)
            else:
                assert value is None or type(value) in (int, float, str), type(value)

        keys = [(encoding, n) for encoding, (max_n, _) in SUITES.items()
                for n in range(1, max_n + 1)]
        for encoding, n in keys:
            inputs = verify.suite_inputs(encoding, n)
            assert verify.suite_inputs(encoding, n) is inputs
            walk(inputs)
        assert list(cold_suite_inputs) == keys
        assert {type(a) for a in arrays} == {np.ndarray}
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0

    def test_one_entry_per_size_used(self, cold_suite_inputs):
        for encoding, n in (("scd", 1), ("wcd", 2), ("scd", 1), ("plain", 3)):
            SUITES[encoding][1](n, 0)
        assert set(cold_suite_inputs) == {("scd", 1), ("plain", 1), ("wcd", 2), ("plain", 2),
                                          ("plain", 3)}
        # bounded by the suites' caps: a size no suite takes builds nothing
        for encoding, n in (("plain", 11), ("wcd", 7), ("scd", 4), ("wcd", 0), ("scd", True)):
            with pytest.raises(ValueError, match="n must be an integer in 1.."):
                verify.suite_inputs(encoding, n)
        assert len(cold_suite_inputs) == 5

    def test_concurrent_first_calls_share_one_entry(self, cold_suite_inputs):
        # four threads on one cold key, switching as often as the
        # interpreter allows: each may build the entry, all get one object
        results = []
        start = threading.Barrier(4)

        def first_call():
            start.wait(timeout=10)
            results.append(verify.suite_inputs("wcd", 3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_call) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 and all(inputs is results[0] for inputs in results)
        assert list(cold_suite_inputs) == [("wcd", 3)]

    def test_import_builds_nothing(self):
        code = "import dfsqft; from dfsqft import verify; print(len(verify._INPUTS))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out == "0\n"
