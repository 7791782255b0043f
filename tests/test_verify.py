"""The expected logical actions and the block reduction of dfsqft.verify,
against Kronecker-product and per-index constructions; the light-cone
encoder-conjugation check against full-register unitaries; the batched
noise invariance check against a per-state loop; and a guard that the
encoded suites never lower a circuit on the physical register to a dense
unitary and stay within a fixed memory peak."""
import math
import tracemalloc

import numpy as np
import pytest

from dfsqft import (
    SCD,
    WCD,
    Circuit,
    CollectiveModel,
    NoiseEvent,
    StateVector,
    apply_noise,
    circuit_unitary,
    cn,
    cr,
    fidelity,
    h,
    invert,
    p,
    r,
    wcd_encoder_circuit,
    wcd_hadamard,
    wcd_phase,
)
from dfsqft import noise, verify
from dfsqft.verify import (
    SUITES,
    _conjugation_deviation,
    contract,
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
    blocks = {
        ("h", 1): (wrong_h, 0.0),
        ("h", 2): (logical_hadamard(2, 2), 5e-4),
        ("p", 1, 2, 0.5): (logical_phase(2, 1, 2, 0.5), 2e-3),
    }
    assert contract(2, blocks, "h") == pytest.approx((1e-3, 5e-4))
    assert contract(2, blocks, "p") == (0.0, 2e-3)


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
    + [(SCD.basis(n), CollectiveModel.SCD) for n in (1, 2)],
    ids=["wcd1", "wcd2", "wcd3", "scd1", "scd2"],
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


def full_conjugation_deviation(encoder, gate, target):
    """Reference: every unitary on the whole register."""
    conjugated = encoder + Circuit(encoder.n_qubits, (gate,)) + invert(encoder)
    return float(np.max(np.abs(circuit_unitary(conjugated) - circuit_unitary(target))))


def wcd_pairings(n):
    """(physical gate, logical-gate circuit, should match) for WCD n: every
    pairing the suite checks, plus wrong ones (another pair, another angle)."""
    for k in range(1, n + 1):
        yield h(2 * k), wcd_hadamard(k, n), True
        if n >= 2:
            yield h(2 * k), wcd_hadamard(k % n + 1, n), False
    for i, j, theta in phase_keys(n, (math.pi / 2, math.pi / 4)):
        yield p(2 * i, 2 * j, theta), wcd_phase(i, j, theta, n), True
        yield p(2 * i, 2 * j, theta), wcd_phase(i, j, theta / 2, n), False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugation_deviation_equals_full_register_oracle(n):
    encoder = wcd_encoder_circuit(n)
    for gate, target, matches in wcd_pairings(n):
        deviation = _conjugation_deviation(encoder, gate, target)
        assert deviation == full_conjugation_deviation(encoder, gate, target)
        assert deviation < 1e-10 if matches else deviation > 0.1


def test_conjugation_deviation_follows_a_growing_light_cone():
    # the cone of P(2, 4) grows through CN(1, 2) and CR(4, 5) to qubits 1, 2, 4, 5;
    # R on 3 and H on 6 stay outside it
    encoder = Circuit(6, (h(1), cn(1, 2), r(3, 0.4), cr(4, 5, 0.3), h(6), cn(5, 4)))
    gate = p(2, 4, 0.7)
    exact = encoder + Circuit(6, (gate,)) + invert(encoder)
    assert _conjugation_deviation(encoder, gate, exact) < 1e-15
    wrong = Circuit(6, exact.gates[:-1])
    assert _conjugation_deviation(encoder, gate, wrong) == pytest.approx(
        full_conjugation_deviation(encoder, gate, wrong), abs=1e-15)
    assert _conjugation_deviation(encoder, gate, wrong) > 0.1


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


# below n = 3 a 4-qubit conjugation support is the whole register
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_wcd_suite_never_lowers_the_physical_register(n, monkeypatch):
    dims, peak = run_recording_dense_unitaries("wcd", n, monkeypatch)
    assert dims and 2 ** (2 * n) not in dims
    assert peak < 64 * 2**20
