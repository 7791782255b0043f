import math

import numpy as np
import pytest

from dfsqft import (
    Circuit,
    StateVector,
    SubspaceBasis,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    cn,
    cr,
    dft_matrix,
    equal_up_to_global_phase,
    fidelity,
    h,
    is_unitary,
    p,
    r,
    restrict,
    scd_hadamard,
    scd_logical_basis,
    scd_phase,
    synth_qft,
    unitarity_defect,
    wcd_logical_basis,
)
from dfsqft.verify import logical_hadamard, logical_phase, phase_keys

from conftest import gate_matrix_oracle, random_state

GATE_SAMPLES = [
    h(2),
    r(1, 0.813),
    cn(3, 1),
    cn(1, 3),
    p(2, 3, math.pi / 8),
    cr(1, 2, -1.21),
]


class TestStateVector:
    def test_basis_and_bits(self):
        s = StateVector.from_bits("10")
        assert s.n_qubits == 2
        np.testing.assert_array_equal(s.amplitudes, [0, 0, 1, 0])
        np.testing.assert_array_equal(StateVector.basis(2, 1).amplitudes, [0, 1, 0, 0])

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([1.0, 1.0]))

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError, match="power of two"):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_register_cap(self):
        with pytest.raises(ValueError, match="unsupported"):
            StateVector.basis(15, 0)
        # 2^60 amplitudes cannot be allocated: only a check made first gives this error
        with pytest.raises(ValueError, match="unsupported"):
            StateVector.basis(60, 0)
        with pytest.raises(ValueError, match="unsupported"):
            StateVector.from_bits("0" * 60)

    @pytest.mark.parametrize("n_qubits", [-1, 0, 1.5, True])
    def test_register_below_one_or_fractional(self, n_qubits):
        # 2**-1 is 0.5, so the check must come before any 2**n
        with pytest.raises(ValueError, match=r"^register size .* is unsupported: "
                                             r"it must be an integer in 1\.\.14$"):
            StateVector.basis(n_qubits, 0)

    def test_numpy_integer_register(self):
        assert StateVector.basis(np.int64(2), 3).n_qubits == 2

    def test_amplitudes_frozen(self):
        s = StateVector.basis(1, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_gate(StateVector.from_bits("0"), h(1))
        np.testing.assert_allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)

    def test_controlled_phase(self):
        theta = 0.7
        out = apply_gate(StateVector.from_bits("11"), p(1, 2, theta))
        np.testing.assert_allclose(out.amplitudes[3], np.exp(1j * theta), atol=1e-15)
        out = apply_gate(StateVector.from_bits("01"), p(1, 2, theta))
        np.testing.assert_array_equal(out.amplitudes, StateVector.from_bits("01").amplitudes)

    def test_rotation_on_zero(self):
        alpha = 0.3
        out = apply_gate(StateVector.from_bits("0"), r(1, alpha))
        np.testing.assert_allclose(out.amplitudes, [math.cos(alpha), math.sin(alpha)], atol=1e-15)

    def test_controlled_rotation_idle_when_control_clear(self):
        out = apply_gate(StateVector.from_bits("01"), cr(2, 1, 1.0))
        np.testing.assert_array_equal(out.amplitudes, StateVector.from_bits("01").amplitudes)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            apply_gate(StateVector.basis(1, 0), h(2))

    @pytest.mark.parametrize("gate", GATE_SAMPLES, ids=lambda g: f"{g.kind}{g.qubits}")
    def test_norm_preserved_on_random_states(self, gate):
        rng = np.random.default_rng(11)
        for _ in range(25):
            out = apply_gate(random_state(3, rng), gate)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("gate", GATE_SAMPLES, ids=lambda g: f"{g.kind}{g.qubits}")
    def test_agrees_with_single_gate_unitary(self, gate):
        rng = np.random.default_rng(7)
        unitary = circuit_unitary(Circuit(3, (gate,)))
        for _ in range(100):
            state = random_state(3, rng)
            via_gate = apply_gate(state, gate).amplitudes
            via_matrix = unitary @ state.amplitudes
            np.testing.assert_allclose(via_gate, via_matrix, atol=1e-12)

    @pytest.mark.parametrize("gate", GATE_SAMPLES, ids=lambda g: f"{g.kind}{g.qubits}")
    def test_agrees_with_index_arithmetic_oracle(self, gate):
        rng = np.random.default_rng(3)
        oracle = gate_matrix_oracle(gate, 3)
        for _ in range(20):
            state = random_state(3, rng)
            np.testing.assert_allclose(
                apply_gate(state, gate).amplitudes, oracle @ state.amplitudes, atol=1e-12
            )

    def test_disjoint_supports_commute(self):
        pairs = [(h(1), cn(3, 2)), (p(1, 2, 0.5), r(3, 0.9)), (cr(1, 2, 0.4), h(3))]
        for g1, g2 in pairs:
            u12 = circuit_unitary(Circuit(3, (g1, g2)))
            u21 = circuit_unitary(Circuit(3, (g2, g1)))
            np.testing.assert_allclose(u12, u21, atol=1e-12)


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        np.testing.assert_array_equal(circuit_unitary(Circuit(2)), np.eye(4))

    def test_cnot_truth_table(self):
        # control = qubit 2: swaps |10> and |11>, fixes |00>, |01>
        u = circuit_unitary(Circuit(2, (cn(2, 1),)))
        expected = np.eye(4)[:, [0, 1, 3, 2]]
        np.testing.assert_array_equal(u, expected)

    def test_qft_sequence_matches_dft_oracle(self):
        u = circuit_unitary(synth_qft(2))
        f = dft_matrix(2)
        reversal = np.eye(4)[[0, 2, 1, 3], :]  # bit reversal on 2 qubits
        assert equal_up_to_global_phase(reversal @ f, u)

    def test_synthesized_circuits_are_unitary(self):
        for n in (1, 2, 3, 4):
            assert unitarity_defect(circuit_unitary(synth_qft(n))) < 1e-10

    def test_wider_register_embedding(self):
        u = circuit_unitary(Circuit(1, (h(1),)), n_qubits=2)
        np.testing.assert_allclose(u, np.kron(np.eye(2), circuit_unitary(Circuit(1, (h(1),)))))
        with pytest.raises(ValueError, match="smaller"):
            circuit_unitary(Circuit(2, (h(2),)), n_qubits=1)

    def test_apply_circuit_matches_matrix(self):
        rng = np.random.default_rng(5)
        circuit = synth_qft(3)
        state = random_state(3, rng)
        np.testing.assert_allclose(
            apply_circuit(state, circuit).amplitudes,
            circuit_unitary(circuit) @ state.amplitudes,
            atol=1e-12,
        )


class TestFidelity:
    def test_identical(self):
        assert fidelity(StateVector.basis(1, 0), StateVector.basis(1, 0)) == 1.0

    def test_orthogonal(self):
        assert fidelity(StateVector.basis(1, 0), StateVector.basis(1, 1)) == 0.0

    def test_global_phase_invariance(self):
        a = StateVector.basis(1, 0)
        b = StateVector(np.exp(1j * math.pi / 3) * a.amplitudes)
        assert abs(fidelity(a, b) - 1.0) < 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = random_state(2, rng), random_state(2, rng)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(StateVector.basis(1, 0), StateVector.basis(2, 0))


class TestSubspaceBasis:
    def test_orthonormality_enforced(self):
        v = StateVector.basis(1, 0)
        with pytest.raises(ValueError, match="orthonormal"):
            SubspaceBasis(1, (v, v))

    def test_register_consistency(self):
        with pytest.raises(ValueError, match="register"):
            SubspaceBasis(2, (StateVector.basis(1, 0),))


class TestRestrict:
    def test_identity_on_singlet_basis(self):
        basis = scd_logical_basis(1)  # 2 vectors on 4 qubits
        block, leakage = restrict(np.eye(16, dtype=complex), basis)
        np.testing.assert_allclose(block, np.eye(2), atol=1e-12)
        assert leakage < 1e-12

    def test_wcd_hadamard_restricts_to_hadamard(self):
        from dfsqft import wcd_hadamard

        block, leakage = restrict(circuit_unitary(wcd_hadamard(1, 1)), wcd_logical_basis(1))
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(block, expected, atol=1e-10)
        assert leakage < 1e-10

    def test_full_leakage(self):
        # R(pi/2) maps |0> to |1>, entirely outside span{|0>}
        basis = SubspaceBasis(1, (StateVector.basis(1, 0),))
        _, leakage = restrict(circuit_unitary(Circuit(1, (r(1, math.pi / 2),))), basis)
        assert abs(leakage - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            restrict(np.eye(4), scd_logical_basis(1))

    @pytest.mark.parametrize("n", [1, 2])
    def test_scd_logical_gate_circuits_match_their_unitaries(self, n):
        basis = scd_logical_basis(n)
        gates = [(scd_hadamard(k, n), logical_hadamard(n, k)) for k in range(1, n + 1)]
        gates += [(scd_phase(i, j, theta, n), logical_phase(n, i, j, theta))
                  for i, j, theta in phase_keys(n, (math.pi / 2, math.pi / 4))]
        for circuit, expected in gates:
            block, leakage = restrict(circuit, basis)
            dense_block, dense_leakage = restrict(circuit_unitary(circuit), basis)
            assert np.max(np.abs(block - dense_block)) <= 1e-13
            assert abs(leakage - dense_leakage) <= 1e-13
            assert np.max(np.abs(block - expected)) <= 1e-10 and leakage <= 1e-10

    def test_circuit_on_another_register(self):
        with pytest.raises(ValueError, match="does not match a 4-qubit register"):
            restrict(Circuit(2, (h(1),)), scd_logical_basis(1))
        with pytest.raises(ValueError, match="does not match a 4-qubit register"):
            restrict(Circuit(8, (h(1),)), scd_logical_basis(1))


def test_restricted_block_is_unitary_when_leak_free():
    from dfsqft import synth_qft_wcd

    block, leakage = restrict(circuit_unitary(synth_qft_wcd(2)), wcd_logical_basis(2))
    assert leakage < 1e-10
    assert is_unitary(block, atol=1e-10)
