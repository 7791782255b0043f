import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

from dfsqft import (
    PLAIN,
    SCD,
    WCD,
    Circuit,
    StateVector,
    SubspaceBasis,
    apply_circuit,
    circuit_unitary,
    cn,
    cr,
    dft_matrix,
    fidelity,
    global_phase_agreement,
    h,
    p,
    r,
    restrict,
    scd_hadamard,
    scd_phase,
    synth_qft,
    unitarity_defect,
)
from dfsqft import statevector
from dfsqft.dfs import CollectiveModel
from dfsqft.noise import _rotations
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
        s = PLAIN.state("10")
        assert s.n_qubits == 2
        np.testing.assert_array_equal(s.amplitudes, [0, 0, 1, 0])
        np.testing.assert_array_equal(StateVector.basis(2, 1).amplitudes, [0, 1, 0, 0])

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([1.0, 1.0]))

    def test_nan_refused(self):
        # a NaN norm compares False against any tolerance
        with pytest.raises(ValueError, match="norm") as info:
            StateVector(np.array([np.nan, 0]))
        assert "\n" not in str(info.value)

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError, match="power of two"):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_register_cap(self):
        cap = r"^register size must be an integer in 1\.\.14, got "
        with pytest.raises(ValueError, match=cap + "15$"):
            StateVector.basis(15, 0)
        # 2^60 amplitudes cannot be allocated: only a check made first gives this error
        with pytest.raises(ValueError, match=cap + "60$"):
            StateVector.basis(60, 0)
        with pytest.raises(ValueError, match=cap + "60$"):
            PLAIN.state("0" * 60)

    @pytest.mark.parametrize("n_qubits", [-1, 0, 1.5, True])
    def test_register_below_one_or_fractional(self, n_qubits):
        # 2**-1 is 0.5, so the check must come before any 2**n
        with pytest.raises(ValueError, match=r"^register size must be an integer in 1\.\.14, "
                                             rf"got {re.escape(repr(n_qubits))}$"):
            StateVector.basis(n_qubits, 0)

    @pytest.mark.parametrize("index", [1.5, True, "1"])
    def test_non_integer_index(self, index):
        # True would index every amplitude, and 1.5 fail inside numpy
        with pytest.raises(ValueError, match=rf"^basis index {index} out of range for 2 qubits$"):
            StateVector.basis(2, index)

    def test_numpy_integer_register(self):
        assert StateVector.basis(np.int64(2), 3).n_qubits == 2
        assert StateVector.basis(2, np.int64(3)).amplitudes[3] == 1.0

    def test_amplitudes_frozen(self):
        s = StateVector.basis(1, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_circuit(PLAIN.state("0"), Circuit(1, (h(1),)))
        np.testing.assert_allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)

    def test_controlled_phase(self):
        theta = 0.7
        out = apply_circuit(PLAIN.state("11"), Circuit(2, (p(1, 2, theta),)))
        np.testing.assert_allclose(out.amplitudes[3], np.exp(1j * theta), atol=1e-15)
        out = apply_circuit(PLAIN.state("01"), Circuit(2, (p(1, 2, theta),)))
        np.testing.assert_array_equal(out.amplitudes, PLAIN.state("01").amplitudes)

    def test_rotation_on_zero(self):
        alpha = 0.3
        out = apply_circuit(PLAIN.state("0"), Circuit(1, (r(1, alpha),)))
        np.testing.assert_allclose(out.amplitudes, [math.cos(alpha), math.sin(alpha)], atol=1e-15)

    def test_controlled_rotation_idle_when_control_clear(self):
        out = apply_circuit(PLAIN.state("01"), Circuit(2, (cr(2, 1, 1.0),)))
        np.testing.assert_array_equal(out.amplitudes, PLAIN.state("01").amplitudes)

    def test_index_out_of_range(self):
        state = StateVector.basis(1, 0)
        with pytest.raises(ValueError, match="exceeds a 1-qubit register"):
            apply_circuit(state, Circuit(state.n_qubits, (h(2),)))

    @pytest.mark.parametrize("gate", GATE_SAMPLES, ids=lambda g: f"{g.kind}{g.qubits}")
    def test_norm_preserved_on_random_states(self, gate):
        rng = np.random.default_rng(11)
        for _ in range(25):
            out = apply_circuit(random_state(3, rng), Circuit(3, (gate,)))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("gate", GATE_SAMPLES, ids=lambda g: f"{g.kind}{g.qubits}")
    def test_agrees_with_single_gate_unitary(self, gate):
        rng = np.random.default_rng(7)
        unitary = circuit_unitary(Circuit(3, (gate,)))
        for _ in range(100):
            state = random_state(3, rng)
            via_gate = apply_circuit(state, Circuit(3, (gate,))).amplitudes
            via_matrix = unitary @ state.amplitudes
            np.testing.assert_allclose(via_gate, via_matrix, atol=1e-12)

    @pytest.mark.parametrize("gate", GATE_SAMPLES, ids=lambda g: f"{g.kind}{g.qubits}")
    def test_agrees_with_index_arithmetic_oracle(self, gate):
        rng = np.random.default_rng(3)
        oracle = gate_matrix_oracle(gate, 3)
        for _ in range(20):
            state = random_state(3, rng)
            np.testing.assert_allclose(
                apply_circuit(state, Circuit(3, (gate,))).amplitudes, oracle @ state.amplitudes,
                atol=1e-12,
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
        assert global_phase_agreement(reversal @ f, u) >= 1.0 - 1e-10

    def test_synthesized_circuits_are_unitary(self):
        for n in (1, 2, 3, 4):
            assert unitarity_defect(circuit_unitary(synth_qft(n))) < 1e-10

    def test_wider_register_embedding(self):
        # a wider register is the circuit's own: the same gates on a larger Circuit
        narrow = Circuit(1, (h(1),))
        u = circuit_unitary(Circuit(2, narrow.gates))
        np.testing.assert_allclose(u, np.kron(np.eye(2), circuit_unitary(narrow)))
        with pytest.raises(ValueError, match="exceeds a 1-qubit register"):
            Circuit(1, (h(2),))

    def test_dense_cap(self):
        # 2^11 x 2^11 complex is 64 MB, and the array grows 4x per qubit
        with pytest.raises(ValueError) as info:
            circuit_unitary(Circuit(11))
        assert str(info.value) == "register size must be an integer in 1..10, got 11"

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


def _refusal(call, match: str) -> None:
    """call raises a one-line ValueError matching match."""
    with pytest.raises(ValueError, match=match) as info:
        call()
    assert "\n" not in str(info.value)


class TestSubspaceBasis:
    def test_orthonormality_enforced(self):
        _refusal(lambda: SubspaceBasis(1, np.array([[1.0, 1.0], [0.0, 0.0]])), "orthonormal")
        tilted = np.array([[1.0, math.sqrt(0.5)], [0.0, math.sqrt(0.5)]])
        _refusal(lambda: SubspaceBasis(1, tilted), "orthonormal")

    def test_register_consistency(self):
        _refusal(lambda: SubspaceBasis(2, np.array([[1.0], [0.0]])), "register")
        _refusal(lambda: SubspaceBasis(1, np.array([1.0, 0.0])), "register")
        _refusal(lambda: SubspaceBasis(1.5, np.eye(2)),
                 r"^register size must be an integer in 1\.\.14, got 1\.5$")

    def test_empty_refused(self):
        _refusal(lambda: SubspaceBasis(1, np.zeros((2, 0))), "at least one vector")

    def test_column_norm_refused(self):
        # off by 1e-11: the Gram defect, about 2e-11, passes MATRIX_ATOL
        # (1e-10), so only the per-column norm check can refuse it
        _refusal(lambda: SubspaceBasis(1, np.array([[1.0 + 1e-11], [0.0]])), "norm")

    def test_nan_refused(self):
        _refusal(lambda: SubspaceBasis(1, np.array([[np.nan], [0.0]])), "norm")

    def test_checks_span_column_chunks(self, monkeypatch):
        # one column per chunk: a defect between chunks, or in the last one, still shows
        monkeypatch.setattr(statevector, "_GRAM_CHUNK", 4)
        SubspaceBasis(2, np.eye(4)[:, [0, 1, 3]])
        tilted = np.eye(4)[:, [0, 1, 2]]
        tilted[:, 2] = [math.sqrt(0.5), 0.0, math.sqrt(0.5), 0.0]
        _refusal(lambda: SubspaceBasis(2, tilted), "orthonormal")
        nan = np.eye(4)[:, [0, 1, 2]]
        nan[3, 2] = np.nan
        _refusal(lambda: SubspaceBasis(2, nan), "norm")

    def test_checks_hold_no_copy_of_the_whole_basis(self):
        # 2^12 x 256 complex is 16.8 MB; the validated copy is the only full-size
        # array, and the column chunks of the checks stay at a few MB
        columns = np.eye(4096, 256, dtype=complex)
        tracemalloc.start()
        try:
            SubspaceBasis(12, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < columns.nbytes * 3 // 2

    def test_matrix_frozen_and_copied(self):
        columns = np.eye(4)[:, [1, 2]]
        basis = SubspaceBasis(2, columns)
        columns[1, 0] = 0.0
        assert basis.matrix[1, 0] == 1.0 and len(basis) == 2
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 1.0

    def test_writeable_complex_array_is_copied_not_frozen(self):
        # complex, C-ordered and owning its data: only writeability demands the copy
        columns = np.ascontiguousarray(np.eye(4, dtype=complex)[:, [1, 2]])
        assert columns.flags.owndata and columns.flags.c_contiguous
        basis = SubspaceBasis(2, columns)
        assert columns.flags.writeable
        assert not np.shares_memory(basis.matrix, columns)
        columns[1, 0] = 0.0
        assert basis.matrix[1, 0] == 1.0

    def test_frozen_array_of_its_own_is_kept(self):
        columns = np.eye(4, dtype=complex)[:, [1, 2]].copy()
        columns.flags.writeable = False
        assert SubspaceBasis(2, columns).matrix is columns

    @pytest.mark.parametrize("columns", [
        np.eye(4)[:, [1, 2]],  # real
        np.asfortranarray(np.eye(4, dtype=complex)[:, [1, 2]]),  # F-ordered
        np.eye(4, dtype=complex)[:, 1:3],  # a view
    ], ids=["real", "fortran", "view"])
    def test_frozen_array_kept_only_when_complex_c_ordered_and_owned(self, columns):
        columns.flags.writeable = False
        matrix = SubspaceBasis(2, columns).matrix
        assert matrix.flags.owndata and matrix.flags.c_contiguous and matrix.dtype == complex
        assert not np.shares_memory(matrix, columns)

    @pytest.mark.parametrize("code, n", [(WCD, 1), (WCD, 3), (SCD, 2)])
    def test_block_code_basis_is_one_owned_kron(self, code, n):
        matrix = code.basis(n).matrix
        assert matrix.flags.owndata and not matrix.flags.writeable
        expected = functools.reduce(np.kron, [code.states] * n)
        assert matrix.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestRestrict:
    def test_identity_on_singlet_basis(self):
        basis = SCD.basis(1)  # 2 vectors on 4 qubits
        block, leakage = restrict(np.eye(16, dtype=complex), basis)
        np.testing.assert_allclose(block, np.eye(2), atol=1e-12)
        assert leakage < 1e-12

    def test_wcd_hadamard_restricts_to_hadamard(self):
        from dfsqft import wcd_hadamard

        block, leakage = restrict(circuit_unitary(wcd_hadamard(1, 1)), WCD.basis(1))
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(block, expected, atol=1e-10)
        assert leakage < 1e-10

    def test_full_leakage(self):
        # R(pi/2) maps |0> to |1>, entirely outside span{|0>}
        basis = SubspaceBasis(1, np.array([[1.0], [0.0]]))
        _, leakage = restrict(circuit_unitary(Circuit(1, (r(1, math.pi / 2),))), basis)
        assert abs(leakage - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            restrict(np.eye(4), SCD.basis(1))

    @pytest.mark.parametrize("n", [1, 2])
    def test_scd_logical_gate_circuits_match_their_unitaries(self, n):
        basis = SCD.basis(n)
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
            restrict(Circuit(2, (h(1),)), SCD.basis(1))
        with pytest.raises(ValueError, match="does not match a 4-qubit register"):
            restrict(Circuit(8, (h(1),)), SCD.basis(1))



def _layer_reference(layer: np.ndarray, arr: np.ndarray, n: int) -> np.ndarray:
    """A noise layer one qubit at a time on contiguous copies of the two
    halves, u-first: the rounding that _propagate must reproduce."""
    work = np.array(arr, dtype=complex).reshape(2**n, -1)
    diagonal = not (layer[0, 1].any() or layer[1, 0].any())
    for t in range(1, n + 1):
        parts = work.reshape(-1, 2, 1 << (t - 1), work.shape[1])
        a0, a1 = parts[:, 0].copy(), parts[:, 1].copy()
        if diagonal:
            parts[:, 0] = np.multiply(layer[0, 0], a0)
            parts[:, 1] = np.multiply(layer[1, 1], a1)
        else:
            parts[:, 0] = np.multiply(layer[0, 0], a0) + np.multiply(layer[0, 1], a1)
            parts[:, 1] = np.multiply(layer[1, 0], a0) + np.multiply(layer[1, 1], a1)
    return work.reshape(arr.shape)


def _phase_reference(i: int, j: int, angle: float, arr: np.ndarray, n: int) -> np.ndarray:
    """P(i, j, angle) in two passes: the (1, 1) quarter times the phase into
    a contiguous array, amplitude first, then copied back."""
    work = np.array(arr, dtype=complex).reshape(2**n, -1)
    high, low = max(i, j), min(i, j)
    quarter = work.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << (low - 1), work.shape[1])[:, 1, :, 1]
    product = np.empty(quarter.shape, dtype=complex)
    np.multiply(quarter, complex(math.cos(angle), math.sin(angle)), out=product)
    quarter[...] = product
    return work.reshape(arr.shape)


def _random_states(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return states / np.linalg.norm(states, axis=0)


class TestNoiseLayerBits:
    """_propagate applies a noise layer with the bits of the reference, on
    every register size and column count the noise runs use; a (1, k)
    coefficient tile at n = 1 fails at k = 1."""

    @pytest.mark.parametrize("model", list(CollectiveModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 40, 64])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_stacked_layer(self, n, k, model):
        rng = np.random.default_rng([n, k, len(model.axes)])
        axes = len(model.axes)
        for angles in (rng.uniform(0.0, 2.0 * math.pi, (3, k, axes)),
                       rng.normal(0.0, 0.3, (3, k, axes))):
            # the middle event of three, as run_trials hands it over: a strided view
            layer = _rotations(angles, model).transpose(2, 0, 1, 3)[1]
            for _ in range(2):
                arr = _random_states(rng, (2**n, k))
                got = statevector._propagate([layer], arr, n)
                expected = _layer_reference(layer, arr, n)
                np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("model", list(CollectiveModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_layer_on_a_vector(self, n, model):
        rng = np.random.default_rng([n, len(model.axes)])
        for _ in range(4):
            layer = _rotations(rng.uniform(0.0, 2.0 * math.pi, len(model.axes)), model)
            vector = _random_states(rng, (2**n,))
            got = statevector._propagate([layer], vector, n)
            expected = _layer_reference(layer, vector, n)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

class TestPhaseGateBits:
    """A P gate multiplies the (1, 1) quarter in place with the bits of the
    product formed into contiguous scratch and copied back."""

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 40, 64])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_in_place_phase(self, n, k):
        rng = np.random.default_rng([n, k])
        arr = _random_states(rng, (2**n, k))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    got = statevector._propagate([p(i, j, angle)], arr, n)
                    expected = _phase_reference(i, j, angle, arr, n)
                    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_restricted_block_is_unitary_when_leak_free():
    from dfsqft import synth_qft_wcd

    block, leakage = restrict(circuit_unitary(synth_qft_wcd(2)), WCD.basis(2))
    assert leakage < 1e-10
    assert unitarity_defect(block) <= 1e-10
