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
    Gate,
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
    synth_qft_scd,
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



def _qubit_reference(u: np.ndarray, arr: np.ndarray, t: int, n: int) -> np.ndarray:
    """A (2, 2) or (2, 2, k) rotation on qubit t by out-of-place formulas on
    contiguous copies of the two halves, u-first; a diagonal u skips its
    zero off-diagonal products."""
    work = np.array(arr, dtype=complex).reshape(2**n, -1)
    parts = work.reshape(-1, 2, 1 << (t - 1), work.shape[1])
    a0, a1 = parts[:, 0].copy(), parts[:, 1].copy()
    if not (u[0, 1].any() or u[1, 0].any()):
        parts[:, 0] = np.multiply(u[0, 0], a0)
        parts[:, 1] = np.multiply(u[1, 1], a1)
    else:
        parts[:, 0] = np.multiply(u[0, 0], a0) + np.multiply(u[0, 1], a1)
        parts[:, 1] = np.multiply(u[1, 0], a0) + np.multiply(u[1, 1], a1)
    return work.reshape(arr.shape)


def _layer_reference(layer: np.ndarray, arr: np.ndarray, n: int) -> np.ndarray:
    """A noise layer one qubit at a time, qubit 1 first: the rounding that
    _propagate must reproduce for a lone layer."""
    for t in range(1, n + 1):
        arr = _qubit_reference(layer, arr, t, n)
    return arr


def _compose_reference(u: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """u @ frame for one column's (2, 2) matrices, entry by entry: the sum of
    the two products u[i, l] * frame[l, j], each formed u-first by numpy on
    two-element rows (a one-element product rounds in another loop)."""
    out = np.empty((2, 2), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            products = np.multiply(u[i, :], frame[:, j])
            out[i, j] = products[0] + products[1]
    return out


def _frames_reference(ops: list, arr: np.ndarray, n: int) -> np.ndarray:
    """ops one column at a time with pending per-qubit frames: a layer is
    composed onto each qubit's frame (_compose_reference), a qubit's frame
    is applied by _qubit_reference just before a gate touches it, the
    gate's qubits in ascending order, and what is still pending at the end
    is applied qubit 1 first. Gates run by _gate_reference."""
    columns = np.array(arr, dtype=complex).reshape(2**n, -1)
    for c in range(columns.shape[1]):
        work = columns[:, c:c + 1].copy()
        frames: dict[int, np.ndarray] = {}
        for op in ops:
            if isinstance(op, Gate):
                for q in sorted(op.qubits):
                    if q in frames:
                        work = _qubit_reference(frames.pop(q)[:, :, None], work, q, n)
                work = _gate_reference(op, work, n)
            else:
                u = op.reshape(2, 2, -1)[:, :, c]
                frames = {q: _compose_reference(u, frames[q]) if q in frames else u
                          for q in range(1, n + 1)}
        for q in sorted(frames):
            work = _qubit_reference(frames[q][:, :, None], work, q, n)
        columns[:, c] = work[:, 0]
    return columns.reshape(arr.shape)


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


def _gate_reference(gate, arr: np.ndarray, n: int) -> np.ndarray:
    """An H, R, CR or CN gate by out-of-place formulas on contiguous copies
    of the halves a0 and a1 (for CR and CN the quarters where the control is
    1), H, R and CR on the float64 view; P by _phase_reference."""
    if gate.kind == "P":
        return _phase_reference(*gate.qubits, gate.angle, arr, n)
    work = np.array(arr, dtype=complex).reshape(2**n, -1)
    view = work if gate.kind == "CN" else work.view(float)
    every = slice(None)
    if len(gate.qubits) == 1:
        parts = view.reshape(-1, 2, 1 << (gate.qubits[0] - 1), view.shape[1])
        at0, at1 = (every, 0), (every, 1)
    else:
        control, target = gate.qubits
        high, low = max(control, target), min(control, target)
        parts = view.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << (low - 1), view.shape[1])
        at0 = (every, 1, every, 0) if control == high else (every, 0, every, 1)
        at1 = (every, 1, every, 1)
    a0, a1 = parts[at0].copy(), parts[at1].copy()
    if gate.kind == "H":
        h_ = statevector._H
        parts[at0], parts[at1] = h_ * a0 + h_ * a1, h_ * a0 - h_ * a1
    elif gate.kind == "CN":
        parts[at0], parts[at1] = a1, a0
    else:
        c, s = math.cos(gate.angle), math.sin(gate.angle)
        parts[at0], parts[at1] = c * a0 - s * a1, s * a0 + c * a1
    return work.reshape(arr.shape)


def _random_states(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return states / np.linalg.norm(states, axis=0)


class TestNoiseLayerBits:
    """_propagate applies a noise layer with the bits of the reference, on
    every register size and column count the noise runs use (up to the
    12-qubit wcd 6 and scd 3 runs, whose chunks hold 8 trials); one
    column rounds as a lone state does."""

    @pytest.mark.parametrize("model", list(CollectiveModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 9)
                                      for k in (1, 2, 3, 7, 40, 64, 72, 128)]
                             + [(n, k) for n in range(9, 13) for k in (1, 4, 8)])
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
                # one column rounds as a lone state, with the layer's (2, 2) matrix
                expected = _layer_reference(layer.reshape(2, 2) if k == 1 else layer, arr, n)
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


def _every_gate(n: int, rng: np.random.Generator) -> list:
    """H and R on every qubit, CR and CN on every ordered pair."""
    gates = []
    for i in range(1, n + 1):
        gates += [h(i), r(i, rng.uniform(0.0, 2.0 * math.pi))]
        for j in range(1, n + 1):
            if i != j:
                gates += [cr(i, j, rng.uniform(0.0, 2.0 * math.pi)), cn(i, j)]
    return gates


class TestGateBits:
    """H, R, CR and CN update the working array in place with the bits of
    the out-of-place formulas on contiguous copies of the halves."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_halves_by_index_arithmetic(self, n):
        columns = 3
        rows = np.arange(2**n)
        array = rows[:, None] * columns + np.arange(columns)

        def bit(q: int) -> np.ndarray:
            return (rows >> (q - 1)) & 1

        # (qubits, the rows both halves are drawn from); qubits[-1] splits them
        supports = [((i,), rows >= 0) for i in range(1, n + 1)]
        supports += [((i, j), bit(i) == 1) for i in range(1, n + 1)
                     for j in range(1, n + 1) if i != j]
        for qubits, selected in supports:
            halves = statevector._halves(array, qubits)
            assert np.shares_memory(halves, array)
            for b in (0, 1):
                expected = rows[selected & (bit(qubits[-1]) == b)]
                np.testing.assert_array_equal(
                    halves[b].reshape(-1, columns), expected[:, None] * columns + np.arange(columns))

    @pytest.mark.parametrize("k", [None, 1, 2, 3, 40, 64], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_gate(self, n, k):
        rng = np.random.default_rng([n, k or 0])
        arr = _random_states(rng, (2**n,) if k is None else (2**n, k))
        for gate in _every_gate(n, rng):
            got = statevector._propagate([gate], arr, n)
            expected = _gate_reference(gate, arr, n)
            assert got.shape == arr.shape
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64),
                                          err_msg=f"{gate}")

    @pytest.mark.parametrize("k", [None, 3], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize("n", [2, 5])
    def test_gate_list(self, n, k):
        """A whole list reuses each support's views: it matches the gates
        folded one at a time."""
        rng = np.random.default_rng([n, k or 0, 1])
        gates = _every_gate(n, rng) + [p(i, j, 0.3 * i + j) for i in range(1, n + 1)
                                       for j in range(1, n + 1) if i != j]
        gates = [gates[i] for i in rng.permutation(len(gates))] * 2
        arr = _random_states(rng, (2**n,) if k is None else (2**n, k))
        expected = arr
        for gate in gates:
            expected = _gate_reference(gate, expected, n)
        got = statevector._propagate(gates, arr, n)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def _noisy_ops(n: int, k: int | None, rng: np.random.Generator, gates: int = 32) -> list:
    """An op list as run_trials builds it under per-gate noise: full SCD and
    diagonal WCD layers in turn between a sample of gates of every kind
    (every gate and support up to n = 3), a layer first and last."""
    pool = _every_gate(n, rng) + [p(i, j, 0.3 * i + j) for i in range(1, n + 1)
                                  for j in range(1, n + 1) if i != j]
    sample = [pool[i] for i in rng.permutation(len(pool))[:gates]]
    columns = () if k is None else (k,)

    def layer(g: int) -> np.ndarray:
        model = (CollectiveModel.SCD, CollectiveModel.WCD)[g % 2]
        return _rotations(rng.uniform(0.0, 2.0 * math.pi, columns + (len(model.axes),)), model)

    return [op for g, gate in enumerate(sample) for op in (layer(g), gate)] + [layer(len(sample))]


class TestLayoutAcrossOps:
    """Noise layers become pending per-qubit frames, applied when a gate
    touches a qubit and at the end: op lists as run_trials builds them under
    per-gate noise match the column-at-a-time frame reference bit for bit,
    and the same ops folded one _propagate call at a time (each layer then
    applied at once) to within rounding."""

    @pytest.mark.parametrize("k", [None, 1, 4, 40], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize("n", range(2, 13))
    def test_noisy_op_list(self, n, k):
        rng = np.random.default_rng([n, k or 0, 2])
        ops = _noisy_ops(n, k, rng)
        arr = _random_states(rng, (2**n,) if k is None else (2**n, k))
        # as run_trials hands the ops over, with a gate first and last, and
        # with two layers in a row
        for case in (ops, ops[1:-1], ops[:3] + ops[4:]):
            got = statevector._propagate(case, arr, n)
            assert got.shape == arr.shape
            expected = _frames_reference(case, arr, n)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
            eager = arr
            for op in case:
                eager = statevector._propagate([op], eager, n)
            assert np.max(np.abs(got - eager)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_columns_do_not_depend_on_the_batch(self, n):
        """The first k columns of a batch of 64 keep their bits in a batch
        of their own, for k = 1, 2, 3, 7 and 40; on one qubit too, where a
        1-column frame flushes with 0-d coefficients, as a lone state's."""
        rng = np.random.default_rng([n, 3])
        ops = _noisy_ops(n, 64, rng)
        arr = _random_states(rng, (2**n, 64))
        whole = statevector._propagate(ops, arr, n)
        for k in (1, 2, 3, 7, 40):
            part = [op if isinstance(op, Gate) else op[:, :, :k] for op in ops]
            got = statevector._propagate(part, arr[:, :k], n)
            np.testing.assert_array_equal(got.view(np.uint64), whole[:, :k].view(np.uint64))

    def test_one_qubit_noise_steps_follow_the_gates(self, monkeypatch):
        """On the per-gate noise op list of the scd 2 QFT (8 qubits, 115
        gates, 116 full layers) the layers mix no more qubits than the gates
        touch, plus one final flush per qubit: at most 204 + 8 one-qubit
        noise steps, where mixing each layer at once takes 116 x 8 = 928."""
        circuit = synth_qft_scd(2)
        n, k = circuit.n_qubits, 4
        rng = np.random.default_rng(9)
        layers = _rotations(rng.uniform(0.0, 2.0 * math.pi, (len(circuit) + 1, k, 3)),
                            CollectiveModel.SCD).transpose(2, 0, 1, 3)
        ops = [op for layer, gate in zip(layers, circuit.gates) for op in (layer, gate)]
        ops.append(layers[-1])
        mix, steps = statevector._mix, []

        def spy(u, halves, products):
            if halves.dtype == complex:  # a noise flush; R and CR mix float64 views
                steps.append(halves.shape)
            return mix(u, halves, products)

        monkeypatch.setattr(statevector, "_mix", spy)
        statevector._propagate(ops, _random_states(rng, (2**n, k)), n)
        bound = sum(len(gate.qubits) for gate in circuit.gates) + n
        assert bound == 212
        assert 0 < len(steps) <= bound


class TestUfuncBuffer:
    """_propagate runs with numpy's ufunc buffer at _UFUNC_BUFFER elements
    and hands the caller's size back, also when an op raises; the size moves
    no bit of any gate or noise step."""

    @pytest.fixture
    def caller_size(self):
        old = np.setbufsize(4096)
        try:
            yield 4096
        finally:
            np.setbufsize(old)

    def test_scoped_to_the_call(self, monkeypatch, caller_size):
        mix, sizes = statevector._mix, []

        def spy(u, halves, products):
            sizes.append(np.getbufsize())
            return mix(u, halves, products)

        monkeypatch.setattr(statevector, "_mix", spy)
        rng = np.random.default_rng(4)
        ops = _noisy_ops(3, 4, rng)
        statevector._propagate(ops, _random_states(rng, (8, 4)), 3)
        assert sizes and set(sizes) == {statevector._UFUNC_BUFFER}
        assert np.getbufsize() == caller_size
        with pytest.raises(ValueError):  # a layer of three coefficients
            statevector._propagate([h(1), np.ones(3)], _random_states(rng, (8, 4)), 3)
        assert np.getbufsize() == caller_size

    @pytest.mark.parametrize("n", range(1, 13))
    def test_buffer_size_moves_no_bit(self, monkeypatch, n):
        rng = np.random.default_rng([n, 5])
        cases = []  # (ops, input)
        for k in (None, 1, 4, 40):
            columns = (2**n,) if k is None else (2**n, k)
            cases.append((_noisy_ops(n, k, rng), _random_states(rng, columns)))
            if n <= 8:
                gates = _every_gate(n, rng) + [p(i, j, 0.3 * i + j) for i in range(1, n + 1)
                                               for j in range(1, n + 1) if i != j]
                cases.append((gates, _random_states(rng, columns)))
        runs = []
        for size in (16, statevector._UFUNC_BUFFER, 8192):
            monkeypatch.setattr(statevector, "_UFUNC_BUFFER", size)
            runs.append([statevector._propagate(ops, arr, n) for ops, arr in cases])
        for run in runs[1:]:
            for got, expected in zip(run, runs[0]):
                np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestKernelMemory:
    """At n = 10 _propagate holds its working array and scratch twice that
    size, plus, only when a noise layer runs, the (n, 2, 2, k) frames and a
    coefficient tile of a few kB, whose size does not grow with n; the
    result is a copy of the working array, so it keeps no scratch alive."""

    # 4 MB of work, so numpy's small ufunc buffers and the tile stay inside
    # the 0.25x margins
    N, K = 10, 256
    WORK = 2**N * K * 16  # bytes of the complex working array
    FRAMES = N * 4 * K * 16  # bytes of the frames, 0.04x the working array

    def _peak(self, ops) -> int:
        arr = _random_states(np.random.default_rng(5), (2**self.N, self.K))
        tracemalloc.start()
        try:
            statevector._propagate(ops, arr, self.N)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _layers(self, count: int) -> list:
        rng = np.random.default_rng(6)
        angles = rng.uniform(0.0, 2.0 * math.pi, (count, self.K, 3))
        return list(_rotations(angles, CollectiveModel.SCD).transpose(2, 0, 1, 3))

    def test_gates_allocate_no_tile(self):
        assert self._peak(synth_qft(self.N).gates) < 3.25 * self.WORK

    def test_a_noise_layer_adds_one_tile(self):
        ops = list(synth_qft(self.N).gates) + self._layers(1)
        assert self._peak(ops) < 3.25 * self.WORK + self.FRAMES

    def test_noise_between_gates_adds_one_tile(self):
        # a layer before every gate: composing a layer onto the frames
        # briefly holds their eight products, twice the frames
        gates = synth_qft(self.N).gates
        layers = self._layers(len(gates) + 1)
        ops = [op for layer, gate in zip(layers, gates) for op in (layer, gate)] + layers[-1:]
        assert self._peak(ops) < 3.25 * self.WORK + 3 * self.FRAMES

    @pytest.mark.parametrize("k", [1, 40])
    def test_the_tile_does_not_grow_with_n(self, monkeypatch, k):
        # every flush's coefficients are a view of the tile
        mix, tiles = statevector._mix, set()

        def spy(u, halves, products):
            if u.dtype == complex:
                tiles.add(u.base.nbytes)
            return mix(u, halves, products)

        monkeypatch.setattr(statevector, "_mix", spy)
        rng = np.random.default_rng(7)
        for n in (9, 10, 12):
            layer = _rotations(rng.uniform(0.0, 2.0 * math.pi, (k, 3)), CollectiveModel.SCD)
            statevector._propagate([layer], _random_states(rng, (2**n, k)), n)
        assert len(tiles) == 1
        assert tiles.pop() <= 2 * 2 * 2 * statevector._UFUNC_BUFFER * 16

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_arrays_start_on_64_byte_boundaries(self, monkeypatch, k):
        # a flush reads the working array's halves from its first row, the
        # tile from its start and writes the scratch from its start
        mix, starts = statevector._mix, set()

        def spy(u, halves, products):
            if u.dtype == complex:
                starts.update(a.ctypes.data % 64 for a in (u, halves, products))
            return mix(u, halves, products)

        monkeypatch.setattr(statevector, "_mix", spy)
        rng = np.random.default_rng(8)
        for n in (2, 6):
            layer = _rotations(rng.uniform(0.0, 2.0 * math.pi, (k, 3)), CollectiveModel.SCD)
            statevector._propagate([layer], _random_states(rng, (2**n, k)), n)
        assert starts == {0}

    @pytest.mark.parametrize("noisy", [False, True], ids=["gates", "noise"])
    def test_result_keeps_only_its_own_bytes(self, noisy):
        # circuit_unitary(synth_qft(10)) is 16 MB; a result that viewed
        # scratch would keep 32 MB alive
        circuit = synth_qft(10)
        tracemalloc.start()
        try:
            if noisy:
                ops = list(circuit.gates) + self._layers(1)
                result = statevector._propagate(ops, np.eye(2**10, dtype=complex)[:, :self.K], 10)
            else:
                result = circuit_unitary(circuit)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert result.base is None or result.base.nbytes == result.nbytes
        assert kept < 1.01 * result.nbytes + 64 * 1024


def test_restricted_block_is_unitary_when_leak_free():
    from dfsqft import synth_qft_wcd

    block, leakage = restrict(circuit_unitary(synth_qft_wcd(2)), WCD.basis(2))
    assert leakage < 1e-10
    assert unitarity_defect(block) <= 1e-10
