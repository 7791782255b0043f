"""Property tests over random circuits: every gate kind, 1-5 qubits, angles
that are dyadic fractions of pi, other fractions of pi, +-pi, -0.0 or
arbitrary decimals. The examples are derandomized, so each run draws the
same circuits."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqft import (
    WCD,
    Circuit,
    Gate,
    SubspaceBasis,
    apply_circuit,
    circuit_unitary,
    invert,
    parse_circuit,
    print_circuit,
    restrict,
)

from conftest import gate_matrix_oracle, random_state

ANGLES = st.one_of(
    st.sampled_from([math.pi / 3, -math.pi / 7, math.pi, -math.pi, -0.0, math.pi / 8]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


def examples(count):
    """Derandomized and untimed; a fixed draw needs no saved example database."""
    return settings(max_examples=count, derandomize=True, deadline=None, database=None)


@st.composite
def gates(draw, n):
    kind = draw(st.sampled_from(["H", "R"] + (["CN", "P", "CR"] if n >= 2 else [])))
    if kind in ("H", "R"):
        qubits = (draw(st.integers(1, n)),)
    else:
        control, offset = draw(st.integers(1, n)), draw(st.integers(1, n - 1))
        qubits = (control, (control + offset - 1) % n + 1)
    return Gate(kind, qubits, draw(ANGLES) if kind in ("R", "P", "CR") else None)


@st.composite
def circuits(draw, max_gates=12):
    n = draw(st.integers(1, 5))
    return Circuit(n, tuple(draw(st.lists(gates(n), max_size=max_gates))))


@st.composite
def circuits_with_bases(draw):
    """A random circuit and a basis on its register: the WCD code space of 1
    or 2 logical qubits, or a nonempty set of computational states."""
    if draw(st.booleans()):
        basis = WCD.basis(draw(st.integers(1, 2)))
        n = basis.n_qubits
    else:
        n = draw(st.integers(1, 5))
        indices = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=2**n, unique=True))
        basis = SubspaceBasis(n, np.eye(2**n)[:, indices])
    return Circuit(n, tuple(draw(st.lists(gates(n), max_size=12)))), basis


@st.composite
def single_gates(draw):
    n = draw(st.integers(1, 5))
    return n, draw(gates(n))


@examples(150)
@given(circuits())
def test_print_parse_roundtrip(circuit):
    assert parse_circuit(print_circuit(circuit)) == circuit


@examples(100)
@given(circuits())
def test_inverse_then_circuit_is_identity(circuit):
    unitary = circuit_unitary(invert(circuit) + circuit)
    assert np.max(np.abs(unitary - np.eye(2**circuit.n_qubits))) <= 1e-10


@examples(100)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_apply_circuit_matches_unitary(circuit, seed):
    state = random_state(circuit.n_qubits, np.random.default_rng(seed))
    expected = circuit_unitary(circuit) @ state.amplitudes
    assert np.max(np.abs(apply_circuit(state, circuit).amplitudes - expected)) <= 1e-12


@examples(150)
@given(single_gates())
def test_single_gate_matches_oracle(case):
    n, gate = case
    unitary = circuit_unitary(Circuit(n, (gate,)))
    assert np.max(np.abs(unitary - gate_matrix_oracle(gate, n))) <= 1e-12


@examples(150)
@given(circuits_with_bases())
def test_restrict_circuit_matches_its_unitary(case):
    circuit, basis = case
    block, leakage = restrict(circuit, basis)
    dense_block, dense_leakage = restrict(circuit_unitary(circuit), basis)
    assert np.max(np.abs(block - dense_block)) <= 1e-13
    assert abs(leakage - dense_leakage) <= 1e-13
