"""Shared helpers: random normalized states and independent oracles for gate
matrices, collective operators, the SCD null space, the lowering matrix and
the encoded basis states."""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from dfsqft import Gate, StateVector, verify
from dfsqft.dfs import NULLSPACE_TOL
from dfsqft.scd import _BLOCK_STATES

GOLDEN_DIR = __file__.rsplit("/", 1)[0] + "/golden"


@pytest.fixture
def cold_suite_inputs():
    """The verify suites' memo (verify._INPUTS), emptied before the test and
    again after it: a builder the test replaces is then called on the next
    run, and what it built is not kept for later tests."""
    verify._INPUTS.clear()
    yield verify._INPUTS
    verify._INPUTS.clear()


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return StateVector(amps / np.linalg.norm(amps))


def gate_matrix_oracle(gate: Gate, n: int) -> np.ndarray:
    """Full-register matrix of one gate, built by index arithmetic on basis
    states (bit t-1 of the index is qubit t). Independent of the simulator's
    slicing kernel on purpose."""
    dim = 2**n
    matrix = np.zeros((dim, dim), dtype=complex)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for col in range(dim):
        if gate.kind == "H":
            t = gate.qubits[0]
            bit = (col >> (t - 1)) & 1
            flipped = col ^ (1 << (t - 1))
            matrix[col if bit == 0 else flipped, col] += inv_sqrt2
            matrix[flipped if bit == 0 else col, col] += inv_sqrt2 * (-1.0 if bit else 1.0)
        elif gate.kind == "R":
            t = gate.qubits[0]
            bit = (col >> (t - 1)) & 1
            flipped = col ^ (1 << (t - 1))
            c, s = math.cos(gate.angle), math.sin(gate.angle)
            if bit == 0:
                matrix[col, col] += c
                matrix[flipped, col] += s
            else:
                matrix[flipped, col] += -s
                matrix[col, col] += c
        elif gate.kind == "CN":
            c_idx, t_idx = gate.qubits
            if (col >> (c_idx - 1)) & 1:
                matrix[col ^ (1 << (t_idx - 1)), col] = 1.0
            else:
                matrix[col, col] = 1.0
        elif gate.kind == "P":
            c_idx, t_idx = gate.qubits
            both = ((col >> (c_idx - 1)) & 1) and ((col >> (t_idx - 1)) & 1)
            matrix[col, col] = np.exp(1j * gate.angle) if both else 1.0
        elif gate.kind == "CR":
            c_idx, t_idx = gate.qubits
            if (col >> (c_idx - 1)) & 1:
                bit = (col >> (t_idx - 1)) & 1
                flipped = col ^ (1 << (t_idx - 1))
                c, s = math.cos(gate.angle), math.sin(gate.angle)
                if bit == 0:
                    matrix[col, col] += c
                    matrix[flipped, col] += s
                else:
                    matrix[flipped, col] += -s
                    matrix[col, col] += c
            else:
                matrix[col, col] = 1.0
        else:
            raise ValueError(gate.kind)
    return matrix


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def collective_operator_oracle(n: int, axis: str) -> np.ndarray:
    """Sum over qubits t of I (x) ... (x) sigma_t (x) ... (x) I, built from
    Kronecker products (qubit t is bit t-1, the trailing factor)."""
    total = np.zeros((2**n, 2**n), dtype=complex)
    for t in range(1, n + 1):
        total += np.kron(np.eye(2 ** (n - t)), np.kron(_PAULI[axis], np.eye(2 ** (t - 1))))
    return total


def wcd_state_oracle(bits: str) -> StateVector:
    """Encoded WCD basis state by bit arithmetic: pair (2t, 2t-1) holds |01>
    for logical 0 and |10> for logical 1 (leftmost bit: highest logical qubit)."""
    index = 0
    for t, c in enumerate(reversed(bits), start=1):
        b = int(c)
        index += b * 2 ** (2 * t - 1) + (1 - b) * 2 ** (2 * t - 2)
    return StateVector.basis(2 * len(bits), index)


def scd_state_oracle(bits: str) -> StateVector:
    """Encoded SCD basis state: the kron of one block state per bit."""
    return StateVector(functools.reduce(np.kron, (_BLOCK_STATES[int(c)] for c in bits)))


def logical_basis_oracle(state, n: int) -> np.ndarray:
    """One state builder's 2^n encoded states, stacked as columns in logical index order."""
    return np.column_stack([state(format(l, f"0{n}b")).amplitudes for l in range(2**n)])


def collective_nullspace_oracle(n: int) -> np.ndarray:
    """Common null space of S_x, S_y, S_z from a full SVD of the stacked
    3 * 2^n x 2^n operators, with no use of the structure of S_z."""
    stacked = np.vstack([collective_operator_oracle(n, axis) for axis in "xyz"])
    _, singulars, vh = np.linalg.svd(stacked)
    rank = int(np.sum(singulars > NULLSPACE_TOL))
    return vh[rank:].conj().T


def lowering_matrix_oracle(n: int, weight: int | None = None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weight-(w - 1) indices, weight-w indices, L), where L is the block of
    S_- = (S_x - i S_y)/2 from the first layer to the second and w is weight,
    by default n/2 + 1 (for even n, from the S_z = 0 layer up). S_- sets one
    0 bit with amplitude 1, so L is a real 0/1 matrix; rows and columns
    follow their layer's indices ascending."""
    if weight is None:
        weight = n // 2 + 1
    weights = np.array([bin(l).count("1") for l in range(2**n)])
    kernel = np.flatnonzero(weights == weight - 1)
    upper = np.flatnonzero(weights == weight)
    lowering = np.zeros((upper.size, kernel.size))
    for t in range(n):
        free = np.flatnonzero(((kernel >> t) & 1) == 0)
        lowering[np.searchsorted(upper, kernel[free] | (1 << t)), free] = 1
    return kernel, upper, lowering
