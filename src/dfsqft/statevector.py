"""Dense complex state-vector and unitary-matrix engine.

Basis convention: a register of n qubits (numbered 1..n) is indexed by
l = s_n*2^(n-1) + ... + s_2*2 + s_1, i.e. qubit t supplies bit t-1 of
the basis index and qubit n is the leftmost digit of |s_n ... s_1>.
|0> is the +1 eigenstate of sigma_z.

Unitaries are plain complex ndarrays; a state is one validated read-only
vector and a subspace basis one validated read-only 2^n x k matrix. Every
operation returns new values and never mutates shared state, so all types
are safe to hand between threads.

One loop, _propagate, applies gates and collective-noise layers to one
state or to the columns of a 2^n x k array: the 2^n identity columns for
circuit_unitary, the k basis columns of a subspace for restrict, and the
noise module's trials. Verification compares code-space blocks (k x k) or,
for small gate supports, the unitaries of a few qubits; the 2^n x 2^n
matrix of a large register is never needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, _is_integer

MAX_QUBITS = 14
MAX_DENSE_OPERATOR_QUBITS = 10  # the one cap on 2^n x 2^n arrays: 4 GB complex at n = 14
NORM_ATOL = 1e-12
MATRIX_ATOL = 1e-10
_GRAM_CHUNK = 1 << 18  # amplitudes per column chunk of SubspaceBasis's checks (4 MB)

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitude vector over 2^n basis states."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a 1-D array")
        n = amps.size.bit_length() - 1
        if amps.size < 2 or amps.size != 2**n:
            raise ValueError(f"amplitude count {amps.size} is not a power of two >= 2")
        _check_register(n)
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:  # `not x <= tol`, so that NaN fails
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> StateVector:
        """Computational basis state |index> on n_qubits."""
        _check_register(n_qubits)
        if not _is_integer(index) or not 0 <= index < 2**n_qubits:
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def from_bits(cls, bits: str) -> StateVector:
        """Basis state |s_n ... s_1> from its bit string (qubit n leftmost)."""
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"bit string must be nonempty over 0/1, got {bits!r}")
        return cls.basis(len(bits), int(bits, 2))


def _check_register(n: int, limit: int = MAX_QUBITS) -> None:
    if not _is_integer(n) or not 1 <= n <= limit:
        raise ValueError(f"register size {n!r} is unsupported: "
                         f"it must be an integer in 1..{limit}")


def _slices(n: int, assignments: dict[int, int]) -> tuple:
    # Index tuple over the first n axes; axis n-t carries the bit of qubit t.
    idx: list = [slice(None)] * n
    for axis, bit in assignments.items():
        idx[axis] = bit
    return tuple(idx)


def _apply_1q(arr: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    i0 = _slices(n, {n - qubit: 0})
    i1 = _slices(n, {n - qubit: 1})
    out = np.empty_like(arr)
    out[i0] = u[0, 0] * arr[i0] + u[0, 1] * arr[i1]
    out[i1] = u[1, 0] * arr[i0] + u[1, 1] * arr[i1]
    return out


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _apply_gate_nd(arr: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply one gate to an array whose first n axes are qubit bits (s_n..s_1)."""
    if gate.kind == "H":
        return _apply_1q(arr, _HADAMARD, gate.qubits[0], n)
    if gate.kind == "R":
        return _apply_1q(arr, _rotation(gate.angle), gate.qubits[0], n)
    control, target = gate.qubits
    i10 = _slices(n, {n - control: 1, n - target: 0})
    i11 = _slices(n, {n - control: 1, n - target: 1})
    out = arr.copy()
    if gate.kind == "CN":
        out[i10], out[i11] = arr[i11], arr[i10]
    elif gate.kind == "P":
        out[i11] = arr[i11] * complex(math.cos(gate.angle), math.sin(gate.angle))
    else:  # CR
        c, s = math.cos(gate.angle), math.sin(gate.angle)
        out[i10] = c * arr[i10] - s * arr[i11]
        out[i11] = s * arr[i10] + c * arr[i11]
    return out


def _propagate(ops, arr: np.ndarray, n: int) -> np.ndarray:
    """Apply ops in order to one 2^n vector or to each column of a 2^n x k
    array. An op is a Gate or a noise layer: a (2, 2) unitary, or a (2, 2, k)
    stack of one per column, on every qubit. The input array is released
    once the first op has replaced it."""
    arr = arr.reshape((2,) * n + arr.shape[1:])
    for op in ops:
        if isinstance(op, Gate):
            arr = _apply_gate_nd(arr, op, n)
        else:
            for t in range(1, n + 1):
                arr = _apply_1q(arr, op, t, n)
    return arr.reshape((-1,) + arr.shape[n:])


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """New state with one gate applied; amplitudes mix only across the gate's support."""
    n = state.n_qubits
    if max(gate.qubits) > n:
        raise ValueError(f"gate {gate.kind} on qubits {gate.qubits} exceeds {n}-qubit state")
    return StateVector(_propagate([gate], state.amplitudes, n))


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Fold a whole circuit over a state (application order)."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("circuit and state register sizes differ")
    return StateVector(_propagate(circuit.gates, state.amplitudes, state.n_qubits))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Lower a circuit to its dense matrix; column l is the circuit applied to |l>.
    Circuit.on_register lowers it on a wider register."""
    n = circuit.n_qubits
    _check_register(n, MAX_DENSE_OPERATOR_QUBITS)
    return _propagate(circuit.gates, np.eye(2**n, dtype=complex), n)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; 1 iff the states agree up to global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("dimension mismatch")
    return min(1.0, float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Ordered orthonormal set of states spanning a subspace of one register:
    the columns of ``matrix``, a read-only 2^n x k array."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_register(self.n_qubits)
        matrix = np.array(self.matrix, dtype=complex, order="C")
        if matrix.ndim != 2 or matrix.shape[0] != 2**self.n_qubits:
            raise ValueError(f"basis matrix of shape {matrix.shape} does not fit a "
                             f"{self.n_qubits}-qubit register ({2**self.n_qubits} rows)")
        if matrix.shape[1] == 0:
            raise ValueError("a subspace basis needs at least one vector")
        # column chunks of at most _GRAM_CHUNK amplitudes, so that no
        # temporary the size of the whole basis is made
        step = max(1, _GRAM_CHUNK // matrix.shape[0])
        norm_defects, defects = [], []
        for first in range(0, matrix.shape[1], step):
            chunk = matrix[:, first:first + step]
            norm_defects.append(np.max(np.abs(np.linalg.norm(chunk, axis=0) - 1.0)))
            gram = chunk.conj().T @ matrix
            gram[:, first:first + step] -= np.eye(chunk.shape[1])
            defects.append(np.max(np.abs(gram)))
        norm_defect, defect = np.max(norm_defects), np.max(defects)
        if not norm_defect <= NORM_ATOL:
            raise ValueError(f"basis column norm deviates from 1 by {norm_defect:.3e}, "
                             f"beyond {NORM_ATOL}")
        if not defect <= MATRIX_ATOL:
            raise ValueError(f"basis is not orthonormal (Gram defect {defect:.3e})")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def __len__(self) -> int:
        return self.matrix.shape[1]


def restrict(op: np.ndarray | Circuit, basis: SubspaceBasis) -> tuple[np.ndarray, float]:
    """Compress a register unitary, or a circuit on the basis's register, onto
    a subspace.

    Returns (block, leakage): block[i, j] = <basis_i| op |basis_j>, and
    leakage is the largest residual norm of op|basis_j> outside the span.
    The block is unitary whenever leakage vanishes. A circuit is never
    lowered to its matrix: only the k basis columns run through its gates.
    """
    cols = basis.matrix
    if isinstance(op, Circuit):
        if op.n_qubits != basis.n_qubits:
            raise ValueError(
                f"{op.n_qubits}-qubit circuit does not match a {basis.n_qubits}-qubit register"
            )
        image = _propagate(op.gates, cols, op.n_qubits)
    else:
        dim = 2**basis.n_qubits
        if op.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {op.shape} does not match a {basis.n_qubits}-qubit register"
            )
        image = op @ cols
    block = cols.conj().T @ image
    residual = image - cols @ block
    leakage = float(np.max(np.linalg.norm(residual, axis=0)))
    return block, leakage


def unitarity_defect(matrix: np.ndarray) -> float:
    """Largest entrywise deviation of U^dag U from the identity."""
    dim = matrix.shape[0]
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim))))


def is_unitary(matrix: np.ndarray, atol: float = MATRIX_ATOL) -> bool:
    return unitarity_defect(matrix) <= atol


def global_phase_agreement(a: np.ndarray, b: np.ndarray) -> float:
    """|tr(a^dag b)| / dim: equals 1 iff a = e^{i phi} b for unitary a, b."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    return float(abs(np.trace(a.conj().T @ b)) / a.shape[0])


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, atol: float = MATRIX_ATOL) -> bool:
    return global_phase_agreement(a, b) >= 1.0 - atol
