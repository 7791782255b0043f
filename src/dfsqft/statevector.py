"""Dense complex state-vector and unitary-matrix engine.

Basis convention: a register of n qubits (numbered 1..n) is indexed by
l = s_n*2^(n-1) + ... + s_2*2 + s_1, i.e. qubit t supplies bit t-1 of
the basis index and qubit n is the leftmost digit of |s_n ... s_1>.
|0> is the +1 eigenstate of sigma_z.

Unitaries are plain complex ndarrays; a state is one validated read-only
vector and a subspace basis one validated read-only 2^n x k matrix (a
state from a bit string is qft.PLAIN.state(bits)). unitarity_defect and
global_phase_agreement return deviations, which callers compare with their
own tolerances. Every operation returns new values and never mutates shared
state, so all types are safe to hand between threads.

One loop, _propagate, applies gates and collective-noise layers to one
state or to the columns of a 2^n x k array: the 2^n identity columns for
circuit_unitary, the k basis columns of a subspace for restrict, and the
noise module's trials. It copies its input once into one private working
array and updates that array in place, gate by gate, so the values it
hands back are new and the caller's array is never written; R and CR are
one 2x2 step of two whole-array ufunc calls, H is its two distinct
products, then their sum and difference, and a full noise layer is n such
steps, each on the top row bit. A run with a full (off-diagonal) noise
layer keeps its working array with the qubits in reverse order, qubit 1 on
the top row bit: each step mixes the top qubit from contiguous halves and
writes it back as the lowest bit, so the n steps take qubits 1..n in turn
and restore the order. Gate-only and dephasing-only runs keep the caller's
order.
Verification compares code-space blocks (k x k) or, for small gate
supports, the unitaries of a few qubits; the 2^n x 2^n matrix of a large
register is never needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, _check_size, _is_integer

MAX_QUBITS = 14
MAX_DENSE_OPERATOR_QUBITS = 10  # the one cap on 2^n x 2^n arrays: 4 GB complex at n = 14
NORM_ATOL = 1e-12
MATRIX_ATOL = 1e-10
_GRAM_CHUNK = 1 << 18  # amplitudes per column chunk of SubspaceBasis's checks (4 MB)

_H = 1.0 / math.sqrt(2.0)  # Hadamard entry: not math.sqrt(0.5), which is 1 ulp larger


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
        _check_size(n, "register size", MAX_QUBITS)
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
        _check_size(n_qubits, "register size", MAX_QUBITS)
        if not _is_integer(index) or not 0 <= index < 2**n_qubits:
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)


def _halves(array: np.ndarray, qubits: tuple) -> np.ndarray:
    """The (2, ...) view of a 2^n-row array whose [0] and [1] are the rows
    where qubits[0] is 0 and 1, or for (control, target) the quarters where
    the control is 1 and the target 0 and 1. The last axis keeps the
    columns, so a (k,) stack of coefficients broadcasts over them."""
    columns = array.shape[1]
    if len(qubits) == 1:
        return array.reshape(-1, 2, 1 << (qubits[0] - 1), columns).swapaxes(0, 1)
    high, low = max(qubits), min(qubits)
    parts = array.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << (low - 1), columns)
    if qubits[0] == high:  # the control-1 rows, target bit on axis 2
        return parts[:, 1].transpose(2, 0, 1, 3, 4)
    return parts[:, :, :, 1].transpose(1, 0, 2, 3, 4)


def _mix(u: np.ndarray, halves: np.ndarray, products: np.ndarray, out: np.ndarray) -> None:
    """out[i] = u[i, 0] * halves[0] + u[i, 1] * halves[1]: the four
    products, u-first, into scratch, then both sums into out, which may be
    the halves themselves."""
    np.multiply(u, halves, out=products)
    np.add(products[:, 0], products[:, 1], out=out)


def _copy_reversed(source: np.ndarray, target: np.ndarray, n: int) -> None:
    """Copy a 2^n vector or 2^n x k array into a 2^n x k target with the
    order of its qubits reversed: row s_n ... s_1 goes to row s_1 ... s_n."""
    bits = (2,) * n + (-1,)
    np.copyto(target.reshape(bits).transpose(tuple(range(n - 1, -1, -1)) + (n,)),
              source.reshape(bits))


def _propagate(ops, arr: np.ndarray, n: int) -> np.ndarray:
    """Apply ops in order to one 2^n vector or to each column of a 2^n x k
    array, and return the result as a new array of the input's shape. An op
    is a Gate or a noise layer: a (2, 2) unitary, or a (2, 2, k) stack of
    one per column, on every qubit.

    The input is copied once into a private C-ordered 2^n x k working array
    (a vector is a 2^n x 1 batch) and released; each op then updates that
    array in place, through scratch twice the size of the working array.
    Every amplitude rounds as in the out-of-place formulas u[0, 0] * a0 +
    u[0, 1] * a1 and u[1, 0] * a0 + u[1, 1] * a1 on contiguous copies of
    the halves a0 and a1, so each complex product is formed u-first: numpy
    rounds it differently with its operands swapped. R and CR take one 2x2
    step, _mix: the four products into scratch, then both sums back into the
    halves, 2 ufunc calls. H ([[h, h], [h, -h]]) has only two distinct
    products, h * a0 and h * a1: one product into scratch, then their sum
    and difference into the halves, 3 ufunc calls. H, R and CR ([[c, -s],
    [s, c]]) have real coefficients and run on the float64 view, where
    (-h) * a is exactly -(h * a) and x + (-y) exactly x - y; a diagonal
    noise layer skips its zero off-diagonal products, which can change at
    most the sign of a zero.

    A noise layer's coefficients are copied, once per layer, into a
    contiguous (2, 2, 2^(n-1), k) tile, allocated once per call and only
    when a noise layer is present (a diagonal layer fills only tile[0] with
    u[0, 0] and u[1, 1]), so numpy merges the inner axes of each product
    instead of looping over a broadcast (k,) row. A diagonal layer is a
    single in-place product per qubit, qubit t reading the tile reshaped to
    the shape of its halves. When the ops hold a full (off-diagonal) layer,
    the working array keeps its qubits in reverse order, qubit 1 on the top
    row bit: the input is copied in by _copy_reversed, gates and diagonal
    layers find qubit q on row bit n + 1 - q, and the result is copied back
    to the caller's order into the first half of scratch, which the
    returned array views. A full layer is then n identical 2x2 steps: the
    four products of the top qubit's contiguous halves into scratch, then
    both sums into the rows where the lowest bit is 0 and 1, which moves
    the next qubit to the top. The steps mix qubits 1..n in order, every
    amplitude getting the u-first products and the sums of a step in
    place, and n of them restore the order. Gate-only and dephasing-only
    runs keep the caller's order. On one qubit
    the layer is one pass and a tile saves nothing, so the coefficients are
    used as they are: there numpy rounds a one-element product with a
    contiguous coefficient in another loop than with a broadcast one, and a
    1-column layer would change in the last bit."""
    shape = arr.shape
    ops = list(ops)
    # per op: None for a gate, else whether the noise layer is diagonal
    diagonals = [None if isinstance(op, Gate) else not (op[0, 1].any() or op[1, 0].any())
                 for op in ops]
    tiled = n > 1 and diagonals.count(None) < len(ops)
    reverse = tiled and False in diagonals
    if reverse:
        work = np.empty((2**n, arr.size >> n), dtype=complex)
        _copy_reversed(arr, work, n)
    else:
        work = np.array(arr, dtype=complex, order="C").reshape(2**n, -1)
    del arr
    scratch = np.empty(2 * work.size, dtype=complex)
    tile = np.empty((2, 2, work.shape[0] // 2, work.shape[1]), dtype=complex) if tiled else None
    views: dict[tuple, tuple] = {}

    def support(qubits: tuple, real: bool) -> tuple:
        """(halves, products, tile): the halves of the working array on
        qubits, the scratch as (2,) + their shape, and the tile in that
        shape for one qubit of a noise run (else None); on the float64
        views if real."""
        key = (qubits, real)
        if key not in views:
            rows = tuple(n + 1 - q for q in qubits) if reverse else qubits
            halves = _halves(work.view(float) if real else work, rows)
            shape = (2,) + halves.shape
            products = (scratch.view(float) if real else scratch)[:2 * halves.size].reshape(shape)
            noise = tiled and not real and len(qubits) == 1
            views[key] = halves, products, tile.reshape(shape) if noise else None
        return views[key]

    if reverse:  # a full layer's step reads the top halves and writes the bottom bit
        top = work.reshape(2, -1, work.shape[1])
        bottom = work.reshape(-1, 2, work.shape[1]).swapaxes(0, 1)
        top_products = scratch.reshape((2,) + top.shape)

    for op, diagonal in zip(ops, diagonals):
        if diagonal is not None:  # a noise layer
            if tile is None:  # one qubit, (1, 1, k) halves
                a0, a1 = support((1,), False)[0]
                if diagonal:
                    a0[...], a1[...] = np.multiply(op[0, 0], a0), np.multiply(op[1, 1], a1)
                else:
                    a0[...], a1[...] = (np.multiply(op[0, 0], a0) + np.multiply(op[0, 1], a1),
                                        np.multiply(op[1, 0], a0) + np.multiply(op[1, 1], a1))
            elif diagonal:  # tile[0] holds (u[0, 0], u[1, 1])
                np.copyto(tile[0], op[(0, 1), (0, 1)].reshape(2, 1, -1))
                for t in range(1, n + 1):
                    halves, _, u = support((t,), False)
                    np.multiply(u[0], halves, out=halves)
            else:  # qubits 1..n, each mixed on the top bit and moved to the bottom
                np.copyto(tile, op.reshape(2, 2, 1, -1))
                for _ in range(n):
                    _mix(tile, top, top_products, bottom)
        elif op.kind == "H":  # the two distinct products, then their sum and difference
            halves, products, _ = support(op.qubits, True)
            np.multiply(_H, halves, out=products[0])
            np.add(products[0, 0], products[0, 1], out=halves[0])
            np.subtract(products[0, 0], products[0, 1], out=halves[1])
        elif op.kind in ("R", "CR"):  # on the halves or the control-1 quarters
            c, s = math.cos(op.angle), math.sin(op.angle)
            u = np.array([[c, -s], [s, c]])
            halves, products, _ = support(op.qubits, True)
            _mix(u.reshape((2, 2) + (1,) * (halves.ndim - 1)), halves, products, halves)
        elif op.kind == "CN":  # swap the control-1 quarters through scratch
            halves, products, _ = support(op.qubits, False)
            np.copyto(products[0], halves)
            np.copyto(halves, products[0, ::-1])
        else:  # P: the phase multiplies the (1, 1) quarter in place, amplitude first
            a11 = support(op.qubits, False)[0][1]
            phase = complex(math.cos(op.angle), math.sin(op.angle))
            if a11.size > 1:
                np.multiply(a11, phase, out=a11)
            else:  # numpy rounds a lone product written in place in another loop
                a11[...] = np.multiply(a11, phase)
    if reverse:  # back to the caller's order
        result = scratch[:work.size].reshape(work.shape)
        _copy_reversed(work, result, n)
        work = result
    return work.reshape(shape)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Fold a whole circuit over a state (application order)."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("circuit and state register sizes differ")
    return StateVector(_propagate(circuit.gates, state.amplitudes, state.n_qubits))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Lower a circuit to its dense matrix; column l is the circuit applied to |l>."""
    n = circuit.n_qubits
    _check_size(n, "register size", MAX_DENSE_OPERATOR_QUBITS)
    return _propagate(circuit.gates, np.eye(2**n, dtype=complex), n)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; 1 iff the states agree up to global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("dimension mismatch")
    return min(1.0, float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Ordered orthonormal set of states spanning a subspace of one register:
    the columns of ``matrix``, a read-only 2^n x k array.

    The matrix is kept as given when it is already a complex, C-ordered,
    read-only array that owns its data, as the package's builders hand it
    over; anything else, a caller's writeable array included, is copied."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_size(self.n_qubits, "register size", MAX_QUBITS)
        matrix = self.matrix
        if not (type(matrix) is np.ndarray and matrix.dtype == complex
                and matrix.flags.c_contiguous and matrix.flags.owndata
                and not matrix.flags.writeable):
            matrix = np.array(matrix, dtype=complex, order="C")
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


def global_phase_agreement(a: np.ndarray, b: np.ndarray) -> float:
    """|tr(a^dag b)| / dim: equals 1 iff a = e^{i phi} b for unitary a, b."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    return float(abs(np.trace(a.conj().T @ b)) / a.shape[0])
