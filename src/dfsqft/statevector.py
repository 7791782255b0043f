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
array, in the caller's qubit order, and updates that array in place, gate
by gate, so the values it hands back are new and the caller's array is
never written; R and CR are one 2x2 step of two whole-array ufunc calls, H
is its two distinct products, then their sum and difference. A noise layer,
the same rotation on every qubit, touches no amplitude: it is composed onto
a pending 2x2 frame per qubit, and a qubit's frame is applied, one such
step, only when a gate touches that qubit or the ops end. Every step works
on views whose contiguous runs are short on low qubits, and numpy's ufuncs
are slow on such views with their default 8192-element buffer, so
_propagate runs with a 256-element buffer and hands the caller's back.
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
# numpy's ufunc buffer, in elements, while _propagate runs (numpy's default
# is 8192). Timed against 256 by tools/kernel_ab.py (the benchmark's
# noise-bench op lists, medians of 60 alternated rounds) and by in-process
# sweeps of the benchmark's verify cases (60 rounds), one BLAS thread, on a
# shared 2-CPU x86_64 VM: 16 / 64 / 128 took 1.05 / 1.04 / 1.01x on the
# noise lists, 512 / 1024 0.99 / 1.05x and 8192 1.30x; verify took 1.00x at
# 512, 1.03x at 1024, 1.05x at 16 and 1.07x at 8192.
_UFUNC_BUFFER = 256

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


def _mix(u: np.ndarray, halves: np.ndarray, products: np.ndarray) -> None:
    """halves[i] <- u[i, 0] * halves[0] + u[i, 1] * halves[1]: the four
    products, u-first, into scratch, then both sums back into the halves."""
    np.multiply(u, halves, out=products)
    np.add(products[:, 0], products[:, 1], out=halves)


def _compose(u: np.ndarray, frames: np.ndarray) -> None:
    """frames[g] <- u @ frames[g] in place, for a (2, 2, k) layer u and
    (m, 2, 2, k) frames: all eight products u[i, l] * frames[g, l, j], u
    first, in one multiply, then the sum over l. The multiply has at least
    eight elements, so numpy rounds every product in its one vector loop,
    whatever k or the strides of u (a one-element multiply takes another
    loop and rounds differently)."""
    products = np.multiply(u[None, :, :, None], frames[:, None])
    np.add(products[:, :, 0], products[:, :, 1], out=frames)


def _propagate(ops, arr: np.ndarray, n: int) -> np.ndarray:
    """Apply ops in order to one 2^n vector or to each column of a 2^n x k
    array, and return the result as a new array of the input's shape. An op
    is a Gate or a noise layer: a (2, 2) unitary, or a (2, 2, k) stack of
    one per column, on every qubit.

    The input is copied once into a private C-ordered 2^n x k working array
    (a vector is a 2^n x 1 batch) in the caller's qubit order and released;
    each op then updates that array in place, through scratch twice the
    size of the working array, and the working array is the result. Every
    amplitude rounds as in the out-of-place formulas u[0, 0] * a0 + u[0, 1]
    * a1 and u[1, 0] * a0 + u[1, 1] * a1 on contiguous copies of the halves
    a0 and a1, so each complex product is formed u-first: numpy rounds it
    differently with its operands swapped. R and CR take one 2x2 step,
    _mix: the four products into scratch, then both sums back into the
    halves, 2 ufunc calls. H ([[h, h], [h, -h]]) has only two distinct
    products, h * a0 and h * a1: one product into scratch, then their sum
    and difference into the halves, 3 ufunc calls. H, R and CR ([[c, -s],
    [s, c]]) have real coefficients and run on the float64 view, where
    (-h) * a is exactly -(h * a) and x + (-y) exactly x - y.

    A noise layer touches no amplitude. It is the same rotation on every
    qubit, and rotations on different qubits commute, so each qubit keeps a
    pending 2x2 frame per column, the product of the layers since its last
    flush, newest on the left. A flush applies a qubit's frame to its halves
    in one _mix, or, for a diagonal frame (dephasing layers only), as one
    in-place product with (u[0, 0], u[1, 1]), which skips the zero
    off-diagonal products and so can change at most the sign of a zero.
    The flush rule: just before a gate, the gate's pending qubits in
    ascending order; after the last op, every pending qubit, qubit 1 first.
    A lone layer is thus n one-qubit steps, qubit 1 first, and under
    per-gate noise a layer costs one step per qubit that the next gate
    touches. Qubits pending since the same layer share one frame, so the
    (n, 2, 2, k) frames array holds one frame per such group, packed at
    its front: a layer is composed onto every group's frame at once
    (_compose, frame <- u @ frame) and starts a group, with a copy of its
    coefficients, for the qubits with nothing pending.

    A flush on qubit t reads its frame from the first 2^(t-1) rows of a
    contiguous (2, 2, 2^(n-1), k) tile, broadcast over the 2^(n-t) blocks
    of its halves, so each product runs over as many contiguous
    coefficients as a block has amplitudes instead of looping over a
    broadcast (k,) row. The tile is allocated once per call and only when
    a noise layer is present; a diagonal frame fills only tile[0], with its
    u[0, 0] and u[1, 1]. The tile holds one group's frame, keyed by its
    (first, last) layers: a flush that needs another frame refills it, and
    one that reads more rows than are filled fills only the rest, so a lone
    layer fills each row once. On one qubit a flush is one pass and a
    tile saves nothing, so the frame's coefficients are used as they are,
    and a one-column frame as a (2, 2) matrix of 0-d coefficients, as a
    lone state's layer: numpy rounds a one-element product with a (1,)
    coefficient in another loop (without FMA) than with a 0-d or a wider
    one, and a one-trial chunk would round otherwise than the same trial
    in a wider chunk.

    The ops run with numpy's ufunc buffer set to _UFUNC_BUFFER elements,
    and the caller's size (np.setbufsize returns it; numpy keeps the size
    per thread) is restored on return and when an op raises. On qubit t
    each half is a stack of blocks of 2^(t-1) k contiguous amplitudes, and
    numpy passes blocks shorter than its buffer (8192 elements by default)
    through the buffer: a _mix's four products on the halves of qubits 1-7
    of an 8-qubit, 64-column array took 1.7-2.1x as long as on contiguous
    data of the same size, and 0.9-1.5x with the small buffer. The size
    moves no bit: every step is elementwise, and no step is a
    floating-point reduction whose blocking could change a sum."""
    shape = arr.shape
    work = np.array(arr, dtype=complex, order="C").reshape(2**n, -1)
    del arr
    old = np.setbufsize(_UFUNC_BUFFER)
    try:
        _run(list(ops), work, n)
    finally:
        np.setbufsize(old)
    return work.reshape(shape)


def _run(ops: list, work: np.ndarray, n: int) -> None:
    """Apply ops in order to the 2^n x k working array in place, as
    _propagate describes."""
    scratch = np.empty(2 * work.size, dtype=complex)
    noisy = not all(isinstance(op, Gate) for op in ops)
    # one frame per group of qubits pending since the same layer, packed in
    # frames[:len(groups)]; groups[g] is that group's first layer
    frames = np.empty((n, 2, 2, work.shape[1]), dtype=complex) if noisy else None
    groups: list[int] = []
    tile = (np.empty((2, 2, work.shape[0] // 2, work.shape[1]), dtype=complex)
            if noisy and n > 1 else None)
    pending: list = [None] * n  # per qubit: the first layer of its frame, None when clear
    layer = None  # index of the latest noise layer
    filled = None  # (first layer, last layer, diagonal, rows) of the frame in the tile
    views: dict[tuple, tuple] = {}

    def support(qubits: tuple, real: bool) -> tuple:
        """(halves, products, tile): the halves of the working array on
        qubits, the scratch as (2,) + their shape, and for one qubit of a
        noise run the tile's rows that the halves' blocks read, broadcast
        over the blocks (else None); on the float64 views if real."""
        key = (qubits, real)
        if key not in views:
            halves = _halves(work.view(float) if real else work, qubits)
            shape = (2,) + halves.shape
            products = (scratch.view(float) if real else scratch)[:2 * halves.size].reshape(shape)
            noise = tile is not None and not real and len(qubits) == 1
            views[key] = (halves, products,
                          tile[:, :, None, :halves.shape[2]] if noise else None)
        return views[key]

    def flush(q: int) -> None:
        """Apply qubit q's pending frame to its halves and clear it."""
        nonlocal filled
        first, pending[q - 1] = pending[q - 1], None
        g = groups.index(first)
        frame = frames[g]
        if tile is None:  # one qubit, (1, 1, k) halves; one column takes 0-d coefficients
            u = frame if frame.shape[-1] > 1 else frame.reshape(2, 2)
            a0, a1 = support((1,), False)[0]
            if not (u[0, 1].any() or u[1, 0].any()):
                a0[...], a1[...] = np.multiply(u[0, 0], a0), np.multiply(u[1, 1], a1)
            else:
                a0[...], a1[...] = (np.multiply(u[0, 0], a0) + np.multiply(u[0, 1], a1),
                                    np.multiply(u[1, 0], a0) + np.multiply(u[1, 1], a1))
        else:
            if filled is None or filled[:2] != (first, layer):
                # diagonal when frame[0, 1] and frame[1, 0] are zero
                filled = (first, layer, not frame.reshape(4, -1)[1:3].any(), 0)
            rows = 1 << (q - 1)  # the tile rows that qubit q reads
            if filled[3] < rows:  # fill the rows not filled yet
                new = slice(filled[3], rows)
                if filled[2]:  # a diagonal frame: tile[0] holds (u[0, 0], u[1, 1])
                    np.copyto(tile[0, :, new], frame[(0, 1), (0, 1)].reshape(2, 1, -1))
                else:
                    np.copyto(tile[:, :, new], frame.reshape(2, 2, 1, -1))
                filled = filled[:3] + (rows,)
            halves, products, u = support((q,), False)
            if filled[2]:
                np.multiply(u[0], halves, out=halves)
            else:
                _mix(u, halves, products)
        if first not in pending:  # the group is flushed: the last group takes its place
            frames[g], groups[g] = frames[len(groups) - 1], groups[-1]
            groups.pop()

    for index, op in enumerate(ops):
        if not isinstance(op, Gate):  # a noise layer: compose it onto every pending frame
            u = op.reshape(2, 2, -1)
            if groups:
                _compose(u, frames[:len(groups)])
            fresh = [q for q in range(n) if pending[q] is None]
            if fresh:  # the clear qubits start a group with this layer's coefficients
                np.copyto(frames[len(groups)], u)
                groups.append(index)
                for q in fresh:
                    pending[q] = index
            layer = index
            continue
        if groups:  # the gate's pending frames first
            for q in sorted(op.qubits):
                if pending[q - 1] is not None:
                    flush(q)
        if op.kind == "H":  # the two distinct products, then their sum and difference
            halves, products, _ = support(op.qubits, True)
            np.multiply(_H, halves, out=products[0])
            np.add(products[0, 0], products[0, 1], out=halves[0])
            np.subtract(products[0, 0], products[0, 1], out=halves[1])
        elif op.kind in ("R", "CR"):  # on the halves or the control-1 quarters
            c, s = math.cos(op.angle), math.sin(op.angle)
            u = np.array([[c, -s], [s, c]])
            halves, products, _ = support(op.qubits, True)
            _mix(u.reshape((2, 2) + (1,) * (halves.ndim - 1)), halves, products)
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
    for q in range(1, n + 1):  # what is still pending, qubit 1 first
        if pending[q - 1] is not None:
            flush(q)


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
