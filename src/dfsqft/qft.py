"""Quantum Fourier transform synthesis, block codes and the DFT oracle.

The synthesized gate sequence uses no swap gates, so it emits the Fourier
coefficients in bit-reversed index order: its matrix equals the reference
DFT with rows permuted by ``bit_reversal_permutation`` (the identity at
n = 1), up to a global phase.

Each encoding (plain, WCD, SCD) is one BlockCode record, from which its
basis states, code space and logical gates are derived. encode, the one
substitution, puts a plain H/P circuit on a code gate by gate, so the QFT on
any code is encode of the plain QFT.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, Gate, _check_size, _inverse, _is_integer, h, p
from .statevector import MAX_DENSE_OPERATOR_QUBITS, MAX_QUBITS, StateVector, SubspaceBasis


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, the very same products, written into a
    read-only array of its own (np.kron returns a reshaped view), which
    SubspaceBasis then keeps without a copy."""
    out = np.empty((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    np.multiply(a[:, None, :, None], b[None, :, None, :],
                out=out.reshape(a.shape[0], b.shape[0], a.shape[1], b.shape[1]))
    out.flags.writeable = False
    return out


def _check_logical(n: int, *indices: int) -> None:
    """n logical qubits, and each index one of them."""
    _check_size(n, "n_logical")
    for t in indices:
        if not (_is_integer(t) and 1 <= t <= n):
            raise ValueError(f"logical index {t} out of range 1..{n}")


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT on 2^n indices: entry (j, k) = 2^(-n/2) e^{2 pi i j k / 2^n}.

    The phase argument is reduced mod 2^n in integer arithmetic before
    exponentiation, keeping entries accurate to ~1e-15 at any supported n.
    """
    _check_size(n, "n", MAX_DENSE_OPERATOR_QUBITS)
    dim = 2**n
    k = np.arange(dim)
    return np.exp(2j * np.pi * (np.outer(k, k) % dim) / dim) / math.sqrt(dim)


def _plain_qft(n: int) -> Circuit:
    """The QFT gate order: from qubit n down to qubit 1, H on qubit k, then
    P(j, k, pi/2^(k-j)) for j = k-1 .. 1."""
    gates = []
    for k in range(n, 0, -1):
        gates.append(h(k))
        gates += [p(j, k, math.pi / 2 ** (k - j)) for j in range(k - 1, 0, -1)]
    return Circuit(n, tuple(gates))


def synth_qft(n: int) -> Circuit:
    """Swap-free QFT sequence: n Hadamards and n(n-1)/2 controlled phases,
    the plain circuit that synth_logical_qft encodes."""
    return _plain_qft(_check_size(n, "n", MAX_QUBITS))


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index map l -> reversal of l's n-bit string: synth_qft(n) emits
    Fourier coefficient l at slot perm[l], so its unitary equals
    dft_matrix(n)[perm] up to a global phase (perm is an involution)."""
    _check_size(n, "n", MAX_QUBITS)
    index = np.arange(2**n, dtype=np.int64)
    perm = np.zeros_like(index)
    for t in range(n):
        perm |= ((index >> t) & 1) << (n - 1 - t)
    return perm


def resolve_output_order(n: int) -> np.ndarray:
    """bit_reversal_permutation(n). Kept only because bench/tracing.py
    traces it by name as a layer."""
    return bit_reversal_permutation(n)


@dataclass(frozen=True, eq=False)
class BlockCode:
    """An encoding: logical qubit t on physical qubits size*(t-1)+1 .. size*t.
    The columns of ``states`` (2^size x 2) are the block's code states |0~>,
    |1~>; ``decoder``, written on qubits 1..size, maps them onto two basis
    states that differ only in the block's top qubit, qubit size. Each
    logical gate is the physical gate on the top qubits between the decoders
    of its blocks and their inverses, returned as a gate tuple."""

    size: int
    states: np.ndarray
    decoder: tuple[Gate, ...] = ()
    # block t -> (decode(t), its inverse), filled once t has passed its check
    _decoders: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _check_size(self.size, "block size")
        states = np.array(self.states, dtype=complex)
        if states.shape != (2**self.size, 2):
            raise ValueError(f"a {self.size}-qubit block needs a {2**self.size} x 2 state "
                             f"matrix, got shape {states.shape}")
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    def _decoder_pair(self, t: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
        """(the decoder shifted onto block t, its inverse), built once per
        block; gates are frozen, so the tuples are shared."""
        t = _check_size(t, "logical index")  # before the lookup: True == 1
        if t not in self._decoders:
            shift = self.size * (t - 1)
            forward = tuple(Gate(g.kind, tuple(q + shift for q in g.qubits), g.angle)
                            for g in self.decoder)
            self._decoders[t] = forward, _inverse(forward)
        return self._decoders[t]

    def decode(self, t: int) -> tuple[Gate, ...]:
        """The decoder shifted onto block t."""
        return self._decoder_pair(t)[0]

    def state(self, bits: str) -> StateVector:
        """Encoded basis state: the kron of the code columns that the bits
        select; the leftmost character is the highest logical qubit."""
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"bit string must be nonempty over 0/1, got {bits!r}")
        _check_size(self.size * len(bits), "register size", MAX_QUBITS)
        return StateVector(functools.reduce(np.kron, (self.states[:, int(c)] for c in bits)))

    def basis(self, n: int) -> SubspaceBasis:
        """All 2^n encoded basis states, ordered by logical index: the n-fold
        kron of the code-state matrix."""
        _check_size(n, "n_logical")
        _check_size(self.size * n, "register size", MAX_QUBITS)
        return SubspaceBasis(self.size * n, functools.reduce(_kron, [self.states] * n))

    def hadamard(self, k: int) -> tuple[Gate, ...]:
        """H on logical qubit k: H on top qubit size*k between the decoder
        of block k and its inverse."""
        forward, inverse = self._decoder_pair(k)
        return forward + (h(self.size * k),) + inverse

    def phase(self, i: int, j: int, theta: float) -> tuple[Gate, ...]:
        """Controlled phase between logical qubits i and j: P(size*i, size*j,
        theta) between the decoders of blocks j and i, in that order, and
        their inverses."""
        (fwd_i, inv_i), (fwd_j, inv_j) = self._decoder_pair(i), self._decoder_pair(j)
        if i == j:
            raise ValueError("logical control and target must differ")
        return fwd_j + fwd_i + (p(self.size * i, self.size * j, theta),) + inv_j + inv_i


PLAIN = BlockCode(1, np.eye(2))


def encode(circuit: Circuit, code: BlockCode) -> tuple[Circuit, tuple[int, ...]]:
    """(circuit with H(k) replaced by code.hadamard(k) and P(i, j, theta) by
    code.phase(i, j, theta), on code.size qubits per qubit, ends): the logical
    gate of circuit.gates[m] spans gates ends[m-1] (0 at m = 0) .. ends[m]
    and acts on the blocks of circuit.gates[m].qubits."""
    gates, ends = [], []
    for g in circuit.gates:
        if g.kind == "H":
            gates += code.hadamard(*g.qubits)
        elif g.kind == "P":
            gates += code.phase(*g.qubits, g.angle)
        else:
            raise ValueError(f"encode takes H and P gates only, got {g.kind}")
        ends.append(len(gates))
    return Circuit(code.size * circuit.n_qubits, tuple(gates)), tuple(ends)


def synth_logical_qft(n: int, code: BlockCode) -> Circuit:
    """The QFT on n blocks of code: encode of the plain QFT on n qubits."""
    return encode(_plain_qft(_check_size(n, "n_logical")), code)[0]


def logical_block_boundaries(n: int, code: BlockCode) -> list[int]:
    """The ends of encode(plain QFT, code): where each gate of the QFT ends."""
    return list(encode(_plain_qft(_check_size(n, "n_logical")), code)[1])
