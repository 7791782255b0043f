"""Quantum Fourier transform synthesis, block codes and the DFT oracle.

The synthesized gate sequence uses no swap gates, so it emits the Fourier
coefficients in bit-reversed index order: its matrix equals the reference
DFT with rows permuted by ``bit_reversal_permutation`` (the identity at
n = 1), up to a global phase.

Each encoding (plain, WCD, SCD) is one BlockCode record, from which its
basis states, code space and logical gates are derived; synth_logical_qft
lays the logical gates of any code out in the QFT order as one circuit.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

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


def synth_qft(n: int) -> Circuit:
    """Swap-free QFT sequence: n Hadamards and n(n-1)/2 controlled phases,
    the QFT skeleton on the plain code."""
    _check_size(n, "n", MAX_QUBITS)
    return synth_logical_qft(n, PLAIN)


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

    def __post_init__(self):
        _check_size(self.size, "block size")
        states = np.array(self.states, dtype=complex)
        if states.shape != (2**self.size, 2):
            raise ValueError(f"a {self.size}-qubit block needs a {2**self.size} x 2 state "
                             f"matrix, got shape {states.shape}")
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    def decode(self, t: int) -> tuple[Gate, ...]:
        """The decoder shifted onto block t."""
        _check_size(t, "logical index")
        shift = self.size * (t - 1)
        return tuple(Gate(g.kind, tuple(q + shift for q in g.qubits), g.angle)
                     for g in self.decoder)

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
        forward = self.decode(k)
        return forward + (h(self.size * k),) + _inverse(forward)

    def phase(self, i: int, j: int, theta: float) -> tuple[Gate, ...]:
        """Controlled phase between logical qubits i and j: P(size*i, size*j,
        theta) between the decoders of blocks j and i, in that order, and
        their inverses."""
        if i == j:
            raise ValueError("logical control and target must differ")
        fwd_i, fwd_j = self.decode(i), self.decode(j)
        return (fwd_j + fwd_i + (p(self.size * i, self.size * j, theta),)
                + _inverse(fwd_j) + _inverse(fwd_i))


PLAIN = BlockCode(1, np.eye(2))


def _logical_gates(n: int, code: BlockCode) -> Iterator[tuple[Gate, ...]]:
    """The QFT gate order: from qubit n down to qubit 1, H on qubit k, then
    P(j, k, pi/2^(k-j)) for j = k-1 .. 1, each one logical gate of code."""
    _check_size(n, "n_logical")
    for k in range(n, 0, -1):
        yield code.hadamard(k)
        for j in range(k - 1, 0, -1):
            yield code.phase(j, k, math.pi / 2 ** (k - j))


def synth_logical_qft(n: int, code: BlockCode) -> Circuit:
    """QFT skeleton on n blocks of code, with its logical gates substituted
    for each gate."""
    gates = tuple(itertools.chain.from_iterable(_logical_gates(n, code)))
    return Circuit(code.size * n, gates)


def logical_block_boundaries(n: int, code: BlockCode) -> list[int]:
    """Cumulative gate positions ending each logical gate of synth_logical_qft."""
    return list(itertools.accumulate(len(gates) for gates in _logical_gates(n, code)))
