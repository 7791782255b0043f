"""Quantum Fourier transform synthesis, block codes and the DFT oracle.

The synthesized gate sequence uses no swap gates, so it emits the Fourier
coefficients in bit-reversed index order: its matrix equals the reference
DFT with rows permuted by ``bit_reversal_permutation`` (the identity at
n = 1), up to a global phase.

Each encoding (plain, WCD, SCD) is one BlockCode record, from which its
basis states, code space and logical gates are derived.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .circuits import Circuit, Gate, _is_integer, h, p
from .statevector import (MAX_DENSE_OPERATOR_QUBITS, MAX_QUBITS, StateVector, SubspaceBasis,
                          _check_register)


def _check_size(n: int, limit: int, name: str = "n") -> None:
    if not _is_integer(n) or not 1 <= n <= limit:
        raise ValueError(f"{name} must be an integer in 1..{limit}, got {n!r}")


def _check_n_logical(n: int) -> None:
    if not _is_integer(n) or n < 1:
        raise ValueError(f"n_logical must be a positive integer, got {n!r}")


def _check_index(t: int, n: int) -> None:
    if not (_is_integer(t) and 1 <= t <= n):
        raise ValueError(f"logical index {t} out of range 1..{n}")


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT on 2^n indices: entry (j, k) = 2^(-n/2) e^{2 pi i j k / 2^n}.

    The phase argument is reduced mod 2^n in integer arithmetic before
    exponentiation, keeping entries accurate to ~1e-15 at any supported n.
    """
    _check_size(n, MAX_DENSE_OPERATOR_QUBITS)
    dim = 2**n
    k = np.arange(dim)
    return np.exp(2j * np.pi * (np.outer(k, k) % dim) / dim) / math.sqrt(dim)


def synth_qft(n: int) -> Circuit:
    """Swap-free QFT sequence: n Hadamards and n(n-1)/2 controlled phases,
    the QFT skeleton with physical gates (trivial_factory) as its blocks."""
    _check_size(n, MAX_QUBITS)
    return synth_logical_qft(n, trivial_factory(n))


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index map l -> reversal of l's n-bit string: synth_qft(n) emits
    Fourier coefficient l at slot perm[l], so its unitary equals
    dft_matrix(n)[perm] up to a global phase (perm is an involution)."""
    _check_size(n, MAX_QUBITS)
    index = np.arange(2**n, dtype=np.int64)
    perm = np.zeros_like(index)
    for t in range(n):
        perm |= ((index >> t) & 1) << (n - 1 - t)
    return perm


def resolve_output_order(n: int) -> np.ndarray:
    """bit_reversal_permutation(n). Kept only because bench/tracing.py
    traces it by name as a layer."""
    return bit_reversal_permutation(n)


@dataclass(frozen=True)
class GateFactory:
    """An encoding, described by its logical gates: ``hadamard(k)`` and
    ``phase(i, j, theta)`` give the circuit on ``n_qubits`` physical qubits
    that implements each gate of the QFT skeleton. The skeleton stays fixed
    (synth_logical_qft); the plain, WCD and SCD encodings differ only in
    their factory, and each factory is BlockCode.factory of its code."""

    n_qubits: int
    hadamard: Callable[[int], Circuit]
    phase: Callable[[int, int, float], Circuit]


@dataclass(frozen=True, eq=False)
class BlockCode:
    """Logical qubit t on physical qubits size*(t-1)+1 .. size*t. The columns
    of ``states`` (2^size x 2) are the block's code states |0~>, |1~>;
    ``decoder``, written on qubits 1..size, maps them onto two basis states
    that differ only in the block's top qubit, qubit size."""

    size: int
    states: np.ndarray
    decoder: tuple[Gate, ...] = ()

    def __post_init__(self):
        states = np.array(self.states, dtype=complex)
        if states.shape != (2**self.size, 2):
            raise ValueError(f"a {self.size}-qubit block needs a {2**self.size} x 2 state "
                             f"matrix, got shape {states.shape}")
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    def decode(self, t: int) -> tuple[Gate, ...]:
        """The decoder shifted onto block t."""
        if not _is_integer(t) or t < 1:
            raise ValueError(f"logical index must be a positive integer, got {t!r}")
        shift = self.size * (t - 1)
        return tuple(Gate(g.kind, tuple(q + shift for q in g.qubits), g.angle)
                     for g in self.decoder)

    def state(self, bits: str) -> StateVector:
        """Encoded basis state: the kron of the code columns that the bits
        select; the leftmost character is the highest logical qubit."""
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"bit string must be nonempty over 0/1, got {bits!r}")
        _check_register(self.size * len(bits))
        return StateVector(functools.reduce(np.kron, (self.states[:, int(c)] for c in bits)))

    def basis(self, n: int) -> SubspaceBasis:
        """All 2^n encoded basis states, ordered by logical index: the n-fold
        kron of the code-state matrix."""
        _check_n_logical(n)
        _check_register(self.size * n)
        return SubspaceBasis(self.size * n, functools.reduce(np.kron, [self.states] * n))

    def factory(self, n: int) -> GateFactory:
        """Logical gates of n logical qubits: H on top qubit size*k and
        P(size*i, size*j, theta), each between the decoders of its logical
        qubits (j's first) and their inverses."""
        _check_n_logical(n)
        n_qubits = self.size * n

        def decode(t: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
            _check_index(t, n)
            gates = self.decode(t)
            return gates, tuple(g.inverse() for g in reversed(gates))

        def hadamard(k: int) -> Circuit:
            forward, back = decode(k)
            return Circuit(n_qubits, forward + (h(self.size * k),) + back)

        def phase(i: int, j: int, theta: float) -> Circuit:
            if i == j:
                raise ValueError("logical control and target must differ")
            (fwd_i, back_i), (fwd_j, back_j) = decode(i), decode(j)
            top_i, top_j = self.size * i, self.size * j
            return Circuit(n_qubits, fwd_j + fwd_i + (p(top_i, top_j, theta),) + back_j + back_i)

        return GateFactory(n_qubits, hadamard, phase)


PLAIN = BlockCode(1, np.eye(2))


def trivial_factory(n: int) -> GateFactory:
    """Physical H and P gates; reproduces the plain QFT."""
    return PLAIN.factory(n)


def _logical_blocks(n: int, factory: GateFactory) -> Iterator[Circuit]:
    """The QFT gate order: from qubit n down to qubit 1, H on qubit k, then
    P(j, k, pi/2^(k-j)) for j = k-1 .. 1."""
    _check_n_logical(n)
    for k in range(n, 0, -1):
        yield factory.hadamard(k)
        for j in range(k - 1, 0, -1):
            yield factory.phase(j, k, math.pi / 2 ** (k - j))


def synth_logical_qft(n: int, factory: GateFactory) -> Circuit:
    """QFT skeleton with factory-produced blocks substituted for each gate."""
    gates: list = []
    for block in _logical_blocks(n, factory):
        if block.n_qubits != factory.n_qubits:
            raise ValueError("factory produced a block on the wrong register size")
        gates.extend(block.gates)
    return Circuit(factory.n_qubits, tuple(gates))


def logical_block_boundaries(n: int, factory: GateFactory) -> list[int]:
    """Cumulative gate positions ending each logical block of synth_logical_qft."""
    ends = []
    total = 0
    for block in _logical_blocks(n, factory):
        total += len(block)
        ends.append(total)
    return ends
