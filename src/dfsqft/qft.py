"""Quantum Fourier transform synthesis and its matrix oracle.

The synthesized gate sequence uses no swap gates, so it emits the Fourier
coefficients in bit-reversed index order: its matrix equals the reference
DFT with rows permuted by ``bit_reversal_permutation`` (the identity at
n = 1), up to a global phase.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .circuits import Circuit, Gate, _is_integer, h, p

MAX_QFT_QUBITS = 14


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
    _check_size(n, MAX_QFT_QUBITS)
    dim = 2**n
    k = np.arange(dim)
    return np.exp(2j * np.pi * (np.outer(k, k) % dim) / dim) / math.sqrt(dim)


def synth_qft(n: int) -> Circuit:
    """Swap-free QFT sequence: n Hadamards and n(n-1)/2 controlled phases,
    the QFT skeleton with physical gates (trivial_factory) as its blocks."""
    _check_size(n, MAX_QFT_QUBITS)
    return synth_logical_qft(n, trivial_factory(n))


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index map l -> reversal of l's n-bit string: synth_qft(n) emits
    Fourier coefficient l at slot perm[l], so its unitary equals
    dft_matrix(n)[perm] up to a global phase (perm is an involution)."""
    _check_size(n, MAX_QFT_QUBITS)
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
    their factory, and each factory comes from the one conjugation rule of
    conjugation_factory."""

    n_qubits: int
    hadamard: Callable[[int], Circuit]
    phase: Callable[[int, int, float], Circuit]


def conjugation_factory(n: int, n_qubits: int, decoder: Callable[[int], tuple[Gate, ...]],
                        top: Callable[[int], int]) -> GateFactory:
    """Logical gates of n logical qubits on n_qubits physical ones, where the
    gates decoder(t) move logical qubit t onto physical qubit top(t): H(top k)
    and P(top i, top j, theta), each between the decoders of its logical
    qubits (j's first) and their inverses."""
    _check_n_logical(n)

    def decode(t: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
        _check_index(t, n)
        gates = decoder(t)
        return gates, tuple(g.inverse() for g in reversed(gates))

    def hadamard(k: int) -> Circuit:
        forward, back = decode(k)
        return Circuit(n_qubits, forward + (h(top(k)),) + back)

    def phase(i: int, j: int, theta: float) -> Circuit:
        if i == j:
            raise ValueError("logical control and target must differ")
        (fwd_i, back_i), (fwd_j, back_j) = decode(i), decode(j)
        return Circuit(n_qubits, fwd_j + fwd_i + (p(top(i), top(j), theta),) + back_j + back_i)

    return GateFactory(n_qubits, hadamard, phase)


def trivial_factory(n: int) -> GateFactory:
    """Physical H and P gates; reproduces the plain QFT."""
    return conjugation_factory(n, n, lambda t: (), lambda t: t)


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
