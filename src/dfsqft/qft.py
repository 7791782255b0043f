"""Quantum Fourier transform synthesis and its matrix oracle.

The synthesized gate sequence uses no swap gates, so its matrix equals
the reference DFT only up to a known output-index permutation; which one
(identity or bit reversal) is resolved empirically by
``resolve_output_order`` rather than assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .circuits import Circuit, h, p
from .statevector import circuit_unitary, equal_up_to_global_phase

MAX_QFT_QUBITS = 14
# resolve_output_order compares dense 2^n x 2^n matrices against the DFT
MAX_ORACLE_QUBITS = 8


class ConventionError(RuntimeError):
    """No candidate output permutation matches the reference transform."""


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT on 2^n indices: entry (j, k) = 2^(-n/2) e^{2 pi i j k / 2^n}.

    The phase argument is reduced mod 2^n in integer arithmetic before
    exponentiation, keeping entries accurate to ~1e-15 at any supported n.
    """
    if not 1 <= n <= MAX_QFT_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_QFT_QUBITS}, got {n}")
    dim = 2**n
    k = np.arange(dim)
    return np.exp(2j * np.pi * (np.outer(k, k) % dim) / dim) / math.sqrt(dim)


def synth_qft(n: int) -> Circuit:
    """Swap-free QFT sequence: n Hadamards and n(n-1)/2 controlled phases.

    Application order runs from qubit n down to qubit 1; after each H on
    qubit k come the phases P(j, k, pi/2^(k-j)) for j = k-1 .. 1.
    """
    if not 1 <= n <= MAX_QFT_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_QFT_QUBITS}, got {n}")
    gates = []
    for k in range(n, 0, -1):
        gates.append(h(k))
        for j in range(k - 1, 0, -1):
            gates.append(p(j, k, math.pi / 2 ** (k - j)))
    return Circuit(n, tuple(gates))


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Index map l -> reversal of l's n-bit string."""
    perm = np.zeros(2**n, dtype=np.int64)
    for l in range(2**n):
        perm[l] = int(format(l, f"0{n}b")[::-1], 2)
    return perm


@dataclass(frozen=True, eq=False)
class OutputOrder:
    """Resolved output-index permutation: basis l comes out at slot permutation[l]."""

    kind: str  # "identity" or "bit-reversal"
    permutation: np.ndarray

    def matrix(self) -> np.ndarray:
        dim = self.permutation.size
        q = np.zeros((dim, dim))
        q[self.permutation, np.arange(dim)] = 1.0
        return q


def resolve_output_order(n: int) -> OutputOrder:
    """Pick the permutation Q with synth_qft(n) = Q * dft_matrix(n) up to global phase.

    Tries identity first, then bit reversal; raises ConventionError if
    neither matches (a convention bug, not an expected outcome).
    """
    if not 1 <= n <= MAX_ORACLE_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_ORACLE_QUBITS}, got {n}")
    u = circuit_unitary(synth_qft(n))
    f = dft_matrix(n)
    for kind, perm in (
        ("identity", np.arange(2**n, dtype=np.int64)),
        ("bit-reversal", bit_reversal_permutation(n)),
    ):
        candidate = OutputOrder(kind, perm)
        if equal_up_to_global_phase(candidate.matrix() @ f, u):
            return candidate
    raise ConventionError("no matching convention")


@dataclass(frozen=True)
class GateFactory:
    """Pluggable gate blocks: the QFT skeleton stays fixed while ``hadamard(k)``
    and ``phase(i, j, theta)`` supply the circuit implementing each logical gate.
    All produced circuits must share one physical register size."""

    n_qubits: int
    hadamard: Callable[[int], Circuit]
    phase: Callable[[int, int, float], Circuit]


def trivial_factory(n: int) -> GateFactory:
    """Physical H and P gates; reproduces the plain QFT."""
    return GateFactory(
        n_qubits=n,
        hadamard=lambda k: Circuit(n, (h(k),)),
        phase=lambda i, j, theta: Circuit(n, (p(i, j, theta),)),
    )


def _logical_blocks(n: int, factory: GateFactory) -> Iterator[Circuit]:
    for k in range(n, 0, -1):
        yield factory.hadamard(k)
        for j in range(k - 1, 0, -1):
            yield factory.phase(j, k, math.pi / 2 ** (k - j))


def synth_logical_qft(n: int, factory: GateFactory) -> Circuit:
    """QFT skeleton with factory-produced blocks substituted for each gate."""
    if n < 1:
        raise ValueError("n must be positive")
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
