"""Logical qubits on qubit pairs, protected from collective dephasing.

Logical |0> = |01> and |1> = |10> on each (2t, 2t-1) pair, so every
logical basis state balances its 0s and 1s and sits in the zero
eigenspace of the collective S_z: uniform dephasing acts on it as, at
most, an unobservable global phase. The encoding is its per-qubit
decoder, the pair CNOT, which maps the pair code to and from a plain
one-qubit-per-pair layout; every logical gate is a physical gate on the
pairs' high qubits conjugated by it (qft.conjugation_factory).
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuits import Circuit, Gate, cn
from .qft import (GateFactory, _check_index, _check_n_logical, _check_size, conjugation_factory,
                  logical_block_boundaries, synth_logical_qft)
from .statevector import StateVector, SubspaceBasis

MAX_WCD_LOGICAL = 6  # 12 physical qubits


@dataclass(frozen=True)
class WcdRegister:
    """Layout: logical qubit t lives on physical qubits 2t-1 and 2t."""

    n_logical: int

    def __post_init__(self):
        _check_n_logical(self.n_logical)

    @property
    def n_physical(self) -> int:
        return 2 * self.n_logical

    def pair(self, t: int) -> tuple[int, int]:
        _check_index(t, self.n_logical)
        return (2 * t - 1, 2 * t)


def wcd_logical_state(bits: str) -> StateVector:
    """Encoded basis state; leftmost character is the highest logical qubit."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bit string must be nonempty over 0/1, got {bits!r}")
    n = len(bits)
    index = 0
    for t, c in enumerate(reversed(bits), start=1):
        b = int(c)
        # pair (2t, 2t-1) holds |01> for logical 0 and |10> for logical 1
        index += b * 2 ** (2 * t - 1) + (1 - b) * 2 ** (2 * t - 2)
    return StateVector.basis(2 * n, index)


def wcd_logical_basis(n: int) -> SubspaceBasis:
    """All 2^n encoded basis states, ordered by logical index."""
    _check_n_logical(n)
    vectors = tuple(wcd_logical_state(format(l, f"0{n}b")) for l in range(2**n))
    return SubspaceBasis(2 * n, vectors)


def _pair_cnot(t: int) -> tuple[Gate, ...]:
    # decoder of logical qubit t: maps |01>, |10> on pair (2t, 2t-1) to |01>, |11>
    return (cn(2 * t, 2 * t - 1),)


def wcd_factory(n: int) -> GateFactory:
    return conjugation_factory(n, 2 * n, _pair_cnot, lambda t: 2 * t)


def wcd_hadamard(k: int, n: int) -> Circuit:
    """Hadamard on logical qubit k of n: pair CNOT, physical H, pair CNOT."""
    return wcd_factory(n).hadamard(k)


def wcd_phase(i: int, j: int, theta: float, n: int) -> Circuit:
    """Controlled phase between logical qubits i and j: e^{i theta} on |11> only."""
    return wcd_factory(n).phase(i, j, theta)


def wcd_encoder_circuit(n: int) -> Circuit:
    """One CNOT per pair (high controls low); conjugating physical H or P gates
    on the high qubits by this circuit yields the logical gates above."""
    reg = WcdRegister(n)
    return Circuit(reg.n_physical, tuple(g for t in range(n, 0, -1) for g in _pair_cnot(t)))


def synth_qft_wcd(n: int) -> Circuit:
    """Encoded QFT on 2n physical qubits; its restriction to the logical basis
    reproduces the plain n-qubit QFT matrix."""
    _check_size(n, MAX_WCD_LOGICAL)
    return synth_logical_qft(n, wcd_factory(n))


def wcd_qft_block_boundaries(n: int) -> list[int]:
    """Gate positions ending each logical block of synth_qft_wcd."""
    return logical_block_boundaries(n, wcd_factory(n))
