"""Logical qubits on qubit pairs, protected from collective dephasing.

Logical |0> = |01> and |1> = |10> on each (2t, 2t-1) pair, so every
logical basis state balances its 0s and 1s and sits in the zero
eigenspace of the collective S_z: uniform dephasing acts on it as, at
most, an unobservable global phase. The encoding is the block code WCD:
its decoder, the pair CNOT, maps the pair code to and from a plain
one-qubit-per-pair layout, and every logical gate is a physical gate on
the pairs' high qubits conjugated by it (qft.BlockCode). WCD.state,
WCD.basis and logical_block_boundaries(n, WCD) give the encoded states,
the code space and the block layout of the QFT; the functions below are
the record's gates and QFT, checked against a register of n logical
qubits.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, cn
from .qft import BlockCode, _check_logical, _check_n_logical, _check_size, synth_logical_qft

MAX_WCD_LOGICAL = 6  # 12 physical qubits

# code states |01>, |10>; the pair CNOT maps them to |01>, |11>
WCD = BlockCode(2, np.eye(4)[:, [0b01, 0b10]], (cn(2, 1),))


def wcd_hadamard(k: int, n: int) -> Circuit:
    """Hadamard on logical qubit k of n: pair CNOT, physical H, pair CNOT."""
    _check_logical(n, k)
    return Circuit(2 * n, WCD.hadamard(k))


def wcd_phase(i: int, j: int, theta: float, n: int) -> Circuit:
    """Controlled phase between logical qubits i and j: e^{i theta} on |11> only."""
    _check_logical(n, i, j)
    return Circuit(2 * n, WCD.phase(i, j, theta))


def wcd_encoder_circuit(n: int) -> Circuit:
    """The pair decoders of logical qubits n .. 1 (high controls low);
    conjugating physical H or P gates on the high qubits by this circuit
    yields the logical gates above."""
    _check_n_logical(n)
    return Circuit(2 * n, tuple(g for t in range(n, 0, -1) for g in WCD.decode(t)))


def synth_qft_wcd(n: int) -> Circuit:
    """Encoded QFT on 2n physical qubits; its restriction to the logical basis
    reproduces the plain n-qubit QFT matrix."""
    _check_size(n, MAX_WCD_LOGICAL)
    return synth_logical_qft(n, WCD)
