"""Logical qubits on four-qubit blocks, immune to collective rotations.

Each block carries the two total-spin-zero states: logical |0~> is the
product of two pair singlets, logical |1~> the orthogonal combination
built from pair triplets. Both are annihilated by all three collective
operators, so any rotation applied identically to every qubit leaves
them exactly fixed.

The encoding is the block code SCD: its decoder is a 14-gate block
transform that shuttles the logical amplitude onto the block's top
qubit, and every logical gate is a physical gate on the top qubits
conjugated by it (qft.BlockCode). SCD.state, SCD.basis and
logical_block_boundaries(n, SCD) give the encoded states, the code space
and the block layout of the QFT; scd_hadamard, scd_phase and
synth_qft_scd are the record's gates and QFT on n logical qubits. The
transform is one fixed gate list, the paper's product lowered as
written, with closed-form rotation angles. A direct basis-change matrix
("fallback") provides the same logical action by construction and
cross-validates the sequence on every verify.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .circuits import Circuit, _check_size, cn, cr, h, r
from .qft import BlockCode, _check_logical, synth_logical_qft

MAX_SCD_LOGICAL = 3  # 12 physical qubits


def _singlet_product_block() -> np.ndarray:
    # (|01>-|10>)(|01>-|10>)/2 over (s4 s3)(s2 s1)
    amps = np.zeros(16, dtype=complex)
    for hi, sign_hi in ((0b01, 1.0), (0b10, -1.0)):
        for lo, sign_lo in ((0b01, 1.0), (0b10, -1.0)):
            amps[hi * 4 + lo] = 0.5 * sign_hi * sign_lo
    return amps


def _triplet_pair_block() -> np.ndarray:
    amps = np.zeros(16, dtype=complex)
    for hi, sign_hi in ((0b01, 1.0), (0b10, -1.0)):
        for lo, sign_lo in ((0b01, 1.0), (0b10, -1.0)):
            amps[hi * 4 + lo] = sign_hi * sign_lo / math.sqrt(12.0)
    third = 1.0 / math.sqrt(3.0)
    # + |0>(|01>-|10>)|1>/sqrt(3) on (s4)(s3 s2)(s1)
    amps[0b0011] += third
    amps[0b0101] -= third
    # - |1>(|01>-|10>)|0>/sqrt(3)
    amps[0b1010] -= third
    amps[0b1100] += third
    return amps


_BLOCK_STATES = (_singlet_product_block(), _triplet_pair_block())


# Factors of the block transform on qubits 1..4, in product order (rightmost
# acts first); SCD's decoder is their reverse, the application order.
_TRANSFORM_FACTORS = (
    cn(4, 2),
    cn(2, 1),
    cn(2, 4),
    r(2, math.pi - math.asin(1.0 / math.sqrt(3.0))),
    cr(1, 2, -math.pi + math.asin(1.0 / math.sqrt(3.0))),
    cr(2, 1, -math.pi / 4.0),
    cn(2, 4),
    cn(1, 3),
    cn(1, 2),
    cn(3, 4),
    h(1),
    h(3),
    cn(1, 2),
    cn(3, 4),
)

SCD = BlockCode(4, np.column_stack(_BLOCK_STATES), tuple(reversed(_TRANSFORM_FACTORS)))


def scd_block_transform(k: int) -> Circuit:
    """14-gate transform on physical qubits 4k-3..4k, lowered as written
    (CN control first, R/CR angles as given), mapping the block's two
    logical states onto computational basis states that differ in qubit 4k."""
    return Circuit(4 * k, SCD.decode(k))


def resolve_convention() -> Circuit:
    """The block transform of logical qubit 1. Kept only because the
    benchmark calls it by name: bench/run.py during set-up, and
    bench/tracing.py traces it as a layer."""
    return scd_block_transform(1)


@functools.cache
def _fallback_block() -> np.ndarray:
    """Read-only 16x16 basis change sending logical |0~>, |1~> to |0000>,
    |1000> and a deterministic Gram-Schmidt completion (computational
    candidates in index order) to the remaining basis states."""
    zero, one = _BLOCK_STATES
    columns: list[np.ndarray | None] = [None] * 16
    columns[0b0000], columns[0b1000] = zero, one
    accepted = [zero, one]
    completion = []
    for idx in range(16):
        cand = np.zeros(16, dtype=complex)
        cand[idx] = 1.0
        for base in accepted:
            cand = cand - np.vdot(base, cand) * base
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            cand /= norm
            accepted.append(cand)
            completion.append(cand)
    if len(completion) != 14:
        raise RuntimeError(f"completion produced {len(completion)} vectors, expected 14")
    free_slots = [l for l in range(16) if columns[l] is None]
    for slot, vec in zip(free_slots, completion):
        columns[slot] = vec
    block = np.column_stack(columns).conj().T  # unitary sending column l to e_l
    block.flags.writeable = False
    return block


def _fallback_columns(columns: np.ndarray, n: int) -> np.ndarray:
    """scd_transform_matrix(n) @ columns for a 16^n x k array,
    applied one 16x16 block at a time instead of as a dense kron. The
    result is a fresh C-ordered array that owns its data."""
    block = _fallback_block()
    arr = columns.reshape((16,) * n + columns.shape[1:])
    for axis in range(n):
        arr = np.moveaxis(np.tensordot(block, arr, axes=([1], [axis])), 0, axis)
    out = np.empty(columns.shape, dtype=arr.dtype)
    out.reshape(arr.shape)[...] = arr  # the copy a reshape of the strided arr would make
    return out


def scd_transform_matrix(n: int) -> np.ndarray:
    """Dense kron of the fallback basis change over n logical blocks: sends
    every encoded basis state to a computational basis state by construction.
    The dense oracle that _fallback_columns is tested against."""
    _check_size(n, "n", MAX_SCD_LOGICAL)
    return functools.reduce(np.kron, [_fallback_block()] * n)


def scd_hadamard(k: int, n: int) -> Circuit:
    """Hadamard on logical qubit k of n: block transform, H on qubit 4k,
    inverse block transform (29 gates)."""
    _check_logical(n, k)
    return Circuit(4 * n, SCD.hadamard(k))


def scd_phase(i: int, j: int, theta: float, n: int) -> Circuit:
    """Controlled phase between logical qubits i and j (57 gates):
    both block transforms, P on qubits (4i, 4j), both inverses."""
    _check_logical(n, i, j)
    return Circuit(4 * n, SCD.phase(i, j, theta))


def synth_qft_scd(n: int) -> Circuit:
    """Encoded QFT on 4n physical qubits; its restriction to the logical basis
    reproduces the plain n-qubit QFT matrix."""
    _check_size(n, "n", MAX_SCD_LOGICAL)
    return synth_logical_qft(n, SCD)
