"""Logical qubits on four-qubit blocks, immune to collective rotations.

Each block carries the two total-spin-zero states: logical |0~> is the
product of two pair singlets, logical |1~> the orthogonal combination
built from pair triplets. Both are annihilated by all three collective
operators, so any rotation applied identically to every qubit leaves
them exactly fixed.

The encoding is its per-qubit decoder, a 14-gate block transform that
shuttles the logical amplitude onto the block's top qubit; every logical
gate is a physical gate on the top qubits conjugated by it
(qft.conjugation_factory). The transform is one fixed gate list, the
paper's product lowered as written. A direct basis-change matrix
("fallback") provides the same logical action by construction and
cross-validates the sequence on every verify.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, _is_integer, cn, cr, h, r
from .qft import (GateFactory, _check_index, _check_n_logical, _check_size, conjugation_factory,
                  logical_block_boundaries, synth_logical_qft)
from .statevector import StateVector, SubspaceBasis

MAX_SCD_LOGICAL = 3  # 12 physical qubits


@dataclass(frozen=True)
class ScdRegister:
    """Layout: logical qubit t lives on physical qubits 4t-3 .. 4t."""

    n_logical: int

    def __post_init__(self):
        _check_n_logical(self.n_logical)

    @property
    def n_physical(self) -> int:
        return 4 * self.n_logical

    def block(self, t: int) -> tuple[int, int, int, int]:
        _check_index(t, self.n_logical)
        return (4 * t - 3, 4 * t - 2, 4 * t - 1, 4 * t)


@dataclass(frozen=True)
class ScdAngles:
    """Rotation angles of the block transform (closed forms, radians)."""

    alpha: float = math.pi - math.asin(1.0 / math.sqrt(3.0))
    beta1: float = -math.pi + math.asin(1.0 / math.sqrt(3.0))
    beta2: float = -math.pi / 4.0


DEFAULT_ANGLES = ScdAngles()


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


def scd_logical_state(bits: str) -> StateVector:
    """Encoded basis state; leftmost character is the highest logical qubit."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bit string must be nonempty over 0/1, got {bits!r}")
    amps = functools.reduce(np.kron, (_BLOCK_STATES[int(c)] for c in bits))
    return StateVector(amps)


def scd_logical_basis(n: int) -> SubspaceBasis:
    """All 2^n encoded basis states, ordered by logical index."""
    _check_n_logical(n)
    vectors = tuple(scd_logical_state(format(l, f"0{n}b")) for l in range(2**n))
    return SubspaceBasis(4 * n, vectors)


def _block_transform_gates(k: int) -> tuple[Gate, ...]:
    q1, q2, q3, q4 = (4 * k - 3, 4 * k - 2, 4 * k - 1, 4 * k)
    # Factors of the block transform in product order (rightmost acts first);
    # reversed below into application order.
    factors = (
        cn(q4, q2),
        cn(q2, q1),
        cn(q2, q4),
        r(q2, DEFAULT_ANGLES.alpha),
        cr(q1, q2, DEFAULT_ANGLES.beta1),
        cr(q2, q1, DEFAULT_ANGLES.beta2),
        cn(q2, q4),
        cn(q1, q3),
        cn(q1, q2),
        cn(q3, q4),
        h(q1),
        h(q3),
        cn(q1, q2),
        cn(q3, q4),
    )
    return tuple(reversed(factors))


def scd_block_transform(k: int) -> Circuit:
    """14-gate transform on physical qubits 4k-3..4k, lowered as written
    (CN control first, R/CR angles as given), mapping the block's two
    logical states onto computational basis states that differ in qubit 4k."""
    if not _is_integer(k) or k < 1:
        raise ValueError(f"logical index must be a positive integer, got {k!r}")
    return Circuit(4 * k, _block_transform_gates(k))


def resolve_convention() -> Circuit:
    """The block transform of logical qubit 1. Kept only because the
    benchmark calls it by name: bench/run.py during set-up, and
    bench/tracing.py traces it as a layer."""
    return scd_block_transform(1)


def _fallback_block_matrix() -> np.ndarray:
    """16x16 basis change sending logical |0~>, |1~> to |0000>, |1000> and a
    deterministic Gram-Schmidt completion (computational candidates in index
    order) to the remaining basis states."""
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
    basis = np.column_stack(columns)
    return basis.conj().T  # unitary sending column l of `basis` to e_l


@functools.lru_cache(maxsize=1)
def _fallback_block_cached() -> np.ndarray:
    block = _fallback_block_matrix()
    block.flags.writeable = False
    return block


def _fallback_columns(columns: np.ndarray, n: int) -> np.ndarray:
    """scd_transform_matrix(n) @ columns for a 16^n x k array,
    applied one 16x16 block at a time instead of as a dense kron."""
    block = _fallback_block_cached()
    arr = columns.reshape((16,) * n + columns.shape[1:])
    for axis in range(n):
        arr = np.moveaxis(np.tensordot(block, arr, axes=([1], [axis])), 0, axis)
    return arr.reshape(columns.shape)


def scd_transform_matrix(n: int) -> np.ndarray:
    """Dense kron of the fallback basis change over n logical blocks: sends
    every encoded basis state to a computational basis state by construction.
    The dense oracle that _fallback_columns is tested against."""
    _check_size(n, MAX_SCD_LOGICAL)
    return functools.reduce(np.kron, [_fallback_block_cached()] * n)


def scd_factory(n: int) -> GateFactory:
    return conjugation_factory(n, 4 * n, lambda t: scd_block_transform(t).gates, lambda t: 4 * t)


def scd_hadamard(k: int, n: int) -> Circuit:
    """Hadamard on logical qubit k of n: block transform, H on qubit 4k,
    inverse block transform (29 gates)."""
    return scd_factory(n).hadamard(k)


def scd_phase(i: int, j: int, theta: float, n: int) -> Circuit:
    """Controlled phase between logical qubits i and j (57 gates):
    both block transforms, P on qubits (4i, 4j), both inverses."""
    return scd_factory(n).phase(i, j, theta)


def synth_qft_scd(n: int) -> Circuit:
    """Encoded QFT on 4n physical qubits; its restriction to the logical basis
    reproduces the plain n-qubit QFT matrix."""
    _check_size(n, MAX_SCD_LOGICAL)
    return synth_logical_qft(n, scd_factory(n))


def scd_qft_block_boundaries(n: int) -> list[int]:
    """Gate positions ending each logical block of synth_qft_scd."""
    return logical_block_boundaries(n, scd_factory(n))
