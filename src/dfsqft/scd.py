"""Logical qubits on four-qubit blocks, immune to collective rotations.

Each block carries the two total-spin-zero states: logical |0~> is the
product of two pair singlets, logical |1~> the orthogonal combination
built from pair triplets. Both are annihilated by all three collective
operators, so any rotation applied identically to every qubit leaves
them exactly fixed.

The encoding is its per-qubit decoder, a 14-gate block transform that
shuttles the logical amplitude onto the block's top qubit; every logical
gate is a physical gate on the top qubits conjugated by it
(qft.conjugation_factory). The transform is a fixed 14-factor product
whose correctness is sensitive to CNOT argument order and rotation signs,
so a bounded resolver checks the as-written lowering and the three global
variants against the logical-Hadamard contract and resolves to the first
that passes; all four deviations are always reported. A direct
basis-change matrix ("fallback") provides the same logical action by
construction and cross-validates the sequence.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, cn, cr, h, r
from .qft import GateFactory, conjugation_factory, logical_block_boundaries, synth_logical_qft
from .statevector import StateVector, SubspaceBasis, apply_circuit, circuit_unitary

MAX_SCD_LOGICAL = 3  # 12 physical qubits
CONVENTION_TOL = 1e-10


@dataclass(frozen=True)
class ScdRegister:
    """Layout: logical qubit t lives on physical qubits 4t-3 .. 4t."""

    n_logical: int

    def __post_init__(self):
        if self.n_logical < 1:
            raise ValueError("n_logical must be positive")

    @property
    def n_physical(self) -> int:
        return 4 * self.n_logical

    def block(self, t: int) -> tuple[int, int, int, int]:
        if not 1 <= t <= self.n_logical:
            raise ValueError(f"logical index {t} out of range 1..{self.n_logical}")
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
    vectors = tuple(scd_logical_state(format(l, f"0{n}b")) for l in range(2**n))
    return SubspaceBasis(4 * n, vectors)


@dataclass(frozen=True)
class ScdConvention:
    """Global lowering variants probed by the resolver."""

    swap_cn_order: bool = False
    negate_rotation_angles: bool = False

    def describe(self) -> str:
        if not (self.swap_cn_order or self.negate_rotation_angles):
            return "as-written"
        parts = []
        if self.swap_cn_order:
            parts.append("swapped CN argument order")
        if self.negate_rotation_angles:
            parts.append("negated R/CR angles")
        return " + ".join(parts)


AS_WRITTEN = ScdConvention()
_CANDIDATES = (
    AS_WRITTEN,
    ScdConvention(swap_cn_order=True),
    ScdConvention(negate_rotation_angles=True),
    ScdConvention(swap_cn_order=True, negate_rotation_angles=True),
)


def _block_transform_gates(k: int, convention: ScdConvention) -> tuple[Gate, ...]:
    q1, q2, q3, q4 = (4 * k - 3, 4 * k - 2, 4 * k - 1, 4 * k)
    sign = -1.0 if convention.negate_rotation_angles else 1.0

    def _cn(a, b):
        return cn(b, a) if convention.swap_cn_order else cn(a, b)

    def _cr(a, b, beta):
        beta *= sign
        return cr(b, a, beta) if convention.swap_cn_order else cr(a, b, beta)

    # Factors of the block transform in product order (rightmost acts first);
    # reversed below into application order.
    factors = (
        _cn(q4, q2),
        _cn(q2, q1),
        _cn(q2, q4),
        r(q2, sign * DEFAULT_ANGLES.alpha),
        _cr(q1, q2, DEFAULT_ANGLES.beta1),
        _cr(q2, q1, DEFAULT_ANGLES.beta2),
        _cn(q2, q4),
        _cn(q1, q3),
        _cn(q1, q2),
        _cn(q3, q4),
        h(q1),
        h(q3),
        _cn(q1, q2),
        _cn(q3, q4),
    )
    return tuple(reversed(factors))


@dataclass(frozen=True, eq=False)
class ConventionReport:
    """Resolver outcome over the four lowering variants."""

    deviations: tuple[tuple[ScdConvention, float], ...]
    resolved: ScdConvention | None
    tolerance: float

    @property
    def as_written_deviation(self) -> float:
        return self.deviations[0][1]

    @property
    def as_written_passes(self) -> bool:
        return self.as_written_deviation <= self.tolerance

    @property
    def search_exercised(self) -> bool:
        return not self.as_written_passes

    @property
    def sequence_usable(self) -> bool:
        return self.resolved is not None

    @property
    def fallback_normative(self) -> bool:
        return self.resolved is None

    def to_dict(self) -> dict:
        return {
            "kind": "scd-convention-report",
            "tolerance": self.tolerance,
            "as_written_passes": self.as_written_passes,
            "search_exercised": self.search_exercised,
            "fallback_normative": self.fallback_normative,
            "resolved": None
            if self.resolved is None
            else {
                "swap_cn_order": self.resolved.swap_cn_order,
                "negate_rotation_angles": self.resolved.negate_rotation_angles,
                "description": self.resolved.describe(),
            },
            "candidates": [
                {
                    "swap_cn_order": conv.swap_cn_order,
                    "negate_rotation_angles": conv.negate_rotation_angles,
                    "logical_hadamard_deviation": dev,
                    "passes": dev <= self.tolerance,
                }
                for conv, dev in self.deviations
            ],
        }


def _logical_hadamard_deviation(convention: ScdConvention) -> float:
    """Worst entrywise error of the conjugated-H block against the exact
    logical Hadamard action on both encoded basis states (single block)."""
    hadamard = conjugation_factory(1, 4, lambda t: _block_transform_gates(t, convention),
                                   lambda t: 4 * t).hadamard(1)
    zero, one = scd_logical_state("0"), scd_logical_state("1")
    plus = (zero.amplitudes + one.amplitudes) / math.sqrt(2.0)
    minus = (zero.amplitudes - one.amplitudes) / math.sqrt(2.0)
    dev0 = np.max(np.abs(apply_circuit(zero, hadamard).amplitudes - plus))
    dev1 = np.max(np.abs(apply_circuit(one, hadamard).amplitudes - minus))
    return float(max(dev0, dev1))


def _resolve(candidates: tuple[ScdConvention, ...]) -> ConventionReport:
    deviations = []
    resolved = None
    for conv in candidates:
        dev = _logical_hadamard_deviation(conv)
        deviations.append((conv, dev))
        if resolved is None and dev <= CONVENTION_TOL:
            resolved = conv
    return ConventionReport(tuple(deviations), resolved, CONVENTION_TOL)


@functools.lru_cache(maxsize=1)
def resolve_convention() -> ConventionReport:
    """Probe the as-written lowering, then the three variants; cached."""
    return _resolve(_CANDIDATES)


def convention_report() -> dict:
    """JSON-ready resolver outcome (the machine-readable erratum when the
    as-written sequence fails)."""
    report = resolve_convention().to_dict()
    report["schema"] = "dfsqft/1"
    return report


def scd_block_transform(k: int) -> Circuit:
    """14-gate transform on physical qubits 4k-3..4k, in the resolved
    convention, mapping the block's two logical states onto computational
    basis states that differ in qubit 4k."""
    if k < 1:
        raise ValueError("logical index must be positive")
    report = resolve_convention()
    convention = report.resolved if report.resolved is not None else AS_WRITTEN
    return Circuit(4 * k, _block_transform_gates(k, convention))


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
    """scd_transform_matrix(n, "fallback") @ columns for a 16^n x k array,
    applied one 16x16 block at a time instead of as a dense kron."""
    block = _fallback_block_cached()
    arr = columns.reshape((16,) * n + columns.shape[1:])
    for axis in range(n):
        arr = np.moveaxis(np.tensordot(block, arr, axes=([1], [axis])), 0, axis)
    return arr.reshape(columns.shape)


def scd_transform_matrix(n: int, source: str = "sequence") -> np.ndarray:
    """Dense block-diagonal transform for n logical blocks.

    source="sequence": lower the gate sequence (resolved convention).
    source="fallback": the direct basis-change matrix, which sends every
    encoded basis state to a computational basis state by construction.
    """
    if not 1 <= n <= MAX_SCD_LOGICAL:
        raise ValueError(f"n must be in 1..{MAX_SCD_LOGICAL}, got {n}")
    if source == "sequence":
        gates: list[Gate] = []
        for k in range(1, n + 1):  # disjoint blocks; order immaterial
            gates.extend(scd_block_transform(k).gates)
        return circuit_unitary(Circuit(4 * n, tuple(gates)))
    if source == "fallback":
        return functools.reduce(np.kron, [_fallback_block_cached()] * n)
    raise ValueError(f"source must be 'sequence' or 'fallback', got {source!r}")


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
    if not 1 <= n <= MAX_SCD_LOGICAL:
        raise ValueError(f"n must be in 1..{MAX_SCD_LOGICAL}, got {n}")
    return synth_logical_qft(n, scd_factory(n))


def scd_qft_block_boundaries(n: int) -> list[int]:
    """Gate positions ending each logical block of synth_qft_scd."""
    return logical_block_boundaries(n, scd_factory(n))
