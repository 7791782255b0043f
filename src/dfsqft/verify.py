"""The verification suite: every check `dfsqft verify` reports, written once.

A suite maps a size n and a seed to (checks, extra): the ordered check
records {name, tolerance, deviation, pass} and the encoding's extra report
fields. A check passes when its deviation is at most its tolerance. The
expected logical actions are built by index arithmetic on the logical basis
index, independently of the circuits under test.

Every encoded check runs on the k code-space columns (restrict) or on the
logical register (the DFT oracle); no encoded suite lowers a circuit on its
physical register to a dense unitary. The plain suite does, so its largest
n is the one cap on 2^n x 2^n arrays, statevector.MAX_DENSE_OPERATOR_QUBITS.

SUITES maps each encoding to (largest n, run); the CLI dispatches through
it and the acceptance suite reads the same runs.
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .circuits import Circuit, Gate, parse_circuit, print_circuit
from .dfs import CollectiveModel, collective_product
from .noise import _batched_rows, _fidelities, _rotations
from .qft import BlockCode, bit_reversal_permutation, dft_matrix, synth_qft
from .scd import MAX_SCD_LOGICAL, SCD, _fallback_columns, synth_qft_scd
from .statevector import (
    MAX_DENSE_OPERATOR_QUBITS,
    SubspaceBasis,
    circuit_unitary,
    global_phase_agreement,
    restrict,
    unitarity_defect,
)
from .wcd import MAX_WCD_LOGICAL, WCD, synth_qft_wcd

# Controlled-phase angles of the logical-gate checks; WCD also checks pi/8.
_WCD_THETAS = (math.pi / 2, math.pi / 4, math.pi / 8)
_THETAS = (math.pi / 2, math.pi / 4)


def check(name: str, tolerance: float, deviation: float) -> dict:
    return {
        "name": name,
        "tolerance": tolerance,
        "deviation": float(deviation),
        "pass": bool(deviation <= tolerance),
    }


def logical_hadamard(n: int, k: int) -> np.ndarray:
    """Hadamard on logical qubit k of n (bit k-1 of the logical index)."""
    index = np.arange(2**n)
    bit = (index >> (k - 1)) & 1
    matrix = np.zeros((2**n, 2**n), dtype=complex)
    matrix[index, index] = (1 - 2 * bit) / math.sqrt(2)
    matrix[index ^ (1 << (k - 1)), index] = 1 / math.sqrt(2)
    return matrix


def logical_phase(n: int, i: int, j: int, theta: float) -> np.ndarray:
    """Diagonal: e^{i theta} where bits i-1 and j-1 of the logical index are both 1."""
    index = np.arange(2**n)
    both = (index >> (i - 1)) & (index >> (j - 1)) & 1
    return np.diag(np.where(both == 1, np.exp(1j * theta), 1.0 + 0j))


def phase_keys(n: int, thetas) -> Iterator[tuple[int, int, float]]:
    """Every ordered pair i != j of logical qubits, with every angle."""
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                yield from ((i, j, theta) for theta in thetas)


def gate_blocks(n: int, basis: SubspaceBasis, code: BlockCode, thetas) -> dict:
    """Restrictions (block, leakage) of code's logical gates on n logical
    qubits to the code space, keyed ("h", k) and ("p", i, j, theta)."""
    def restricted(gates: tuple[Gate, ...]):
        return restrict(Circuit(basis.n_qubits, gates), basis)

    blocks = {("h", k): restricted(code.hadamard(k)) for k in range(1, n + 1)}
    for i, j, theta in phase_keys(n, thetas):
        blocks[("p", i, j, theta)] = restricted(code.phase(i, j, theta))
    return blocks


_EXPECTED = {"h": logical_hadamard, "p": logical_phase}


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise |a - b|."""
    return float(np.max(np.abs(a - b)))


def contract(n: int, blocks: dict, kind: str) -> tuple[float, float]:
    """Worst (deviation from the exact logical action, leakage) over the
    blocks of one gate kind, "h" or "p"."""
    deviation = leakage = 0.0
    for (key_kind, *args), (block, leak) in blocks.items():
        if key_kind == kind:
            deviation = max(deviation, _distance(block, _EXPECTED[kind](n, *args)))
            leakage = max(leakage, leak)
    return deviation, leakage


def _order_name(n: int) -> str:
    """The report name of the QFT's output order; bit reversal is the identity at n = 1."""
    return "identity" if n == 1 else "bit-reversal"


def _dft_deviation(n: int, matrix: np.ndarray) -> float:
    """1 - |tr(target^dag matrix)| / 2^n against the DFT in bit-reversed output order."""
    return 1.0 - global_phase_agreement(dft_matrix(n)[bit_reversal_permutation(n)], matrix)


def qft_restriction_checks(n: int, circuit: Circuit, basis: SubspaceBasis) -> list[dict]:
    """The encoded QFT restricted to the code space: the DFT up to a global
    phase, equal to the plain QFT, and without leakage."""
    block, leakage = restrict(circuit, basis)
    return [
        check("encoded_qft_restriction_vs_dft_up_to_phase", 1e-10, _dft_deviation(n, block)),
        check("encoded_qft_restriction_vs_plain_qft", 1e-10,
              _distance(block, circuit_unitary(synth_qft(n)))),
        check("encoded_qft_leakage", 1e-10, leakage),
    ]


def noise_invariance_check(basis: SubspaceBasis, model: CollectiveModel, seed: int,
                           tolerance: float) -> dict:
    """Worst infidelity of the logical basis states under 20 collective
    rotations each, with uniform angles drawn from default_rng(seed).

    Row 20 * j + e of the one angle draw is event e of state j, the order of
    one draw per event. The events run as one batch through the noise
    module's _batched_rows, so memory does not grow with the code space, and
    each chunk reduces at once through the noise module's _fidelities, as
    run_trials does, from bras conjugated once per check."""
    events = len(basis) * 20
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (events, len(model.axes)))
    rotations = _rotations(angles, model)
    # conjugated in one pass into contiguous rows, so each dot rounds as on a lone state
    bras = np.conjugate(basis.matrix.T, order="C")
    worst = 0.0
    for chunk, outs in _batched_rows(basis.n_qubits, events, lambda rows: [rotations[:, :, rows]],
                                     lambda rows: basis.matrix[:, np.array(rows) // 20]):
        fidelities = _fidelities(bras[np.array(chunk) // 20], outs)
        worst = max(worst, 1.0 - float(np.min(fidelities)))
    return check("logical_state_noise_invariance", tolerance, worst)


def _verify_plain(n: int, seed: int) -> tuple[list[dict], dict]:
    circuit = synth_qft(n)
    unitary = circuit_unitary(circuit)
    checks = [
        check("qft_unitarity", 1e-10, unitarity_defect(unitary)),
        check("qft_vs_dft_up_to_phase", 1e-10, _dft_deviation(n, unitary)),
        check("gate_count", 0.0, abs(len(circuit) - (n + n * (n - 1) // 2))),
        check("roundtrip", 0.0, 0.0 if parse_circuit(print_circuit(circuit)) == circuit else 1.0),
    ]
    return checks, {"output_order": _order_name(n)}


def _verify_wcd(n: int, seed: int) -> tuple[list[dict], dict]:
    basis = WCD.basis(n)
    blocks = gate_blocks(n, basis, WCD, _WCD_THETAS)
    dev_h, leak_h = contract(n, blocks, "h")
    checks = [
        check("logical_hadamard_action", 1e-10, dev_h),
        check("logical_hadamard_leakage", 1e-10, leak_h),
    ]
    if n >= 2:
        dev_p, leak_p = contract(n, blocks, "p")
        checks += [
            check("logical_phase_action", 1e-10, dev_p),
            check("logical_phase_leakage", 1e-10, leak_p),
        ]
    checks += qft_restriction_checks(n, synth_qft_wcd(n), basis)
    checks.append(noise_invariance_check(basis, CollectiveModel.WCD, seed, 1e-12))
    return checks, {"output_order": _order_name(n)}


def _verify_scd(n: int, seed: int) -> tuple[list[dict], dict]:
    basis = SCD.basis(n)
    annihilation = max(
        float(np.max(np.linalg.norm(collective_product(axis, basis.matrix), axis=0)))
        for axis in "xyz"
    )
    # B^dag T^dag G T B = (TB)^dag G (TB) with the same residual norms (T is
    # unitary), so the fallback route restricts the bare gate to the basis TB
    columns_t = _fallback_columns(basis.matrix, n)
    columns_t.flags.writeable = False  # SubspaceBasis keeps it uncopied
    basis_t = SubspaceBasis(4 * n, columns_t)

    def worst(blocks: dict) -> float:
        return max(*contract(n, blocks, "h"), *contract(n, blocks, "p"))

    # bare gates on the block tops
    fb_blocks = gate_blocks(n, basis_t, BlockCode(4, SCD.states), _THETAS)
    seq_blocks = gate_blocks(n, basis, SCD, _THETAS)
    agreement = max(_distance(seq_blocks[key][0], fb_blocks[key][0]) for key in seq_blocks)
    checks = [
        check("logical_states_orthonormal", 1e-12,
              _distance(basis.matrix.conj().T @ basis.matrix, np.eye(len(basis)))),
        check("logical_states_annihilated", 1e-10, annihilation),
        check("logical_gates_fallback", 1e-10, worst(fb_blocks)),
        check("logical_gates_sequence", 1e-10, worst(seq_blocks)),
        check("sequence_vs_fallback_restrictions", 1e-10, agreement),
    ]
    checks += qft_restriction_checks(n, synth_qft_scd(n), basis)
    checks.append(noise_invariance_check(basis, CollectiveModel.SCD, seed, 1e-10))
    return checks, {}


SUITES = {
    "plain": (MAX_DENSE_OPERATOR_QUBITS, _verify_plain),
    "wcd": (MAX_WCD_LOGICAL, _verify_wcd),
    "scd": (MAX_SCD_LOGICAL, _verify_scd),
}
