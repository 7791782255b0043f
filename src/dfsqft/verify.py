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

What an (encoding, n) alone fixes (the code space, the circuits under test,
the expected logical actions and the DFT target) is built on the first run
of that (encoding, n) and kept, read-only, for the life of the process
(suite_inputs); noise-bench reads its arms from the same entries. Every run
still restricts, lowers and compares all it checks: no kernel output and no
check value is kept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuits import Circuit, Gate, _check_size, h, p, parse_circuit, print_circuit
from .dfs import CollectiveModel, collective_product
from .noise import _batched_rows, _fidelities, _rotations
from .qft import (
    PLAIN,
    BlockCode,
    bit_reversal_permutation,
    dft_matrix,
    encode,
    logical_block_boundaries,
    synth_qft,
)
from .scd import MAX_SCD_LOGICAL, SCD, _fallback_columns, synth_qft_scd
from .statevector import (
    MAX_DENSE_OPERATOR_QUBITS,
    StateVector,
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


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


def expected_actions(n: int, thetas) -> tuple[tuple[Gate, np.ndarray], ...]:
    """(plain gate, its exact logical action as a read-only matrix) of every
    checked logical gate on n logical qubits: h(k) for k = 1..n, then
    p(i, j, theta) in phase_keys order."""
    actions = [(h(k), logical_hadamard(n, k)) for k in range(1, n + 1)]
    actions += [(p(i, j, theta), logical_phase(n, i, j, theta))
                for i, j, theta in phase_keys(n, thetas)]
    return tuple((gate, _read_only(matrix)) for gate, matrix in actions)


def gate_circuits(n: int, code: BlockCode, expected) -> tuple[Circuit, ...]:
    """encode of each plain gate of expected, alone on n logical qubits."""
    return tuple(encode(Circuit(n, (gate,)), code)[0] for gate, _ in expected)


def gate_blocks(circuits, basis: SubspaceBasis) -> list[tuple[np.ndarray, float]]:
    """Restrictions (block, leakage) of the circuits to the code space, in order."""
    return [restrict(circuit, basis) for circuit in circuits]


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise |a - b|."""
    return float(np.max(np.abs(a - b)))


def contract(expected, blocks, kind: str) -> tuple[float, float]:
    """Worst (deviation from the exact logical action, leakage) over the
    blocks of one gate kind, "H" or "P"; blocks[m] is the restriction of
    the gate whose (plain gate, action) is expected[m]."""
    deviation = leakage = 0.0
    for (gate, action), (block, leak) in zip(expected, blocks):
        if gate.kind == kind:
            deviation = max(deviation, _distance(block, action))
            leakage = max(leakage, leak)
    return deviation, leakage


@dataclass(frozen=True, eq=False)
class SuiteInputs:
    """What one (encoding, n) alone fixes: the inputs of its verify suite
    and of its noise-bench arm, every one read-only. The encoded fields are
    empty on a plain entry, and the target is None on an encoded one (an
    encoded suite reads the plain entry at its n)."""

    qft: Circuit  # the QFT under test, on the encoding's register
    boundaries: tuple[int, ...]  # the gate positions ending its logical gates
    zero: StateVector  # logical |0...0>, noise-bench's input state
    target: np.ndarray | None = None  # the DFT in the plain QFT's bit-reversed output order
    basis: SubspaceBasis | None = None  # the code space
    expected: tuple = ()  # (plain gate, exact logical action) of each checked logical gate
    gates: tuple[Circuit, ...] = ()  # the circuit of each, in expected's order
    fallback_basis: SubspaceBasis | None = None  # SCD: the code space after the fallback change
    fallback_gates: tuple[Circuit, ...] = ()  # SCD: each gate with no decoder, on the block tops


def _entry(qft: Circuit, code: BlockCode, n: int, **fields) -> SuiteInputs:
    return SuiteInputs(qft, tuple(logical_block_boundaries(n, code)), code.state("0" * n),
                       **fields)


def _build(encoding: str, n: int) -> SuiteInputs:
    """The SuiteInputs of (encoding, n). Every builder is called through
    this module's attributes, where a test's monkeypatch or the benchmark's
    tracer replaces it."""
    if encoding == "plain":
        return _entry(synth_qft(n), PLAIN, n,
                      target=_read_only(dft_matrix(n)[bit_reversal_permutation(n)]))
    if encoding == "wcd":
        expected = expected_actions(n, _WCD_THETAS)
        return _entry(synth_qft_wcd(n), WCD, n, basis=WCD.basis(n), expected=expected,
                      gates=gate_circuits(n, WCD, expected))
    basis, expected = SCD.basis(n), expected_actions(n, _THETAS)
    # B^dag T^dag G T B = (TB)^dag G (TB) with the same residual norms (T is
    # unitary), so the fallback route restricts the bare gate to the basis TB
    return _entry(synth_qft_scd(n), SCD, n, basis=basis, expected=expected,
                  gates=gate_circuits(n, SCD, expected),
                  fallback_basis=SubspaceBasis(4 * n, _fallback_columns(basis.matrix, n)),
                  fallback_gates=gate_circuits(n, BlockCode(4, SCD.states), expected))


# (encoding, n) -> SuiteInputs; empty at import, at most one entry per size
# that SUITES accepts
_INPUTS: dict[tuple[str, int], SuiteInputs] = {}


def suite_inputs(encoding: str, n: int) -> SuiteInputs:
    """The inputs of (encoding, n), built on its first use and then kept for
    the life of the process, for n up to the encoding's SUITES cap.

    The memo is filled lazily: importing the package builds nothing. It
    holds only read-only values (frozen records, tuples, circuits, bases,
    states and arrays whose writeable flag is off), so no caller can change
    what a later run reads. Two threads that ask for the same new entry at
    once at worst both build it; both get the first one stored."""
    key = (encoding, _check_size(n, "n", SUITES[encoding][0]))
    inputs = _INPUTS.get(key)
    if inputs is None:
        inputs = _INPUTS.setdefault(key, _build(*key))
    return inputs


def _order_name(n: int) -> str:
    """The report name of the QFT's output order; bit reversal is the identity at n = 1."""
    return "identity" if n == 1 else "bit-reversal"


def _dft_deviation(target: np.ndarray, matrix: np.ndarray) -> float:
    """1 - |tr(target^dag matrix)| / 2^n against the plain entry's DFT target."""
    return 1.0 - global_phase_agreement(target, matrix)


def qft_restriction_checks(inputs: SuiteInputs, plain: SuiteInputs) -> list[dict]:
    """The encoded QFT restricted to the code space: the DFT up to a global
    phase, equal to the plain QFT (plain is the plain entry at the same n),
    and without leakage."""
    block, leakage = restrict(inputs.qft, inputs.basis)
    return [
        check("encoded_qft_restriction_vs_dft_up_to_phase", 1e-10,
              _dft_deviation(plain.target, block)),
        check("encoded_qft_restriction_vs_plain_qft", 1e-10,
              _distance(block, circuit_unitary(plain.qft))),
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
    inputs = suite_inputs("plain", n)
    circuit = inputs.qft
    unitary = circuit_unitary(circuit)
    checks = [
        check("qft_unitarity", 1e-10, unitarity_defect(unitary)),
        check("qft_vs_dft_up_to_phase", 1e-10, _dft_deviation(inputs.target, unitary)),
        check("gate_count", 0.0, abs(len(circuit) - (n + n * (n - 1) // 2))),
        check("roundtrip", 0.0, 0.0 if parse_circuit(print_circuit(circuit)) == circuit else 1.0),
    ]
    return checks, {"output_order": _order_name(n)}


def _verify_wcd(n: int, seed: int) -> tuple[list[dict], dict]:
    inputs = suite_inputs("wcd", n)
    blocks = gate_blocks(inputs.gates, inputs.basis)
    dev_h, leak_h = contract(inputs.expected, blocks, "H")
    checks = [
        check("logical_hadamard_action", 1e-10, dev_h),
        check("logical_hadamard_leakage", 1e-10, leak_h),
    ]
    if n >= 2:
        dev_p, leak_p = contract(inputs.expected, blocks, "P")
        checks += [
            check("logical_phase_action", 1e-10, dev_p),
            check("logical_phase_leakage", 1e-10, leak_p),
        ]
    checks += qft_restriction_checks(inputs, suite_inputs("plain", n))
    checks.append(noise_invariance_check(inputs.basis, CollectiveModel.WCD, seed, 1e-12))
    return checks, {"output_order": _order_name(n)}


def _verify_scd(n: int, seed: int) -> tuple[list[dict], dict]:
    inputs = suite_inputs("scd", n)
    basis = inputs.basis
    annihilation = max(
        float(np.max(np.linalg.norm(collective_product(axis, basis.matrix), axis=0)))
        for axis in "xyz"
    )

    def worst(blocks) -> float:
        return max(*contract(inputs.expected, blocks, "H"),
                   *contract(inputs.expected, blocks, "P"))

    fb_blocks = gate_blocks(inputs.fallback_gates, inputs.fallback_basis)
    seq_blocks = gate_blocks(inputs.gates, basis)
    agreement = max(_distance(seq[0], fb[0]) for seq, fb in zip(seq_blocks, fb_blocks))
    checks = [
        check("logical_states_orthonormal", 1e-12,
              _distance(basis.matrix.conj().T @ basis.matrix, np.eye(len(basis)))),
        check("logical_states_annihilated", 1e-10, annihilation),
        check("logical_gates_fallback", 1e-10, worst(fb_blocks)),
        check("logical_gates_sequence", 1e-10, worst(seq_blocks)),
        check("sequence_vs_fallback_restrictions", 1e-10, agreement),
    ]
    checks += qft_restriction_checks(inputs, suite_inputs("plain", n))
    checks.append(noise_invariance_check(basis, CollectiveModel.SCD, seed, 1e-10))
    return checks, {}


SUITES = {
    "plain": (MAX_DENSE_OPERATOR_QUBITS, _verify_plain),
    "wcd": (MAX_WCD_LOGICAL, _verify_wcd),
    "scd": (MAX_SCD_LOGICAL, _verify_scd),
}
