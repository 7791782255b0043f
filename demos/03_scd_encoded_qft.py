"""
QFT on fully noise-immune logical qubits (four-qubit singlet encoding)
======================================================================

Strong collective decoherence applies the same random rotation around
an arbitrary axis to every qubit. The states immune to all of them are
the total-spin-zero states: a four-qubit block carries exactly two, and
they form one logical qubit. Logical gates conjugate a physical gate on
the block's top qubit by a 14-gate block transform; a direct
basis-change matrix ("fallback") cross-validates that sequence.
"""
import numpy as np

from dfsqft import (
    SCD,
    CollectiveModel,
    NoiseEvent,
    apply_noise,
    circuit_unitary,
    collective_operator,
    fidelity,
    restrict,
    scd_block_transform,
    scd_hadamard,
    scd_transform_matrix,
    synth_qft,
    synth_qft_scd,
)

# --- the singlet states ---------------------------------------------------
zero = SCD.state("0")  # product of two pair singlets
one = SCD.state("1")  # the orthogonal triplet-pair combination
print("nonzero amplitudes of |0>_L:")
for idx in np.flatnonzero(np.abs(zero.amplitudes) > 1e-12):
    print(f"  |{idx:04b}>  {zero.amplitudes[idx].real:+.4f}")

# Annihilated by all three collective operators, hence fixed by every
# collective rotation, whatever its axis and strength.
for axis in "xyz":
    op = collective_operator(4, axis)
    print(f"S_{axis} |0>_L norm: {np.linalg.norm(op @ zero.amplitudes):.2e}")
kicked = apply_noise(one, NoiseEvent((1.2, 0.4, 5.0)), CollectiveModel.SCD)
print("fidelity after a strong collective kick:", fidelity(kicked, one))

# --- the block transform ----------------------------------------------------
# The 14-gate transform shuttles the logical amplitude onto qubit 4.
u = circuit_unitary(scd_block_transform(1))
image = u @ zero.amplitudes
print("transform sends |0>_L to basis state", format(int(np.argmax(np.abs(image))), "04b"))

# --- fallback cross-validation ---------------------------------------------
# The fallback matrix is a direct basis change built by Gram-Schmidt; it
# satisfies the logical-gate contracts by construction and must agree
# with the gate sequence on the logical block.
basis = SCD.basis(1)
fallback = scd_transform_matrix(1)
h_phys = circuit_unitary(scd_hadamard(1, 1))
block_seq, _ = restrict(h_phys, basis)
block_fb, _ = restrict(fallback.conj().T @ np.kron(
    np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(8)) @ fallback, basis)
print("\nsequence vs fallback logical Hadamard:", np.max(np.abs(block_seq - block_fb)))

# --- the encoded transform --------------------------------------------------
encoded = synth_qft_scd(2)
print(f"\nencoded 2-qubit QFT: {len(encoded)} elementary gates on 8 physical qubits")
block, leakage = restrict(circuit_unitary(encoded), SCD.basis(2))
deviation = np.max(np.abs(block - circuit_unitary(synth_qft(2))))
print("restriction vs plain QFT:", deviation)
print("leakage:                 ", leakage)
assert deviation < 1e-10 and leakage < 1e-10
