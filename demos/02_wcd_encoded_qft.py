"""
QFT on dephasing-protected logical qubits (pair encoding)
=========================================================

Under weak collective decoherence every qubit picks up the same random
z-phase. Encoding |0> as |01> and |1> as |10> on qubit pairs balances
those phases away: the encoded states live in the zero eigenspace of
the summed sigma_z. This demo walks the full construction: logical
states, logical gates, and the encoded transform.
"""
import numpy as np

from dfsqft import (
    WCD,
    CollectiveModel,
    NoiseEvent,
    apply_noise,
    circuit_unitary,
    collective_operator,
    fidelity,
    print_circuit,
    restrict,
    synth_qft,
    synth_qft_wcd,
    wcd_hadamard,
)

# --- logical states -----------------------------------------------------
# One logical qubit on physical qubits (1, 2): |0>_L = |01>, |1>_L = |10>.
zero = WCD.state("0")
one = WCD.state("1")
print("|0>_L amplitudes:", zero.amplitudes.real)
print("|1>_L amplitudes:", one.amplitudes.real)

# Both are S_z eigenstates with eigenvalue 0 ...
sz = collective_operator(2, "z")
print("S_z |0>_L norm:  ", np.linalg.norm(sz @ zero.amplitudes))

# ... so a collective dephasing kick of any strength leaves them fixed.
kicked = apply_noise(zero, NoiseEvent((2.31,)), CollectiveModel.WCD)
print("fidelity after collective dephasing:", fidelity(kicked, zero))

# --- logical gates ------------------------------------------------------
# The logical Hadamard sandwiches a physical H between the pair CNOTs.
print("\nlogical Hadamard circuit:")
print(print_circuit(wcd_hadamard(1, 1)))

# Restricted to the logical basis it is exactly the 2x2 Hadamard.
block, leakage = restrict(circuit_unitary(wcd_hadamard(1, 1)), WCD.basis(1))
print("restriction:\n", np.round(block.real, 6))
print("leakage out of the code space:", leakage)

# --- the encoded transform ----------------------------------------------
# Two logical qubits on four physical ones. The restriction of the
# encoded circuit reproduces the plain two-qubit QFT matrix exactly.
encoded = synth_qft_wcd(2)
print(f"\nencoded 2-qubit QFT: {len(encoded)} elementary gates on 4 physical qubits")
block, leakage = restrict(circuit_unitary(encoded), WCD.basis(2))
deviation = np.max(np.abs(block - circuit_unitary(synth_qft(2))))
print("restriction vs plain QFT:", deviation)
print("leakage:                 ", leakage)
assert deviation < 1e-10 and leakage < 1e-10
