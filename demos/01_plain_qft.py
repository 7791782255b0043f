"""
Plain quantum Fourier transform: synthesis and verification
============================================================

Build the swap-free QFT gate sequence, lower it to a dense matrix, and
check it against the reference DFT. Because the sequence omits swap
gates, its output indices come out bit-reversed: the circuit equals the
DFT with its rows in bit-reversed order.
"""
from dfsqft import (
    bit_reversal_permutation,
    circuit_unitary,
    dft_matrix,
    global_phase_agreement,
    print_circuit,
    synth_qft,
)

# A three-qubit transform: 3 Hadamards and 3 controlled phases. The text
# below is the library's serialization format (application order).
circuit = synth_qft(3)
print(print_circuit(circuit))

# Lower the circuit to its 8x8 matrix, column by column.
unitary = circuit_unitary(circuit)

# The reference DFT: entry (j, k) = e^{2 pi i j k / 8} / sqrt(8).
reference = dft_matrix(3)

# Raw comparison fails: the circuit emits the Fourier coefficients in
# bit-reversed index order.
print("direct match:      ", global_phase_agreement(reference, unitary))

# Coefficient l comes out at slot perm[l]; reordering the DFT's rows by
# the bit-reversal permutation reconciles the two.
perm = bit_reversal_permutation(3)
permuted = reference[perm]
print("permutation:       ", perm)
print("permuted match:    ", global_phase_agreement(permuted, unitary))

# The agreement score |tr(A^dag B)| / dim reaches 1 only for matrices
# equal up to a global phase, so this is a complete equality check.
assert 1.0 - global_phase_agreement(permuted, unitary) < 1e-10
print("\nplain QFT reproduces the DFT up to bit reversal and global phase")
