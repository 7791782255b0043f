import math
import pathlib

import numpy as np
import pytest
import scipy.linalg

from dfsqft import (
    Circuit,
    bit_reversal_permutation,
    circuit_unitary,
    cn,
    collective_operator,
    dft_matrix,
    global_phase_agreement,
    h,
    invert,
    p,
    parse_circuit,
    print_circuit,
    restrict,
    synth_qft,
    synth_qft_wcd,
    wcd_encoder_circuit,
    wcd_hadamard,
    wcd_phase,
)

from dfsqft.wcd import WCD

from conftest import GOLDEN_DIR, logical_basis_oracle, wcd_state_oracle

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestRegister:
    def test_layout(self):
        # logical qubit t lives on physical qubits 2t-1 and 2t; its decoder
        # is the pair CNOT, high controls low
        assert WCD.size == 2
        assert wcd_hadamard(1, 3).n_qubits == 6
        for t in range(1, 7):
            assert WCD.decode(t) == (cn(2 * t, 2 * t - 1),)
        with pytest.raises(ValueError):
            wcd_hadamard(4, 3)

    # "wcd_factory" names the logical-gate route: a gate on a register of n pairs
    @pytest.mark.parametrize("build", [lambda n: wcd_hadamard(1, n), wcd_encoder_circuit],
                             ids=["wcd_factory", "wcd_encoder_circuit"])
    @pytest.mark.parametrize("n", [1.5, 0, "2", True])
    def test_non_integer_or_empty_register_rejected(self, build, n):
        with pytest.raises(ValueError, match=f"n_logical must be a positive integer, got {n!r}"):
            build(n)


class TestLogicalStates:
    def test_single_logical_zero_and_one(self):
        np.testing.assert_array_equal(
            WCD.state("0").amplitudes, [0, 1, 0, 0]  # |01>
        )
        np.testing.assert_array_equal(
            WCD.state("1").amplitudes, [0, 0, 1, 0]  # |10>
        )

    def test_two_logical_qubits(self):
        # "01": logical 2 = 0 on qubits (4,3), logical 1 = 1 on qubits (2,1)
        # physical bits s4 s3 s2 s1 = 0 1 1 0
        state = WCD.state("01")
        assert np.argmax(np.abs(state.amplitudes)) == 0b0110

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            WCD.state("012")
        with pytest.raises(ValueError):
            WCD.state("")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_basis_equals_per_state_builder(self, n):
        # the n-fold kron of the code-state matrix, bit for bit
        np.testing.assert_array_equal(WCD.basis(n).matrix,
                                      logical_basis_oracle(wcd_state_oracle, n))

    def test_states_live_in_zero_sector(self):
        for n in (1, 2, 3):
            op = collective_operator(2 * n, "z")
            for vec in WCD.basis(n).matrix.T:
                assert np.linalg.norm(op @ vec) == 0.0

    def test_dephasing_invariance(self):
        # 20 random collective-phase strengths fix every encoded basis state
        rng = np.random.default_rng(9)
        for n in (1, 2):
            op = collective_operator(2 * n, "z")
            for vec in WCD.basis(n).matrix.T:
                for phi in rng.uniform(0, 2 * math.pi, 20):
                    evolved = scipy.linalg.expm(-1j * phi * op) @ vec
                    assert abs(abs(np.vdot(evolved, vec)) ** 2 - 1) < 1e-12


class TestLogicalHadamard:
    def test_gate_sequence(self):
        assert wcd_hadamard(1, 1) == Circuit(2, (cn(2, 1), h(2), cn(2, 1)))
        assert wcd_hadamard(2, 3) == Circuit(6, (cn(4, 3), h(4), cn(4, 3)))

    def test_action_on_logical_zero(self):
        out = circuit_unitary(wcd_hadamard(1, 1)) @ WCD.state("0").amplitudes
        expected = INV_SQRT2 * (
            WCD.state("0").amplitudes + WCD.state("1").amplitudes
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_action_on_logical_one(self):
        out = circuit_unitary(wcd_hadamard(1, 1)) @ WCD.state("1").amplitudes
        expected = INV_SQRT2 * (
            WCD.state("0").amplitudes - WCD.state("1").amplitudes
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_applied_twice_is_logical_identity(self):
        u = circuit_unitary(wcd_hadamard(1, 2))
        block, leakage = restrict(u @ u, WCD.basis(2))
        np.testing.assert_allclose(block, np.eye(4), atol=1e-10)
        assert leakage < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_restriction_and_leakage(self, n):
        basis = WCD.basis(n)
        hmat = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        for k in range(1, n + 1):
            block, leakage = restrict(circuit_unitary(wcd_hadamard(k, n)), basis)
            expected = np.kron(np.eye(2 ** (n - k)), np.kron(hmat, np.eye(2 ** (k - 1))))
            np.testing.assert_allclose(block, expected, atol=1e-10)
            assert leakage < 1e-10

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            wcd_hadamard(3, 2)

    def test_non_integer_index_rejected(self):
        # 1.5 used to give CN(3, 2), straddling two pairs
        with pytest.raises(ValueError, match="logical index 1.5"):
            wcd_hadamard(1.5, 2)
        # True is an int: the pair layout used to accept it as logical qubit 1
        with pytest.raises(ValueError, match=r"logical index True out of range 1\.\.3"):
            wcd_hadamard(True, 3)
        with pytest.raises(ValueError, match="logical index must be a positive integer, got 1.5"):
            WCD.decode(1.5)


class TestLogicalPhase:
    def test_phase_on_one_one(self):
        u = circuit_unitary(wcd_phase(2, 1, math.pi / 2, 2))
        state = WCD.state("11").amplitudes
        np.testing.assert_allclose(u @ state, np.exp(1j * math.pi / 2) * state, atol=1e-12)

    def test_identity_on_other_patterns(self):
        u = circuit_unitary(wcd_phase(2, 1, math.pi / 2, 2))
        for bits in ("00", "01", "10"):
            state = WCD.state(bits).amplitudes
            np.testing.assert_allclose(u @ state, state, atol=1e-12)

    def test_zero_angle_is_identity(self):
        block, leakage = restrict(circuit_unitary(wcd_phase(1, 2, 0.0, 2)), WCD.basis(2))
        np.testing.assert_allclose(block, np.eye(4), atol=1e-10)
        assert leakage < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_both_branches_all_pairs(self, n):
        basis = WCD.basis(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for theta in (math.pi / 2, math.pi / 4, math.pi / 8):
                    block, leakage = restrict(circuit_unitary(wcd_phase(i, j, theta, n)), basis)
                    phases = np.ones(2**n, dtype=complex)
                    for l in range(2**n):
                        if (l >> (i - 1)) & 1 and (l >> (j - 1)) & 1:
                            phases[l] = np.exp(1j * theta)
                    np.testing.assert_allclose(block, np.diag(phases), atol=1e-10)
                    assert leakage < 1e-10

    def test_gate_count(self):
        assert len(wcd_phase(1, 2, 0.3, 2)) == 5

    def test_index_collision(self):
        with pytest.raises(ValueError):
            wcd_phase(1, 1, 0.5, 2)

    def test_non_integer_register_rejected(self):
        with pytest.raises(ValueError, match="n_logical must be a positive integer"):
            wcd_phase(1, 2, math.pi / 2, 2.5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_explicit_sequence_every_ordered_pair(self, n):
        # pair CNOT of j, pair CNOT of i, P on the high qubits, then both CNOTs again
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    expected = Circuit(2 * n, (
                        cn(2 * j, 2 * j - 1), cn(2 * i, 2 * i - 1), p(2 * i, 2 * j, 0.3),
                        cn(2 * j, 2 * j - 1), cn(2 * i, 2 * i - 1)))
                    assert wcd_phase(i, j, 0.3, n) == expected


class TestEncoderConjugation:
    def test_single_pair_encoder(self):
        assert wcd_encoder_circuit(1) == Circuit(2, (cn(2, 1),))

    def test_encoder_fixes_logical_zero(self):
        out = circuit_unitary(wcd_encoder_circuit(1)) @ WCD.state("0").amplitudes
        np.testing.assert_array_equal(out, WCD.state("0").amplitudes)

    def test_hadamard_conjugation_single_pair(self):
        encoder = wcd_encoder_circuit(1)
        conjugated = encoder + Circuit(2, (h(2),)) + invert(encoder)
        np.testing.assert_allclose(
            circuit_unitary(conjugated), circuit_unitary(wcd_hadamard(1, 1)), atol=1e-10
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hadamard_conjugation_identity(self, n):
        encoder = wcd_encoder_circuit(n)
        for k in range(1, n + 1):
            conjugated = encoder + Circuit(2 * n, (h(2 * k),)) + invert(encoder)
            np.testing.assert_allclose(
                circuit_unitary(conjugated),
                circuit_unitary(wcd_hadamard(k, n)),
                atol=1e-10,
            )

    @pytest.mark.parametrize("n", [2, 3])
    def test_phase_conjugation_identity(self, n):
        encoder = wcd_encoder_circuit(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for theta in (math.pi / 2, 0.37):
                    conjugated = (
                        encoder + Circuit(2 * n, (p(2 * i, 2 * j, theta),)) + invert(encoder)
                    )
                    np.testing.assert_allclose(
                        circuit_unitary(conjugated),
                        circuit_unitary(wcd_phase(i, j, theta, n)),
                        atol=1e-10,
                    )


class TestEncodedQft:
    def test_single_logical_qubit(self):
        assert synth_qft_wcd(1) == wcd_hadamard(1, 1)
        assert len(synth_qft_wcd(1)) == 3

    def test_three_logical_gate_count(self):
        assert len(synth_qft_wcd(3)) == 24  # 3 hadamard blocks + 3 phase blocks

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_restriction_matches_dft(self, n):
        block, leakage = restrict(circuit_unitary(synth_qft_wcd(n)), WCD.basis(n))
        target = dft_matrix(n)[bit_reversal_permutation(n)]
        assert 1.0 - global_phase_agreement(target, block) < 1e-10
        assert leakage < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_restriction_equals_plain_circuit(self, n):
        block, _ = restrict(circuit_unitary(synth_qft_wcd(n)), WCD.basis(n))
        np.testing.assert_allclose(block, circuit_unitary(synth_qft(n)), atol=1e-10)

    def test_range(self):
        with pytest.raises(ValueError):
            synth_qft_wcd(7)

    def test_end_to_end_state_evolution(self):
        # encoded |00>_L through the encoded transform vs plain |00> through
        # the plain transform, compared on logical coordinates
        from dfsqft import apply_circuit

        out = apply_circuit(WCD.state("00"), synth_qft_wcd(2))
        logical_coords = WCD.basis(2).matrix.conj().T @ out.amplitudes
        plain = circuit_unitary(synth_qft(2)) @ np.eye(4)[:, 0]
        np.testing.assert_allclose(logical_coords, plain, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_golden_files(n):
    path = pathlib.Path(GOLDEN_DIR) / f"qft_wcd_{n}.txt"
    text = path.read_text(encoding="utf-8")
    assert print_circuit(synth_qft_wcd(n)) == text
    assert parse_circuit(text) == synth_qft_wcd(n)
