import math
import pathlib

import numpy as np
import pytest
import scipy.linalg

from dfsqft import (
    Circuit,
    Gate,
    SubspaceBasis,
    apply_circuit,
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
    scd_block_transform,
    scd_hadamard,
    scd_phase,
    synth_qft,
    synth_qft_scd,
)
from dfsqft.qft import BlockCode
from dfsqft.scd import SCD, _fallback_columns, resolve_convention

from conftest import GOLDEN_DIR, logical_basis_oracle, scd_state_oracle

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT3 = 1.0 / math.sqrt(3.0)
INV_SQRT12 = 1.0 / math.sqrt(12.0)


class TestRegister:
    def test_layout(self):
        # logical qubit t lives on physical qubits 4t-3 .. 4t; its decoder is
        # the golden block transform shifted onto them
        text = (pathlib.Path(GOLDEN_DIR) / "scd_block_transform_1.txt").read_text(encoding="utf-8")
        golden = parse_circuit(text).gates
        assert SCD.size == 4
        assert scd_hadamard(1, 2).n_qubits == 8
        for t in (1, 2, 3):
            shifted = tuple(Gate(g.kind, tuple(q + 4 * (t - 1) for q in g.qubits), g.angle)
                            for g in golden)
            assert SCD.decode(t) == shifted
            assert scd_block_transform(t) == Circuit(4 * t, shifted)

    @pytest.mark.parametrize("n", [1.5, 0, "2", True])
    def test_non_integer_or_empty_register_rejected(self, n):
        with pytest.raises(ValueError, match=f"n_logical must be a positive integer, got {n!r}"):
            scd_hadamard(1, n)

    def test_non_integer_index_rejected(self):
        with pytest.raises(ValueError, match=r"logical index 1.5 out of range 1\.\.2"):
            scd_hadamard(1.5, 2)
        with pytest.raises(ValueError, match="logical index must be a positive integer, got 1.5"):
            scd_block_transform(1.5)
        with pytest.raises(ValueError, match=r"logical index True out of range 1\.\.2"):
            scd_hadamard(True, 2)
        with pytest.raises(ValueError, match="logical index must be a positive integer, got True"):
            scd_block_transform(True)


class TestAngles:
    def test_closed_forms(self):
        # the R and CR gates of the block transform, in application order
        angles = [(g.kind, g.qubits, g.angle) for g in scd_block_transform(1)
                  if g.angle is not None]
        assert angles == [
            ("CR", (2, 1), -math.pi / 4),
            ("CR", (1, 2), -math.pi + math.asin(INV_SQRT3)),
            ("R", (2,), math.pi - math.asin(INV_SQRT3)),
        ]


class TestLogicalStates:
    def test_zero_expansion(self):
        # (|0101> - |0110> - |1001> + |1010>) / 2 in s4 s3 s2 s1 order
        amps = SCD.state("0").amplitudes
        expected = np.zeros(16, dtype=complex)
        expected[0b0101], expected[0b0110] = 0.5, -0.5
        expected[0b1001], expected[0b1010] = -0.5, 0.5
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_one_expansion(self):
        amps = SCD.state("1").amplitudes
        expected = np.zeros(16, dtype=complex)
        expected[0b0011] = INV_SQRT3
        expected[0b1100] = INV_SQRT3
        for idx in (0b0101, 0b0110, 0b1001, 0b1010):
            expected[idx] = -INV_SQRT12
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_equals_per_state_builder(self, n):
        # the n-fold kron of the code-state matrix, bit for bit
        np.testing.assert_array_equal(SCD.basis(n).matrix,
                                      logical_basis_oracle(scd_state_oracle, n))

    def test_orthonormal(self):
        zero, one = SCD.state("0"), SCD.state("1")
        assert abs(np.linalg.norm(zero.amplitudes) - 1) < 1e-12
        assert abs(np.linalg.norm(one.amplitudes) - 1) < 1e-12
        assert abs(np.vdot(zero.amplitudes, one.amplitudes)) < 1e-12

    def test_zero_annihilated_by_sz(self):
        op = collective_operator(4, "z")
        assert np.linalg.norm(op @ SCD.state("0").amplitudes) < 1e-12

    @pytest.mark.parametrize("bits", ["0", "1", "00", "01", "10", "11"])
    def test_annihilated_by_all_collective_operators(self, bits):
        n_physical = 4 * len(bits)
        state = SCD.state(bits).amplitudes
        for axis in "xyz":
            op = collective_operator(n_physical, axis)
            assert np.linalg.norm(op @ state) < 1e-10

    def test_strong_noise_invariance(self):
        # full collective rotations, via the dense matrix exponential oracle
        rng = np.random.default_rng(17)
        ops = [collective_operator(4, axis) for axis in "xyz"]
        state = SCD.state("1").amplitudes
        for _ in range(20):
            phis = rng.uniform(0, 2 * math.pi, 3)
            u = scipy.linalg.expm(-1j * sum(f * s for f, s in zip(phis, ops)))
            assert abs(abs(np.vdot(u @ state, state)) ** 2 - 1) < 1e-10

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            SCD.state("2")


class TestBlockTransform:
    def test_gate_count_and_census(self):
        circuit = scd_block_transform(1)
        assert len(circuit) == 14
        kinds = [g.kind for g in circuit.gates]
        assert kinds.count("CN") == 9
        assert kinds.count("H") == 2
        assert kinds.count("R") == 1
        assert kinds.count("CR") == 2

    def test_first_applied_gate(self):
        # rightmost factor of the written product acts first: CN(3, 4) for k=1
        assert scd_block_transform(1).gates[0] == cn(3, 4)

    def test_block_offsets(self):
        first = scd_block_transform(1).gates
        second = scd_block_transform(2).gates
        for g1, g2 in zip(first, second):
            assert g2.kind == g1.kind
            assert g2.qubits == tuple(q + 4 for q in g1.qubits)
            assert g2.angle == g1.angle

    def test_unitary(self):
        from dfsqft import unitarity_defect

        assert unitarity_defect(circuit_unitary(scd_block_transform(1))) < 1e-10

    def test_inverse_composition(self):
        forward = scd_block_transform(1)
        composed = circuit_unitary(forward + invert(forward))
        np.testing.assert_allclose(composed, np.eye(16), atol=1e-10)

    def test_maps_logical_states_to_basis_states(self):
        u = circuit_unitary(scd_block_transform(1))
        images = [u @ SCD.state(b).amplitudes for b in "01"]
        peaks = []
        for img in images:
            idx = int(np.argmax(np.abs(img)))
            assert abs(abs(img[idx]) - 1.0) < 1e-12
            peaks.append(idx)
        # the two images are basis states differing exactly in qubit 4's bit,
        # with no relative phase between them
        assert peaks[0] ^ peaks[1] == 0b1000
        assert abs(images[0][peaks[0]] - images[1][peaks[1]]) < 1e-12


def _logical_hadamard_deviation(block_transform: tuple[Gate, ...]) -> float:
    """Worst amplitude error of H on qubit 4, conjugated by a block transform,
    against the logical Hadamard on the two encoded basis states."""
    hadamard = Circuit(4, BlockCode(4, SCD.states, block_transform).hadamard(1))
    zero, one = SCD.state("0"), SCD.state("1")
    plus = (zero.amplitudes + one.amplitudes) * INV_SQRT2
    minus = (zero.amplitudes - one.amplitudes) * INV_SQRT2
    return max(np.max(np.abs(apply_circuit(zero, hadamard).amplitudes - plus)),
               np.max(np.abs(apply_circuit(one, hadamard).amplitudes - minus)))


def _swap(g: Gate) -> Gate:
    return Gate(g.kind, g.qubits[::-1], g.angle)


def _negate(g: Gate) -> Gate:
    return Gate(g.kind, g.qubits, -g.angle) if g.kind in ("R", "CR") else g


class TestConventionResolver:
    # The paper prints the transform as a product whose CN/CR argument order
    # and R/CR angle signs could each be read two ways. Read as written
    # (control first, angles as given), it gives the logical Hadamard; the
    # three other readings miss it by 0.65 to 1.0.

    def test_as_written_passes(self):
        assert _logical_hadamard_deviation(scd_block_transform(1).gates) < 1e-10
        assert resolve_convention().gates == scd_block_transform(1).gates

    def test_variant_lowerings_fail_the_contract(self):
        as_written = scd_block_transform(1).gates
        variants = {
            "swapped CN/CR arguments": tuple(map(_swap, as_written)),
            "negated R/CR angles": tuple(map(_negate, as_written)),
            "both": tuple(_swap(_negate(g)) for g in as_written),
        }
        for name, gates in variants.items():
            assert _logical_hadamard_deviation(gates) > 0.5, name


class TestTransformMatrix:
    def test_fallback_sends_logical_to_basis_states(self):
        from dfsqft import scd_transform_matrix

        u = scd_transform_matrix(1)
        for bits in "01":
            img = u @ SCD.state(bits).amplitudes
            assert abs(np.max(np.abs(img)) - 1.0) < 1e-12

    def test_fallback_unitary(self):
        from dfsqft import scd_transform_matrix, unitarity_defect

        for n in (1, 2):
            assert unitarity_defect(scd_transform_matrix(n)) < 1e-10

    def test_fallback_conjugated_hadamard_exact(self):
        from dfsqft import scd_transform_matrix

        u = scd_transform_matrix(1)
        conjugated = u.conj().T @ circuit_unitary(Circuit(4, (h(4),))) @ u
        zero, one = SCD.state("0").amplitudes, SCD.state("1").amplitudes
        np.testing.assert_allclose(conjugated @ zero, (zero + one) * INV_SQRT2, atol=1e-10)
        np.testing.assert_allclose(conjugated @ one, (zero - one) * INV_SQRT2, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2])
    def test_blockwise_fallback_equals_dense_kron(self, n):
        from dfsqft import scd_transform_matrix

        columns = np.random.default_rng(5).normal(size=(16**n, 3)) + 0j
        np.testing.assert_allclose(_fallback_columns(columns, n),
                                   scd_transform_matrix(n) @ columns,
                                   rtol=0, atol=1e-14)

    def test_fallback_columns_are_frozen_and_kept_by_subspace_basis(self):
        # verify's fallback route builds its SubspaceBasis on them without a copy
        columns = _fallback_columns(SCD.basis(2).matrix, 2)
        assert columns.flags.owndata and columns.flags.c_contiguous
        assert not columns.flags.writeable
        assert SubspaceBasis(8, columns).matrix is columns

    def test_sequence_and_fallback_agree_on_logical_blocks(self):
        # cross-validation: both transforms induce the same logical Hadamard
        from dfsqft import scd_transform_matrix

        basis = SCD.basis(1)
        u_fb = scd_transform_matrix(1)
        mid = circuit_unitary(Circuit(4, (h(4),)))
        block_fb, _ = restrict(u_fb.conj().T @ mid @ u_fb, basis)
        block_seq, _ = restrict(circuit_unitary(scd_hadamard(1, 1)), basis)
        np.testing.assert_allclose(block_fb, block_seq, atol=1e-10)


class TestLogicalHadamard:
    def test_gate_count(self):
        assert len(scd_hadamard(1, 1)) == 29

    def test_action_on_logical_zero(self):
        u = circuit_unitary(scd_hadamard(1, 1))
        zero, one = SCD.state("0").amplitudes, SCD.state("1").amplitudes
        np.testing.assert_allclose(u @ zero, (zero + one) * INV_SQRT2, atol=1e-10)

    def test_action_on_logical_one(self):
        u = circuit_unitary(scd_hadamard(1, 1))
        zero, one = SCD.state("0").amplitudes, SCD.state("1").amplitudes
        np.testing.assert_allclose(u @ one, (zero - one) * INV_SQRT2, atol=1e-10)

    def test_applied_twice_is_identity_on_logical_states(self):
        u = circuit_unitary(scd_hadamard(1, 1))
        zero = SCD.state("0").amplitudes
        np.testing.assert_allclose(u @ (u @ zero), zero, atol=1e-10)

    def test_leakage(self):
        for n, k in ((1, 1), (2, 1), (2, 2)):
            _, leakage = restrict(circuit_unitary(scd_hadamard(k, n)), SCD.basis(n))
            assert leakage < 1e-10

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            scd_hadamard(2, 1)

    def test_non_integer_register_rejected(self):
        # 1.5 used to give a circuit on a register of 6.0 qubits
        with pytest.raises(ValueError, match="n_logical must be a positive integer"):
            scd_hadamard(1, 1.5)


class TestLogicalPhase:
    def test_gate_count(self):
        assert len(scd_phase(2, 1, math.pi / 2, 2)) == 57

    def test_phase_on_one_one(self):
        u = circuit_unitary(scd_phase(2, 1, math.pi / 2, 2))
        state = SCD.state("11").amplitudes
        np.testing.assert_allclose(u @ state, np.exp(1j * math.pi / 2) * state, atol=1e-10)

    def test_identity_on_zero_zero(self):
        u = circuit_unitary(scd_phase(2, 1, math.pi / 2, 2))
        state = SCD.state("00").amplitudes
        np.testing.assert_allclose(u @ state, state, atol=1e-10)

    def test_zero_angle_is_identity(self):
        block, leakage = restrict(
            circuit_unitary(scd_phase(1, 2, 0.0, 2)), SCD.basis(2)
        )
        np.testing.assert_allclose(block, np.eye(4), atol=1e-10)
        assert leakage < 1e-10

    def test_both_branches_both_orders(self):
        basis = SCD.basis(2)
        for i, j in ((1, 2), (2, 1)):
            theta = math.pi / 4
            block, leakage = restrict(circuit_unitary(scd_phase(i, j, theta, 2)), basis)
            expected = np.diag([1, 1, 1, np.exp(1j * theta)]).astype(complex)
            np.testing.assert_allclose(block, expected, atol=1e-10)
            assert leakage < 1e-10

    def test_index_collision(self):
        with pytest.raises(ValueError):
            scd_phase(1, 1, 0.4, 2)

    def test_explicit_sequence_both_orders(self):
        # T_j, T_i, P(4i, 4j), T_j^-1, T_i^-1 with T_t the block transform of t
        def transform(t):
            return Circuit(8, scd_block_transform(t).gates)

        for i, j in ((1, 2), (2, 1)):
            expected = (transform(j) + transform(i) + Circuit(8, (p(4 * i, 4 * j, 0.3),))
                        + invert(transform(j)) + invert(transform(i)))
            assert scd_phase(i, j, 0.3, 2) == expected


class TestEncodedQft:
    def test_single_logical_qubit(self):
        assert synth_qft_scd(1) == scd_hadamard(1, 1)

    def test_two_logical_structure(self):
        expected = scd_hadamard(2, 2) + scd_phase(1, 2, math.pi / 2, 2) + scd_hadamard(1, 2)
        assert synth_qft_scd(2) == expected
        assert len(synth_qft_scd(2)) == 29 + 57 + 29

    @pytest.mark.parametrize("n", [1, 2])
    def test_restriction_matches_dft(self, n):
        block, leakage = restrict(circuit_unitary(synth_qft_scd(n)), SCD.basis(n))
        target = dft_matrix(n)[bit_reversal_permutation(n)]
        assert 1.0 - global_phase_agreement(target, block) < 1e-10
        assert leakage < 1e-10

    def test_restriction_equals_plain_circuit(self):
        block, _ = restrict(circuit_unitary(synth_qft_scd(2)), SCD.basis(2))
        np.testing.assert_allclose(block, circuit_unitary(synth_qft(2)), atol=1e-10)

    def test_range(self):
        with pytest.raises(ValueError):
            synth_qft_scd(4)


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name, builder",
        [
            ("scd_block_transform_1.txt", lambda: scd_block_transform(1)),
            ("scd_hadamard_1of1.txt", lambda: scd_hadamard(1, 1)),
            ("scd_phase_12_pi2.txt", lambda: scd_phase(1, 2, math.pi / 2, 2)),
        ],
    )
    def test_golden(self, name, builder):
        path = pathlib.Path(GOLDEN_DIR) / name
        text = path.read_text(encoding="utf-8")
        assert print_circuit(builder()) == text
        assert parse_circuit(text) == builder()
