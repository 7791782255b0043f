import math

import numpy as np
import pytest

from dfsqft import (
    Circuit,
    bit_reversal_permutation,
    circuit_unitary,
    cn,
    cr,
    dft_matrix,
    global_phase_agreement,
    h,
    invert,
    logical_block_boundaries,
    p,
    scd_hadamard,
    scd_transform_matrix,
    synth_logical_qft,
    synth_qft,
    synth_qft_scd,
    synth_qft_wcd,
    unitarity_defect,
    wcd_hadamard,
    wcd_phase,
)
from dfsqft.qft import PLAIN, BlockCode, resolve_output_order
from dfsqft.scd import SCD
from dfsqft.wcd import WCD


class TestSynthQft:
    def test_single_qubit(self):
        assert synth_qft(1) == Circuit(1, (h(1),))

    def test_three_qubit_sequence(self):
        expected = Circuit(
            3,
            (
                h(3),
                p(2, 3, math.pi / 2),
                p(1, 3, math.pi / 4),
                h(2),
                p(1, 2, math.pi / 2),
                h(1),
            ),
        )
        assert synth_qft(3) == expected

    def test_gate_counts(self):
        assert len(synth_qft(5)) == 5 + 10
        for n in range(1, 9):
            circuit = synth_qft(n)
            kinds = [g.kind for g in circuit.gates]
            assert kinds.count("H") == n
            assert kinds.count("P") == n * (n - 1) // 2

    def test_block_structure(self):
        # each H(k) is followed by P(k-1,k,pi/2) ... P(1,k,pi/2^(k-1))
        circuit = synth_qft(4)
        gates = list(circuit.gates)
        pos = 0
        for k in range(4, 0, -1):
            assert gates[pos] == h(k)
            pos += 1
            for j in range(k - 1, 0, -1):
                assert gates[pos] == p(j, k, math.pi / 2 ** (k - j))
                pos += 1

    def test_range(self):
        with pytest.raises(ValueError):
            synth_qft(0)
        with pytest.raises(ValueError):
            synth_qft(15)


class TestDftMatrix:
    def test_two_point_is_hadamard(self):
        np.testing.assert_allclose(
            dft_matrix(1), np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15
        )

    def test_direct_entry(self):
        # entry (1, 1) at n=2: e^{2 pi i / 4} / 2 = i/2
        assert abs(dft_matrix(2)[1, 1] - 0.5j) < 1e-15

    def test_unitarity(self):
        f = dft_matrix(3)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(8), atol=1e-12)

    def test_range(self):
        with pytest.raises(ValueError):
            dft_matrix(0)
        with pytest.raises(ValueError):
            dft_matrix(15)

    def test_non_integer_size_rejected(self):
        # 2.5 used to give a 6x6 matrix scaled by 2^-1.25
        for build, cap in ((dft_matrix, 10), (synth_qft, 14)):
            with pytest.raises(ValueError, match=f"n must be an integer in 1..{cap}, got 2.5"):
                build(2.5)

    def test_dense_cap(self):
        # 2^11 x 2^11 complex is 64 MB, and the array grows 4x per qubit
        with pytest.raises(ValueError) as info:
            dft_matrix(11)
        assert str(info.value) == "n must be an integer in 1..10, got 11"


class TestResolveOutputOrder:
    def test_single_qubit_identity(self):
        # identity and bit reversal coincide at n = 1; the benchmark's stub
        # returns the permutation
        np.testing.assert_array_equal(resolve_output_order(1), [0, 1])
        u = circuit_unitary(synth_qft(1))
        assert 1.0 - global_phase_agreement(dft_matrix(1), u) < 1e-10

    def test_exhaustive_comparison_n2(self):
        # oracle: try both candidates by hand and keep the matcher
        u = circuit_unitary(synth_qft(2))
        f = dft_matrix(2)
        matches = {}
        for kind, perm in (("identity", np.arange(4)), ("bit-reversal", np.array([0, 2, 1, 3]))):
            q = np.zeros((4, 4))
            q[perm, np.arange(4)] = 1.0
            matches[kind] = global_phase_agreement(q @ f, u) >= 1 - 1e-10
        assert matches == {"identity": False, "bit-reversal": True}
        np.testing.assert_array_equal(bit_reversal_permutation(2), [0, 2, 1, 3])

    def test_oracle_consistency_n_le_8(self):
        # every size plain verify accepts
        for n in range(1, 9):
            u = circuit_unitary(synth_qft(n))
            target = dft_matrix(n)[bit_reversal_permutation(n)]
            assert 1.0 - global_phase_agreement(target, u) < 1e-10


def test_bit_reversal_permutation():
    np.testing.assert_array_equal(bit_reversal_permutation(3), [0, 4, 2, 6, 1, 5, 3, 7])


@pytest.mark.parametrize("n", range(1, 15))
def test_bit_reversal_permutation_reverses_the_bit_string(n):
    expected = [int(format(l, f"0{n}b")[::-1], 2) for l in range(2**n)]
    np.testing.assert_array_equal(bit_reversal_permutation(n), expected)


_LOGICAL_MESSAGE = "n_logical must be a positive integer, got "


@pytest.mark.parametrize("call,message", [
    (lambda: bit_reversal_permutation(2.5), r"n must be an integer in 1\.\.14, got 2\.5"),
    (lambda: bit_reversal_permutation(-1), r"n must be an integer in 1\.\.14, got -1"),
    (lambda: scd_transform_matrix(2.5), r"n must be an integer in 1\.\.3, got 2\.5"),
    (lambda: synth_qft_wcd(2.5), r"n must be an integer in 1\.\.6, got 2\.5"),
    (lambda: synth_qft_scd(2.5), r"n must be an integer in 1\.\.3, got 2\.5"),
    (lambda: WCD.basis(2.5), _LOGICAL_MESSAGE + r"2\.5"),
    (lambda: WCD.basis(0), _LOGICAL_MESSAGE + "0"),
    (lambda: SCD.basis(2.5), _LOGICAL_MESSAGE + r"2\.5"),
    (lambda: synth_logical_qft(2.5, PLAIN), _LOGICAL_MESSAGE + r"2\.5"),
    (lambda: logical_block_boundaries(2.5, PLAIN), _LOGICAL_MESSAGE + r"2\.5"),
    # True is an int: dft_matrix(True) used to return the 2 x 2 DFT
    (lambda: dft_matrix(True), r"n must be an integer in 1\.\.10, got True"),
    (lambda: synth_qft(True), r"n must be an integer in 1\.\.14, got True"),
    (lambda: synth_logical_qft(True, PLAIN), _LOGICAL_MESSAGE + "True"),
    (lambda: wcd_hadamard(True, 2), r"logical index True out of range 1\.\.2"),
], ids=["bit_reversal_permutation", "bit_reversal_permutation-negative", "scd_transform_matrix",
        "synth_qft_wcd", "synth_qft_scd", "WCD.basis", "WCD.basis-zero",
        "SCD.basis", "synth_logical_qft", "logical_block_boundaries", "dft_matrix-bool",
        "synth_qft-bool", "trivial_factory-bool", "hadamard-index-bool"])
def test_non_integer_size_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestLogicalSynthesis:
    def test_trivial_factory_reproduces_plain(self):
        # the plain code's logical gates are the physical H and P gates
        for n in range(1, 7):
            assert synth_logical_qft(n, PLAIN) == synth_qft(n)

    def test_wcd_factory_structure(self):
        # encoded three-qubit transform: H block on 3, P blocks (2,3), (1,3),
        # H block on 2, P block (1,2), H block on 1
        circuit = synth_logical_qft(3, WCD)
        expected = (
            wcd_hadamard(3, 3)
            + wcd_phase(2, 3, math.pi / 2, 3)
            + wcd_phase(1, 3, math.pi / 4, 3)
            + wcd_hadamard(2, 3)
            + wcd_phase(1, 2, math.pi / 2, 3)
            + wcd_hadamard(1, 3)
        )
        assert circuit == expected
        assert len(circuit) == 3 * 3 + 3 * 5

    def test_scd_factory_single_qubit(self):
        assert synth_logical_qft(1, SCD) == scd_hadamard(1, 1)

    def test_conjugation_rule(self):
        code = BlockCode(2, WCD.states, (cn(2, 1), cr(2, 1, 0.3)))
        decoder = lambda t: (cn(2 * t, 2 * t - 1), cr(2 * t, 2 * t - 1, 0.3))
        assert code.decode(2) == decoder(2)
        assert code.hadamard(1) == (*decoder(1), h(2), *invert(Circuit(4, decoder(1))).gates)
        assert code.phase(2, 1, 0.7) == (
            *decoder(1), *decoder(2), p(4, 2, 0.7),
            *invert(Circuit(4, decoder(1))).gates, *invert(Circuit(4, decoder(2))).gates)
        # the QFT is one circuit on the code's register: 2 blocks of 2 qubits
        assert synth_logical_qft(2, code) == Circuit(4, (
            *code.hadamard(2), *code.phase(1, 2, math.pi / 2), *code.hadamard(1)))

    def test_conjugation_factory_validates_indices(self):
        # the code's gates need positive indices; the register wrappers also
        # bound them by n
        for n in (0, 1.5):
            with pytest.raises(ValueError, match="n_logical must be a positive integer"):
                synth_logical_qft(n, PLAIN)
        for k in (0, 1.5, True):
            with pytest.raises(ValueError, match=f"logical index must be a positive integer, got {k}"):
                PLAIN.hadamard(k)
        for k in (0, 3):
            with pytest.raises(ValueError, match=f"logical index {k} out of range 1..2"):
                wcd_hadamard(k, 2)
        with pytest.raises(ValueError, match="logical index 3 out of range 1..2"):
            wcd_phase(1, 3, 0.1, 2)
        with pytest.raises(ValueError, match="logical control and target must differ"):
            WCD.phase(2, 2, 0.1)
        with pytest.raises(ValueError, match="logical control and target must differ"):
            wcd_phase(2, 2, 0.1, 2)

    def test_block_code_refuses_a_misdescribed_block(self):
        with pytest.raises(ValueError, match=r"needs a 4 x 2 state matrix, got shape \(4, 3\)"):
            BlockCode(2, np.eye(4)[:, :3])

    @pytest.mark.parametrize("size,states", [
        (True, np.eye(2)),  # a bool, with states that would fit size 1
        (0, np.eye(1)[:, [0, 0]]),  # a 1 x 2 matrix fits 2^0 rows
        (1.5, np.eye(2)),
        (-1, np.eye(2)),
    ], ids=["bool", "zero", "fractional", "negative"])
    def test_block_code_refuses_a_bad_size(self, size, states):
        with pytest.raises(ValueError, match=rf"^block size must be a positive integer, got {size!r}$"):
            BlockCode(size, states)

    def test_block_boundaries(self):
        assert logical_block_boundaries(3, PLAIN) == [1, 2, 3, 4, 5, 6]
        assert logical_block_boundaries(2, WCD) == [3, 8, 11]
        assert logical_block_boundaries(2, SCD) == [29, 86, 115]

    def test_logical_unitaries_stay_unitary(self):
        assert unitarity_defect(circuit_unitary(synth_logical_qft(2, WCD))) < 1e-10
