import math
import pathlib

import pytest

from dfsqft import (
    Circuit,
    CircuitParseError,
    Gate,
    circuit_unitary,
    cn,
    cr,
    h,
    invert,
    p,
    parse_circuit,
    print_circuit,
    r,
    scd_block_transform,
    synth_qft,
    synth_qft_wcd,
)

import numpy as np

from conftest import GOLDEN_DIR


class TestGate:
    def test_constructors(self):
        assert h(2) == Gate("H", (2,))
        assert cn(2, 1) == Gate("CN", (2, 1))
        assert p(1, 3, math.pi / 4).angle == math.pi / 4

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            cn(1, 1)
        with pytest.raises(ValueError, match="duplicate"):
            p(2, 2, 0.1)

    def test_arity_and_angle_shape(self):
        with pytest.raises(ValueError):
            Gate("H", (1, 2))
        with pytest.raises(ValueError, match="requires an angle"):
            Gate("R", (1,))
        with pytest.raises(ValueError, match="takes no angle"):
            Gate("CN", (1, 2), 0.5)
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("X", (1,))
        with pytest.raises(ValueError, match="1-based"):
            Gate("H", (0,))

    def test_non_integer_indices_rejected(self):
        # no silent int() truncation of 1.5 to qubit 1, and no string indices
        with pytest.raises(ValueError, match="integers"):
            Gate("H", (1.5,))
        with pytest.raises(ValueError, match="integers"):
            Gate("CN", ("2", 1))
        with pytest.raises(ValueError, match="integers"):
            p(1, 2.0, 0.1)
        with pytest.raises(ValueError, match="integers"):
            Gate("H", (True,))

    @pytest.mark.parametrize("angle", [10**400, -(10**400), math.inf, math.nan],
                             ids=["int-beyond-float", "negative-int-beyond-float", "inf", "nan"])
    def test_angle_beyond_float_range_is_not_finite(self, angle):
        with pytest.raises(ValueError, match="^gate angle must be finite$"):
            Gate("P", (1, 2), angle)

    def test_numpy_integer_indices_accepted(self):
        gate = cn(np.int64(2), np.int32(1))
        assert gate == cn(2, 1)
        assert all(type(q) is int for q in gate.qubits)

    def test_inverse(self):
        assert h(1).inverse() == h(1)
        assert cn(2, 1).inverse() == cn(2, 1)
        assert r(1, 0.7).inverse() == r(1, -0.7)
        assert cr(1, 2, 0.3).inverse() == cr(1, 2, -0.3)


class TestCircuit:
    def test_index_bounds(self):
        with pytest.raises(ValueError, match="exceeds"):
            Circuit(1, (cn(2, 1),))
        with pytest.raises(ValueError):
            Circuit(0, ())

    def test_non_integer_register_rejected(self):
        for n_qubits in (2.5, 2.0, "2", True):
            with pytest.raises(ValueError, match="positive integer"):
                Circuit(n_qubits, ())

    def test_numpy_integer_register_round_trips(self):
        circuit = Circuit(np.int64(2), (h(1),))
        assert type(circuit.n_qubits) is int
        assert parse_circuit(print_circuit(circuit)) == circuit

    def test_concat_requires_same_register(self):
        with pytest.raises(ValueError):
            Circuit(2) + Circuit(3)
        combined = Circuit(2, (h(1),)) + Circuit(2, (h(2),))
        assert combined.gates == (h(1), h(2))

    @pytest.mark.parametrize("other", [5, (h(2),), None], ids=["int", "gate-tuple", "none"])
    def test_concat_refuses_a_non_circuit(self, other):
        # a TypeError from Python's operator protocol, not an AttributeError
        with pytest.raises(TypeError, match="unsupported operand type"):
            Circuit(2, (h(1),)) + other


class TestParse:
    def test_spec_transcription(self):
        c = parse_circuit("qubits 2\nH 2\nCN 2 1\n")
        assert c == Circuit(2, (h(2), cn(2, 1)))

    def test_angle_literal(self):
        c = parse_circuit("qubits 2\nP 1 2 pi/2\n")
        assert c == Circuit(2, (p(1, 2, math.pi / 2),))

    def test_duplicate_control_target(self):
        with pytest.raises(CircuitParseError, match="duplicate"):
            parse_circuit("qubits 1\nCN 1 1\n")

    def test_angle_forms(self):
        c = parse_circuit("qubits 1\nR 1 pi\nR 1 -pi/4\nR 1 0.25\nR 1 -1.5e-3\n")
        assert [g.angle for g in c.gates] == [math.pi, -math.pi / 4, 0.25, -1.5e-3]

    def test_comments_and_blank_lines(self):
        c = parse_circuit("qubits 2\n# a comment\n\nH 1\n# trailing\n")
        assert c == Circuit(2, (h(1),))

    def test_errors_carry_line_numbers(self):
        with pytest.raises(CircuitParseError, match="line 2: unknown mnemonic"):
            parse_circuit("qubits 2\nXX 1\n")
        with pytest.raises(CircuitParseError, match="line 3: H expects 1"):
            parse_circuit("qubits 2\nH 1\nH 1 2\n")
        with pytest.raises(CircuitParseError, match="line 2: .*exceeds"):
            parse_circuit("qubits 2\nH 3\n")
        with pytest.raises(CircuitParseError, match="line 2: bad angle"):
            parse_circuit("qubits 2\nP 1 2 twopi\n")
        with pytest.raises(CircuitParseError, match="header"):
            parse_circuit("H 1\n")
        with pytest.raises(CircuitParseError, match="header"):
            parse_circuit("")
        with pytest.raises(CircuitParseError, match="zero denominator"):
            parse_circuit("qubits 1\nR 1 pi/0\n")

    @pytest.mark.parametrize("digits", [400, 5000], ids=["beyond-float", "beyond-int-digits"])
    def test_huge_angle_denominator(self, digits):
        # pi / 10^400 cannot be formed as a float, and int() refuses over 4300 digits
        with pytest.raises(CircuitParseError, match="^line 2: angle denominator too large$"):
            parse_circuit("qubits 1\nR 1 pi/" + "9" * digits)


class TestPrint:
    def test_single_gate(self):
        assert print_circuit(Circuit(1, (h(1),))) == "qubits 1\nH 1\n"

    def test_pi_fraction(self):
        assert print_circuit(Circuit(3, (p(1, 3, math.pi / 4),))) == "qubits 3\nP 1 3 pi/4\n"

    def test_negative_pi_is_grammar_valid(self):
        text = print_circuit(Circuit(1, (r(1, -math.pi),)))
        assert text == "qubits 1\nR 1 -pi/1\n"
        assert parse_circuit(text).gates[0].angle == -math.pi

    def test_decimal_angles_roundtrip_exactly(self):
        alpha = math.pi - math.asin(1 / math.sqrt(3))
        text = print_circuit(Circuit(1, (r(1, alpha),)))
        assert parse_circuit(text).gates[0].angle == alpha

    @pytest.mark.parametrize(
        "circuit",
        [
            synth_qft(3),
            synth_qft(5),
            synth_qft_wcd(2),
            scd_block_transform(1),
        ],
        ids=["qft3", "qft5", "wcd2", "scd_u1"],
    )
    def test_roundtrip(self, circuit):
        assert parse_circuit(print_circuit(circuit)) == circuit

    def test_roundtrip_golden_corpus(self):
        for path in sorted(pathlib.Path(GOLDEN_DIR).glob("*.txt")):
            text = path.read_text(encoding="utf-8")
            assert print_circuit(parse_circuit(text)) == text


class TestInvert:
    def test_self_inverse_gates(self):
        assert invert(Circuit(1, (h(1),))) == Circuit(1, (h(1),))

    def test_rotation_negates(self):
        assert invert(Circuit(1, (r(1, 0.4),))) == Circuit(1, (r(1, -0.4),))

    def test_involution(self):
        circuit = Circuit(3, (h(1), p(1, 2, 0.3), cn(2, 3), cr(3, 1, -0.8), r(2, 1.1)))
        assert invert(invert(circuit)) == circuit

    def test_composition_is_identity(self):
        circuit = Circuit(3, (h(1), p(1, 2, 0.3), cn(2, 3), cr(3, 1, -0.8), r(2, 1.1)))
        product = circuit_unitary(circuit + invert(circuit))
        np.testing.assert_allclose(product, np.eye(8), atol=1e-10)

    def test_block_transform_inversion(self):
        # matrix-multiplication oracle for the 14-gate transform
        forward = circuit_unitary(scd_block_transform(1))
        backward = circuit_unitary(invert(scd_block_transform(1)))
        np.testing.assert_allclose(backward @ forward, np.eye(16), atol=1e-10)
