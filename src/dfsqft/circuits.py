"""Symbolic gate catalog, circuit IR, and the line-oriented circuit text format.

Five elementary gate kinds:

    H  k           Hadamard on qubit k
    CN c t         controlled-NOT: flip t when c is |1>
    R  k  angle    real rotation: |0> -> cos(a)|0> + sin(a)|1>,
                   |1> -> -sin(a)|0> + cos(a)|1>
    P  c t angle   controlled phase: multiply |11> by e^{i*angle}
    CR c t angle   controlled rotation: R(angle) on t when c is |1>

Qubit indices are 1-based. A Circuit stores gates in application order:
``gates[0]`` acts on the state first. Angles serialize as "pi", "pi/2^k"
or "-pi/2^k" when exactly representable, otherwise as decimals with 17
significant digits (lossless for float64).
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

_ARITY = {"H": 1, "CN": 2, "R": 1, "P": 2, "CR": 2}
_HAS_ANGLE = {"H": False, "CN": False, "R": True, "P": True, "CR": True}


def _index(value) -> int:
    """operator.index, refusing bool: True is an int, not a size or an index."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _is_integer(value) -> bool:
    """Whether _index accepts value (an int or numpy integer, not a bool)."""
    try:
        _index(value)
    except TypeError:
        return False
    return True


def _check_size(value, name: str, limit: int | None = None) -> int:
    """value as an int, if it is an integer in 1..limit (any positive
    integer without a limit); the one size check of the package."""
    if _is_integer(value) and value >= 1 and (limit is None or value <= limit):
        return _index(value)
    if limit is None:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    raise ValueError(f"{name} must be an integer in 1..{limit}, got {value!r}")


@dataclass(frozen=True)
class Gate:
    """One elementary gate; two-qubit kinds store (control, target)."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        try:
            object.__setattr__(self, "qubits", tuple(map(_index, self.qubits)))
        except TypeError:
            raise ValueError(f"qubit indices must be integers, got {self.qubits!r}") from None
        if len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_ARITY[self.kind]} qubit index(es), got {len(self.qubits)}"
            )
        if any(q < 1 for q in self.qubits):
            raise ValueError("qubit indices are 1-based")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate control/target index in {self.kind}")
        if _HAS_ANGLE[self.kind]:
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle")
            try:
                angle = float(self.angle)
            except OverflowError:  # an int beyond float range
                angle = math.inf
            if not math.isfinite(angle):
                raise ValueError("gate angle must be finite")
            object.__setattr__(self, "angle", angle)
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    def inverse(self) -> Gate:
        if self.angle is None:
            return self  # H and CN are self-inverse
        return Gate(self.kind, self.qubits, -self.angle)


def h(k: int) -> Gate:
    return Gate("H", (k,))


def cn(control: int, target: int) -> Gate:
    return Gate("CN", (control, target))


def r(k: int, alpha: float) -> Gate:
    return Gate("R", (k,), alpha)


def p(control: int, target: int, theta: float) -> Gate:
    return Gate("P", (control, target), theta)


def cr(control: int, target: int, beta: float) -> Gate:
    return Gate("CR", (control, target), beta)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence on a fixed register; gates[0] is applied first."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _check_size(self.n_qubits, "n_qubits"))
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) > self.n_qubits:
                raise ValueError(
                    f"gate {g.kind} on qubits {g.qubits} exceeds a {self.n_qubits}-qubit register"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __add__(self, other: Circuit) -> Circuit:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise ValueError("cannot concatenate circuits on different register sizes")
        return Circuit(self.n_qubits, self.gates + other.gates)


def _inverse(gates: tuple[Gate, ...]) -> tuple[Gate, ...]:
    return tuple(g.inverse() for g in reversed(gates))


def invert(circuit: Circuit) -> Circuit:
    """Exact inverse: reversed gate order with every gate inverted."""
    return Circuit(circuit.n_qubits, _inverse(circuit.gates))


class CircuitParseError(ValueError):
    """Malformed circuit text; ``lineno`` is the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_PI_FRACTION = re.compile(r"(-?)pi/([0-9]+)")


def _format_angle(x: float) -> str:
    if x == math.pi:
        return "pi"
    denom = 1
    for _ in range(64):
        if x == math.pi / denom:
            return f"pi/{denom}"
        if x == -math.pi / denom:
            return f"-pi/{denom}"
        denom *= 2
    return format(x, ".17g")


def _parse_angle(token: str, lineno: int) -> float:
    if token == "pi":
        return math.pi
    m = _PI_FRACTION.fullmatch(token)
    if m:
        try:
            value = math.pi / int(m.group(2))
        except ZeroDivisionError:
            raise CircuitParseError(lineno, "zero denominator in angle") from None
        except (OverflowError, ValueError):  # beyond float range, or int's digit limit
            raise CircuitParseError(lineno, "angle denominator too large") from None
        return -value if m.group(1) else value
    try:
        return float(token)
    except ValueError:
        raise CircuitParseError(lineno, f"bad angle {token!r}") from None


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; file order is application order."""
    n_qubits = None
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise CircuitParseError(lineno, "expected 'qubits N' header")
            try:
                n_qubits = int(tokens[1])
            except ValueError:
                raise CircuitParseError(lineno, f"bad qubit count {tokens[1]!r}") from None
            if n_qubits < 1:
                raise CircuitParseError(lineno, "qubit count must be positive")
            continue
        kind = tokens[0]
        if kind not in _ARITY:
            raise CircuitParseError(lineno, f"unknown mnemonic {kind!r}")
        n_args = _ARITY[kind] + (1 if _HAS_ANGLE[kind] else 0)
        if len(tokens) != 1 + n_args:
            raise CircuitParseError(lineno, f"{kind} expects {n_args} argument(s)")
        try:
            qubits = tuple(int(tok) for tok in tokens[1 : 1 + _ARITY[kind]])
        except ValueError:
            raise CircuitParseError(lineno, "qubit index must be an integer") from None
        angle = _parse_angle(tokens[-1], lineno) if _HAS_ANGLE[kind] else None
        try:
            gate = Gate(kind, qubits, angle)
        except ValueError as exc:
            raise CircuitParseError(lineno, str(exc)) from None
        if max(qubits) > n_qubits:
            raise CircuitParseError(
                lineno, f"qubit index exceeds the declared register of {n_qubits}"
            )
        gates.append(gate)
    if n_qubits is None:
        raise CircuitParseError(1, "missing 'qubits N' header")
    return Circuit(n_qubits, tuple(gates))


def print_circuit(circuit: Circuit) -> str:
    """Serialize so that parse_circuit round-trips to a structurally equal circuit."""
    lines = [f"qubits {circuit.n_qubits}"]
    for g in circuit.gates:
        parts = [g.kind, *map(str, g.qubits)]
        if g.angle is not None:
            parts.append(_format_angle(g.angle))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
