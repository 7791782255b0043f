"""Span tracer that times dfsqft layers from outside the package.

Each traced public function is replaced, in every dfsqft module that binds
its name, by a wrapper that records one span: name, layer, start, end,
parent span, the benchmark op that caused it, its self time, and the work
counts computed from the call's arguments. Spans stay in memory until the
run ends. Nothing inside the package is changed on disk; `uninstall`
restores the original bindings.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field


def _unitary_counts(result, circuit, n_qubits=None):
    dim = 2 ** (circuit.n_qubits if n_qubits is None else n_qubits)
    return {
        "columns_built": dim,
        "gate_columns": len(circuit) * dim,
        "bytes_computed": len(circuit) * dim * dim * 32,
    }


def _restrict_counts(result, matrix, basis):
    return {"columns_read": len(basis)}


def _noise_positions(granularity: str, n_gates: int, block_boundaries) -> int:
    if granularity == "per_elementary_gate":
        return n_gates + 1
    if granularity == "endpoints_only":
        return len({0, n_gates})
    return len(block_boundaries) + 1


def _trial_counts(result, circuit, input_state, ideal_output, policy, model,
                  block_boundaries=None, subspace=None):
    events = policy.trials * _noise_positions(policy.granularity, len(circuit), block_boundaries)
    return {
        "trials": policy.trials,
        "events": events,
        "rotations_1q": events * circuit.n_qubits,
        "gate_applications": policy.trials * len(circuit),
    }


def _operator_counts(result, n, axis):
    return {"bytes": 4**n * 16}


def _gate_counts(result, *args, **kwargs):
    return {"gates": len(result)}


# layer -> ((module, function), ...) and the counter applied to each call
LAYERS = {
    "statevector.circuit_unitary": ((("statevector", "circuit_unitary"),), _unitary_counts),
    "statevector.restrict": ((("statevector", "restrict"),), _restrict_counts),
    "statevector.apply_circuit": ((("statevector", "apply_circuit"),), None),
    "noise.run_trials": ((("noise", "run_trials"),), _trial_counts),
    "noise.apply_noise": ((("noise", "apply_noise"),), None),
    "dfs.collective_operator": ((("dfs", "collective_operator"),), _operator_counts),
    "dfs.brute_force_max_dfs_dimension": ((("dfs", "brute_force_max_dfs_dimension"),), None),
    "qft.synth": (
        (
            ("qft", "synth_qft"),
            ("qft", "synth_logical_qft"),
            ("wcd", "synth_qft_wcd"),
            ("wcd", "wcd_hadamard"),
            ("wcd", "wcd_phase"),
            ("wcd", "wcd_encoder_circuit"),
            ("scd", "synth_qft_scd"),
            ("scd", "scd_hadamard"),
            ("scd", "scd_phase"),
            ("scd", "scd_block_transform"),
        ),
        _gate_counts,
    ),
    "qft.dft_matrix": ((("qft", "dft_matrix"),), None),
    "qft.resolve_output_order": ((("qft", "resolve_output_order"),), None),
    "scd.resolve_convention": ((("scd", "resolve_convention"),), None),
    "scd.scd_transform_matrix": ((("scd", "scd_transform_matrix"),), None),
    "circuits.parse_circuit": ((("circuits", "parse_circuit"),), None),
    "circuits.print_circuit": ((("circuits", "print_circuit"),), None),
    "cli.main": ((("cli", "main"),), None),
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int | None
    self_s: float
    counts: dict = field(default_factory=dict)


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, other: LayerTotals, scale: float = 1.0) -> None:
        self.calls += other.calls * scale
        self.self_s += other.self_s * scale
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value * scale


class Tracer:
    """Wraps the functions in LAYERS; `op` tags new spans with the op that runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._wrappers = {}  # original function -> wrapper
        for layer, (targets, counter) in LAYERS.items():
            for module, name in targets:
                original = getattr(importlib.import_module(f"dfsqft.{module}"), name)
                self._wrappers[original] = self._wrap(layer, f"{module}.{name}", original, counter)
        self._patches: list[tuple] = []

    def _wrap(self, layer, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            counts = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(Span(span_id, name, layer, start, end,
                                       None if parent is None else parent[0], self.op,
                                       end - start - frame[1], counts))
            if counter is not None:
                counts.update(counter(result, *args, **kwargs))
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced function, wherever a dfsqft module imported it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dfsqft"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()

    def totals(self, ops: bool) -> dict[str, LayerTotals]:
        """Per-layer totals over the spans of ops (ops=True) or of set-up (ops=False).

        Gates count only for synthesis spans whose parent is not itself a
        synthesis span, so a circuit built from blocks is counted once."""
        layer_of = {span.id: span.layer for span in self.spans}
        out = {layer: LayerTotals() for layer in LAYERS}
        for span in self.spans:
            if (span.op is not None) != ops:
                continue
            totals = out[span.layer]
            totals.calls += 1
            totals.self_s += span.self_s
            counts = span.counts
            if span.layer == "qft.synth" and layer_of.get(span.parent) == "qft.synth":
                counts = {}
            for key, value in counts.items():
                totals.counts[key] = totals.counts.get(key, 0) + value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
