"""Command-line front end: synthesize circuits, verify constructions, run noise
benchmarks, and tabulate sector dimensions and encoding efficiency.

Exit codes: 0 success, 1 verification/experiment failure (including range
violations), 2 usage error. JSON reports carry the schema tag "dfsqft/1",
the tool version, the resolved configuration, the seed, and the wall-clock
duration. CSV output embeds the same provenance minus the duration in "#"
comment lines, so identical seeds reproduce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .circuits import Circuit, h, invert, p, parse_circuit, print_circuit
from .dfs import (
    CollectiveModel,
    brute_force_max_dfs_dimension,
    collective_operator,
    max_dfs_dimension,
    min_physical_qubits,
)
from .noise import (
    ENDPOINTS_ONLY,
    PER_ELEMENTARY_GATE,
    PER_LOGICAL_BLOCK,
    NoiseEvent,
    NoisePolicy,
    RunReport,
    apply_noise,
    run_trials,
)
from .qft import dft_matrix, logical_block_boundaries, resolve_output_order, synth_qft, trivial_factory
from .scd import (
    convention_report,
    scd_hadamard,
    scd_logical_basis,
    scd_logical_state,
    scd_phase,
    scd_qft_block_boundaries,
    scd_transform_matrix,
    synth_qft_scd,
)
from .statevector import (
    StateVector,
    apply_circuit,
    circuit_unitary,
    fidelity,
    global_phase_agreement,
    restrict,
    unitarity_defect,
)
from .wcd import (
    synth_qft_wcd,
    wcd_encoder_circuit,
    wcd_hadamard,
    wcd_logical_basis,
    wcd_logical_state,
    wcd_phase,
    wcd_qft_block_boundaries,
)

SCHEMA = "dfsqft/1"
SEED_ENV_VAR = "DFSQFT_SEED"

_POLICY_NAMES = {
    "elementary": PER_ELEMENTARY_GATE,
    "block": PER_LOGICAL_BLOCK,
    "endpoints": ENDPOINTS_ONLY,
}
_SYNTH_RANGES = {"plain": (1, 14), "wcd": (1, 6), "scd": (1, 2)}
_VERIFY_RANGES = {"plain": (1, 5), "wcd": (1, 3), "scd": (1, 2)}
_BENCH_RANGES = {"wcd": (1, 3), "scd": (1, 2)}


class RangeError(ValueError):
    """Argument outside the supported range (exit code 1, not a usage error)."""


def _check_range(name: str, value: int, ranges: dict) -> None:
    low, high = ranges[name] if name in ranges else (None, None)
    if low is None:
        raise RangeError(f"unknown encoding {name!r}")
    if not low <= value <= high:
        raise RangeError(f"{name} supports n in {low}..{high}, got {value}")


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise RangeError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _cast(source: str, text: str, cast):
    try:
        return cast(text)
    except ValueError:
        raise RangeError(f"{source}: {text!r} is not a valid {cast.__name__}") from None


def _resolve_option(args, name: str, config: dict[str, str], cast, default):
    """Precedence: command-line flag > config file > default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in config:
        return _cast(f"config {name}", config[name], cast)
    return default


def _resolve_seed(args, config: dict[str, str]) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in config:
        return _cast("config seed", config["seed"], int)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return _cast(SEED_ENV_VAR, env, int)
    return 0


def _report_skeleton(command: str, config: dict, seed: int | None) -> dict:
    report = {"schema": SCHEMA, "version": __version__, "command": command, "config": config}
    if seed is not None:
        report["seed"] = seed
    return report


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _provenance_lines(command: str, config: dict, seed: int | None) -> list[str]:
    pairs = " ".join(f"{k}={v}" for k, v in config.items())
    lines = [f"# schema={SCHEMA} version={__version__} command={command}"]
    if seed is not None:
        pairs += f" seed={seed}"
    if pairs:
        lines.append(f"# config: {pairs}")
    return lines


# ---------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    encoding, n = args.encoding, args.n
    _check_range(encoding, n, _SYNTH_RANGES)
    if encoding == "plain":
        circuit = synth_qft(n)
    elif encoding == "wcd":
        circuit = synth_qft_wcd(n)
    else:
        circuit = synth_qft_scd(n)
    _write_text(args.out, print_circuit(circuit))
    return 0


# ---------------------------------------------------------------- verify

def _check(name: str, tolerance: float, deviation: float) -> dict:
    return {
        "name": name,
        "tolerance": tolerance,
        "deviation": float(deviation),
        "pass": bool(deviation <= tolerance),
    }


def _qft_restriction_check(circuit: Circuit, basis, n: int, label: str) -> list[dict]:
    block, leakage = restrict(circuit_unitary(circuit), basis)
    order = resolve_output_order(n)
    agreement = global_phase_agreement(order.matrix() @ dft_matrix(n), block)
    exact = np.max(np.abs(block - circuit_unitary(synth_qft(n))))
    return [
        _check(f"{label}_restriction_vs_dft_up_to_phase", 1e-10, 1.0 - agreement),
        _check(f"{label}_restriction_vs_plain_qft", 1e-10, exact),
        _check(f"{label}_leakage", 1e-10, leakage),
    ]


def _verify_plain(n: int, seed: int) -> tuple[list[dict], dict]:
    circuit = synth_qft(n)
    unitary = circuit_unitary(circuit)
    order = resolve_output_order(n)
    agreement = global_phase_agreement(order.matrix() @ dft_matrix(n), unitary)
    checks = [
        _check("qft_unitarity", 1e-10, unitarity_defect(unitary)),
        _check("qft_vs_dft_up_to_phase", 1e-10, 1.0 - agreement),
        _check("gate_count", 0.0, abs(len(circuit) - (n + n * (n - 1) // 2))),
        _check("roundtrip", 0.0, 0.0 if parse_circuit(print_circuit(circuit)) == circuit else 1.0),
    ]
    return checks, {"output_order": order.kind}


def _wcd_logical_gate_checks(n: int) -> list[dict]:
    basis = wcd_logical_basis(n)
    hadamard_2x2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    dev_h = leak_h = 0.0
    for k in range(1, n + 1):
        block, leakage = restrict(circuit_unitary(wcd_hadamard(k, n)), basis)
        expected = np.kron(np.eye(2 ** (n - k)), np.kron(hadamard_2x2, np.eye(2 ** (k - 1))))
        dev_h = max(dev_h, float(np.max(np.abs(block - expected))))
        leak_h = max(leak_h, leakage)
    checks = [
        _check("logical_hadamard_action", 1e-10, dev_h),
        _check("logical_hadamard_leakage", 1e-10, leak_h),
    ]
    if n >= 2:
        dev_p = leak_p = 0.0
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
                    dev_p = max(dev_p, float(np.max(np.abs(block - np.diag(phases)))))
                    leak_p = max(leak_p, leakage)
        checks += [
            _check("logical_phase_action", 1e-10, dev_p),
            _check("logical_phase_leakage", 1e-10, leak_p),
        ]
    return checks


def _wcd_conjugation_checks(n: int) -> list[dict]:
    reg_size = 2 * n
    encoder = wcd_encoder_circuit(n)
    dev_h = 0.0
    for k in range(1, n + 1):
        conjugated = encoder + Circuit(reg_size, (h(2 * k),)) + invert(encoder)
        dev = np.max(np.abs(circuit_unitary(conjugated) - circuit_unitary(wcd_hadamard(k, n))))
        dev_h = max(dev_h, float(dev))
    checks = [_check("encoder_conjugation_hadamard", 1e-10, dev_h)]
    if n >= 2:
        dev_p = 0.0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for theta in (math.pi / 2, math.pi / 4):
                    conjugated = encoder + Circuit(reg_size, (p(2 * i, 2 * j, theta),)) + invert(encoder)
                    dev = np.max(
                        np.abs(circuit_unitary(conjugated) - circuit_unitary(wcd_phase(i, j, theta, n)))
                    )
                    dev_p = max(dev_p, float(dev))
        checks.append(_check("encoder_conjugation_phase", 1e-10, dev_p))
    return checks


def _noise_invariance_deviation(states, model: CollectiveModel, seed: int, n_events: int = 20) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for state in states:
        for _ in range(n_events):
            event = NoiseEvent(tuple(rng.uniform(0.0, 2.0 * math.pi, len(model.axes))))
            worst = max(worst, 1.0 - fidelity(apply_noise(state, event, model), state))
    return worst


def _verify_wcd(n: int, seed: int) -> tuple[list[dict], dict]:
    checks = _wcd_logical_gate_checks(n)
    checks += _wcd_conjugation_checks(n)
    checks += _qft_restriction_check(synth_qft_wcd(n), wcd_logical_basis(n), n, "encoded_qft")
    states = wcd_logical_basis(n).vectors
    checks.append(
        _check("logical_state_noise_invariance", 1e-12,
               _noise_invariance_deviation(states, CollectiveModel.WCD, seed))
    )
    return checks, {"output_order": resolve_output_order(n).kind}


def _scd_state_checks(n: int) -> list[dict]:
    basis = scd_logical_basis(n)
    gram = basis.matrix.conj().T @ basis.matrix
    dev_gram = float(np.max(np.abs(gram - np.eye(len(basis)))))
    dev_annihilation = 0.0
    for axis in "xyz":
        op = collective_operator(4 * n, axis)
        for vec in basis.vectors:
            dev_annihilation = max(dev_annihilation, float(np.linalg.norm(op @ vec.amplitudes)))
    return [
        _check("logical_states_orthonormal", 1e-12, dev_gram),
        _check("logical_states_annihilated", 1e-10, dev_annihilation),
    ]


def _logical_phase_diag(n: int, i: int, j: int, theta: float) -> np.ndarray:
    phases = np.ones(2**n, dtype=complex)
    for l in range(2**n):
        if (l >> (i - 1)) & 1 and (l >> (j - 1)) & 1:
            phases[l] = np.exp(1j * theta)
    return np.diag(phases)


def _scd_gate_blocks(n: int, source: str) -> dict[tuple, tuple[np.ndarray, float]]:
    """Logical restrictions (block, leakage) of every conjugated gate, keyed by
    ("h", k) and ("p", i, j, theta), built from the gate sequence or from the
    fallback basis-change matrix."""
    basis = scd_logical_basis(n)
    transform = None if source == "sequence" else scd_transform_matrix(n, source="fallback")

    def conjugated(middle: Circuit, sequence_circuit: Circuit) -> np.ndarray:
        if transform is None:
            return circuit_unitary(sequence_circuit)
        return transform.conj().T @ circuit_unitary(middle) @ transform

    blocks = {}
    for k in range(1, n + 1):
        matrix = conjugated(Circuit(4 * n, (h(4 * k),)), scd_hadamard(k, n))
        blocks[("h", k)] = restrict(matrix, basis)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for theta in (math.pi / 2, math.pi / 4):
                matrix = conjugated(
                    Circuit(4 * n, (p(4 * i, 4 * j, theta),)), scd_phase(i, j, theta, n)
                )
                blocks[("p", i, j, theta)] = restrict(matrix, basis)
    return blocks


def _scd_contract_deviation(n: int, blocks: dict) -> float:
    """Worst deviation of the restricted gates from the exact logical actions."""
    hadamard_2x2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    worst = 0.0
    for key, (block, leakage) in blocks.items():
        if key[0] == "h":
            k = key[1]
            expected = np.kron(np.eye(2 ** (n - k)), np.kron(hadamard_2x2, np.eye(2 ** (k - 1))))
        else:
            _, i, j, theta = key
            expected = _logical_phase_diag(n, i, j, theta)
        worst = max(worst, float(np.max(np.abs(block - expected))), leakage)
    return worst


def _verify_scd(n: int, seed: int) -> tuple[list[dict], dict]:
    checks = _scd_state_checks(n)
    resolver = convention_report()
    seq_blocks = _scd_gate_blocks(n, "sequence")
    fb_blocks = _scd_gate_blocks(n, "fallback")
    agreement = max(
        float(np.max(np.abs(seq_blocks[key][0] - fb_blocks[key][0]))) for key in seq_blocks
    )
    checks += [
        _check("logical_gates_fallback", 1e-10, _scd_contract_deviation(n, fb_blocks)),
        _check("logical_gates_sequence", 1e-10, _scd_contract_deviation(n, seq_blocks)),
        _check("sequence_vs_fallback_restrictions", 1e-10, agreement),
    ]
    checks += _qft_restriction_check(synth_qft_scd(n), scd_logical_basis(n), n, "encoded_qft")
    states = scd_logical_basis(n).vectors
    checks.append(
        _check("logical_state_noise_invariance", 1e-10,
               _noise_invariance_deviation(states, CollectiveModel.SCD, seed))
    )
    return checks, {"resolver": resolver}


def cmd_verify(args, config: dict[str, str]) -> int:
    encoding, n = args.encoding, args.n
    _check_range(encoding, n, _VERIFY_RANGES)
    seed = _resolve_seed(args, config)
    if seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
    started = time.perf_counter()
    if encoding == "plain":
        checks, extra = _verify_plain(n, seed)
    elif encoding == "wcd":
        checks, extra = _verify_wcd(n, seed)
    else:
        checks, extra = _verify_scd(n, seed)
    report = _report_skeleton("verify", {"encoding": encoding, "n": n}, seed)
    report["duration_s"] = time.perf_counter() - started
    report["checks"] = checks
    report["passed"] = all(c["pass"] for c in checks)
    report.update(extra)

    fmt = getattr(args, "format", None) or "json"
    if fmt == "csv":
        lines = _provenance_lines("verify", {"encoding": encoding, "n": n}, seed)
        lines.append("name,tolerance,deviation,pass")
        for c in checks:
            lines.append(f"{c['name']},{c['tolerance']!r},{c['deviation']!r},{c['pass']}")
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        _write_text(args.out, json.dumps(report, indent=2) + "\n")

    if encoding == "scd" and extra["resolver"]["search_exercised"]:
        erratum_path = (args.out or "scd_convention") + ".erratum.json"
        _write_text(erratum_path, json.dumps(extra["resolver"], indent=2) + "\n")
        print(f"convention search exercised; erratum report written to {erratum_path}",
              file=sys.stderr)

    if not report["passed"]:
        first = next(c for c in checks if not c["pass"])
        print(f"FAIL: {first['name']} deviation {first['deviation']:.3e} "
              f"exceeds {first['tolerance']:.1e}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- noise-bench

def _bench_arms(encoding: str, n: int):
    if encoding == "wcd":
        encoded = synth_qft_wcd(n)
        bounds = wcd_qft_block_boundaries(n)
        basis = wcd_logical_basis(n)
        input_state = wcd_logical_state("0" * n)
        model = CollectiveModel.WCD
    else:
        encoded = synth_qft_scd(n)
        bounds = scd_qft_block_boundaries(n)
        basis = scd_logical_basis(n)
        input_state = scd_logical_state("0" * n)
        model = CollectiveModel.SCD
    plain = synth_qft(n)
    plain_bounds = logical_block_boundaries(n, trivial_factory(n))
    plain_input = StateVector.basis(n, 0)
    return (
        ("encoded", encoded, bounds, input_state, basis),
        ("unencoded", plain, plain_bounds, plain_input, None),
        model,
    )


def cmd_noise_bench(args, config: dict[str, str]) -> int:
    encoding = _resolve_option(args, "encoding", config, str, None)
    n = _resolve_option(args, "n", config, int, None)
    if encoding is None or n is None:
        raise RangeError("noise-bench needs --encoding and --n (flags or config file)")
    _check_range(encoding, n, _BENCH_RANGES)
    seed = _resolve_seed(args, config)
    policy_name = _resolve_option(args, "policy", config, str, "block")
    if policy_name not in _POLICY_NAMES:
        raise RangeError(f"policy must be one of {sorted(_POLICY_NAMES)}, got {policy_name!r}")
    distribution = _resolve_option(args, "distribution", config, str, "uniform")
    sigma = _resolve_option(args, "sigma", config, float, 0.0)
    trials = _resolve_option(args, "trials", config, int, 200)
    try:
        policy = NoisePolicy(
            granularity=_POLICY_NAMES[policy_name],
            distribution=distribution,
            sigma=sigma,
            trials=trials,
            seed=seed,
        )
    except ValueError as exc:
        raise RangeError(str(exc)) from None
    resolved = {
        "encoding": encoding,
        "n": n,
        "policy": policy.granularity,
        "distribution": policy.distribution,
        "sigma": policy.sigma,
        "trials": policy.trials,
    }
    started = time.perf_counter()

    arm_encoded, arm_plain, model = _bench_arms(encoding, n)
    csv_lines = _provenance_lines("noise-bench", resolved, seed)
    csv_lines.append("arm,trial,fidelity,leakage")
    summaries = {}
    for name, circuit, bounds, input_state, basis in (arm_encoded, arm_plain):
        ideal = apply_circuit(input_state, circuit)
        fidelities, leakages = run_trials(
            circuit, input_state, ideal, policy, model, bounds, subspace=basis
        )
        summaries[name] = RunReport.from_trials(fidelities, leakages, policy).to_dict()
        for trial in range(policy.trials):
            leak = "" if leakages is None else repr(float(leakages[trial]))
            csv_lines.append(f"{name},{trial},{float(fidelities[trial])!r},{leak}")

    duration = time.perf_counter() - started
    json_report = _report_skeleton("noise-bench", resolved, seed)
    json_report["duration_s"] = duration
    json_report["arms"] = summaries

    csv_text = "\n".join(csv_lines) + "\n"
    json_text = json.dumps(json_report, indent=2) + "\n"
    if args.out is not None:
        _write_text(args.out + ".csv", csv_text)
        _write_text(args.out + ".json", json_text)
    else:
        fmt = getattr(args, "format", None) or "json"
        sys.stdout.write(csv_text if fmt == "csv" else json_text)
    return 0


# ---------------------------------------------------------------- dfs-table

def cmd_dfs_table(args, config: dict[str, str]) -> int:
    model_name = args.model
    n_max = _resolve_option(args, "n_max", config, int, 8)
    if not 1 <= n_max <= 10:
        raise RangeError(f"n-max must be in 1..10, got {n_max}")
    model = CollectiveModel.WCD if model_name == "wcd" else CollectiveModel.SCD
    r_values = {m: min_physical_qubits(m, model) for m in (1, 2, 3)}
    lines = _provenance_lines("dfs-table", {"model": model_name, "n_max": n_max}, None)
    lines.append("n,max_dim_closed_form,max_dim_brute_force,eta_max,r_m1,r_m2,r_m3")
    mismatch = None
    for n in range(1, n_max + 1):
        closed = max_dfs_dimension(n, model)
        brute = brute_force_max_dfs_dimension(n, model)
        if closed != brute and mismatch is None:
            mismatch = (n, closed, brute)
        eta = "" if closed < 1 else repr(float(Fraction(closed.bit_length() - 1, n)))
        lines.append(f"{n},{closed},{brute},{eta},{r_values[1]},{r_values[2]},{r_values[3]}")
    _write_text(args.out, "\n".join(lines) + "\n")
    if mismatch is not None:
        n, closed, brute = mismatch
        print(f"FAIL: closed form {closed} != brute force {brute} at n={n}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsqft",
        description="Synthesize, verify, and noise-test QFT circuits over decoherence-free subspaces.",
    )
    parser.add_argument("--version", action="version", version=f"dfsqft {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a circuit in the text format")
    synth.add_argument("encoding", choices=["plain", "wcd", "scd"])
    synth.add_argument("n", type=int)
    synth.add_argument("--out", default=None)
    synth.add_argument("--config", default=None)

    verify = sub.add_parser("verify", help="run the invariant suite for one encoding/size")
    verify.add_argument("encoding", choices=["plain", "wcd", "scd"])
    verify.add_argument("n", type=int)
    verify.add_argument("--out", default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--format", choices=["json", "csv"], default=None)
    verify.add_argument("--config", default=None)

    bench = sub.add_parser("noise-bench", help="encoded vs unencoded QFT under collective noise")
    bench.add_argument("--encoding", choices=["wcd", "scd"], default=None)
    bench.add_argument("--n", type=int, default=None)
    bench.add_argument("--trials", type=int, default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--policy", choices=sorted(_POLICY_NAMES), default=None)
    bench.add_argument("--distribution", choices=["uniform", "gaussian"], default=None)
    bench.add_argument("--sigma", type=float, default=None)
    bench.add_argument("--out", default=None, help="prefix: writes PREFIX.csv and PREFIX.json")
    bench.add_argument("--format", choices=["json", "csv"], default=None)
    bench.add_argument("--config", default=None)

    table = sub.add_parser("dfs-table", help="sector dimensions and encoding efficiency per n")
    table.add_argument("model", choices=["wcd", "scd"])
    table.add_argument("--n-max", dest="n_max", type=int, default=None)
    table.add_argument("--out", default=None)
    table.add_argument("--config", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            config = _load_config_file(args.config)
        except OSError as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return 1
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "verify":
            return cmd_verify(args, config)
        if args.command == "noise-bench":
            return cmd_noise_bench(args, config)
        return cmd_dfs_table(args, config)
    except RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
