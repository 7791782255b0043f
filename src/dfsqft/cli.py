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
import functools
import json
import os
import sys
import time
from dataclasses import asdict

from . import __version__
from .circuits import print_circuit
from .dfs import (
    MAX_BRUTE_FORCE_QUBITS,
    CollectiveModel,
    brute_force_max_dfs_dimension,
    eta_max,
    max_dfs_dimension,
    min_physical_qubits,
)
from .noise import (
    DISTRIBUTIONS,
    ENDPOINTS_ONLY,
    PER_ELEMENTARY_GATE,
    PER_LOGICAL_BLOCK,
    NoisePolicy,
    RunReport,
    run_trials,
)
from .qft import PLAIN, logical_block_boundaries, synth_logical_qft
from .scd import MAX_SCD_LOGICAL, SCD
from .statevector import MAX_QUBITS, apply_circuit
from .verify import SUITES
from .wcd import MAX_WCD_LOGICAL, WCD

SCHEMA = "dfsqft/1"
SEED_ENV_VAR = "DFSQFT_SEED"

_POLICY_NAMES = {
    "elementary": PER_ELEMENTARY_GATE,
    "block": PER_LOGICAL_BLOCK,
    "endpoints": ENDPOINTS_ONLY,
}
# encoding -> (block code, the collective model it is immune to, largest synth n);
# every command accepts n from 1 up to its cap
_ENCODINGS = {
    "plain": (PLAIN, None, MAX_QUBITS),
    "wcd": (WCD, CollectiveModel.WCD, MAX_WCD_LOGICAL),
    "scd": (SCD, CollectiveModel.SCD, MAX_SCD_LOGICAL),
}
# noise runs take every encoded size that synth does
_BENCH_CAPS = {encoding: max_n
               for encoding, (_, model, max_n) in _ENCODINGS.items() if model is not None}
# the config-file keys each command reads; any other key is refused
_CONFIG_KEYS = {
    "verify": ("seed",),
    "noise-bench": ("distribution", "encoding", "n", "policy", "seed", "sigma", "trials"),
    "dfs-table": ("n_max",),
}


class RangeError(ValueError):
    """Bad argument, option value or file (exit code 1, not a usage error)."""


def _check_range(name: str, value: int, max_n: int) -> None:
    if not 1 <= value <= max_n:
        raise RangeError(f"{name} supports n in 1..{max_n}, got {value}")


def _load_config(args) -> dict[str, str]:
    """The key=value lines of the --config file (none without one); a key
    the command does not read is refused."""
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise RangeError(f"cannot read config file: {exc}") from None
    known = _CONFIG_KEYS[args.command]
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RangeError(f"{path}:{lineno}: expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in known:
            raise RangeError(f"unknown config key {key!r}; {args.command} reads "
                             f"{', '.join(known)}")
        values[key] = value
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
    """Precedence: --seed > config file > DFSQFT_SEED > 0; a negative seed is refused."""
    seed = _resolve_option(args, "seed", config, int, None)
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        seed = 0 if env is None else _cast(SEED_ENV_VAR, env, int)
    if seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
    return seed


def _report_skeleton(command: str, config: dict, seed: int | None) -> dict:
    report = {"schema": SCHEMA, "version": __version__, "command": command, "config": config}
    if seed is not None:
        report["seed"] = seed
    return report


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise RangeError(f"cannot write output file: {exc}") from None


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
    code, _, max_n = _ENCODINGS[args.encoding]
    _check_range(args.encoding, args.n, max_n)
    _write_text(args.out, print_circuit(synth_logical_qft(args.n, code)))
    return 0


# ---------------------------------------------------------------- verify

def cmd_verify(args, config: dict[str, str]) -> int:
    encoding, n = args.encoding, args.n
    max_n, run = SUITES[encoding]
    _check_range(encoding, n, max_n)
    seed = _resolve_seed(args, config)
    started = time.perf_counter()
    checks, extra = run(n, seed)
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

    if not report["passed"]:
        first = next(c for c in checks if not c["pass"])
        print(f"FAIL: {first['name']} deviation {first['deviation']:.3e} "
              f"exceeds {first['tolerance']:.1e}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- noise-bench

def _bench_arms(encoding: str, n: int):
    """(name, circuit, block boundaries, input state, code space) of the
    encoded and the plain QFT on logical |0...0>, and the noise model."""
    code, model, _ = _ENCODINGS[encoding]
    arms = [
        (name, synth_logical_qft(n, arm_code), logical_block_boundaries(n, arm_code),
         arm_code.state("0" * n), space)
        for name, arm_code, space in (("encoded", code, code.basis(n)), ("unencoded", PLAIN, None))
    ]
    return arms, model


def cmd_noise_bench(args, config: dict[str, str]) -> int:
    encoding = _resolve_option(args, "encoding", config, str, None)
    n = _resolve_option(args, "n", config, int, None)
    if encoding is None or n is None:
        raise RangeError("noise-bench needs --encoding and --n (flags or config file)")
    if encoding not in _BENCH_CAPS:
        raise RangeError(f"unknown encoding {encoding!r}")
    _check_range(encoding, n, _BENCH_CAPS[encoding])
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

    arms, model = _bench_arms(encoding, n)
    results = []  # (arm name, fidelities, leakages)
    for name, circuit, bounds, input_state, basis in arms:
        ideal = apply_circuit(input_state, circuit)
        try:
            results.append((name, *run_trials(
                circuit, input_state, ideal, policy, model, bounds, subspace=basis
            )))
        except OverflowError:
            raise RangeError(f"sigma {policy.sigma!r} is too large: "
                             "the noise angles overflow") from None
        except (ValueError, MemoryError) as exc:  # numpy refuses a per-trial array that large
            raise RangeError(f"cannot run {policy.trials} trials: {exc}") from None
    duration = time.perf_counter() - started

    # each text is rendered only if it is written
    def csv_text() -> str:
        lines = _provenance_lines("noise-bench", resolved, seed)
        lines.append("arm,trial,fidelity,leakage")
        for name, fidelities, leakages in results:
            leaks = [""] * policy.trials if leakages is None else map(repr, leakages.tolist())
            lines += [f"{name},{trial},{fidelity!r},{leak}"
                      for trial, (fidelity, leak) in enumerate(zip(fidelities.tolist(), leaks))]
        return "\n".join(lines) + "\n"

    def json_text() -> str:
        report = _report_skeleton("noise-bench", resolved, seed)
        report["duration_s"] = duration
        report["arms"] = {name: asdict(RunReport.from_trials(fidelities, leakages, policy))
                          for name, fidelities, leakages in results}
        return json.dumps(report, indent=2) + "\n"

    if args.out is not None:
        _write_text(args.out + ".csv", csv_text())
        _write_text(args.out + ".json", json_text())
    else:
        fmt = getattr(args, "format", None) or "json"
        sys.stdout.write(csv_text() if fmt == "csv" else json_text())
    return 0


# ---------------------------------------------------------------- dfs-table

def cmd_dfs_table(args, config: dict[str, str]) -> int:
    n_max = _resolve_option(args, "n_max", config, int, 8)
    if not 1 <= n_max <= MAX_BRUTE_FORCE_QUBITS:
        raise RangeError(f"n-max must be in 1..{MAX_BRUTE_FORCE_QUBITS}, got {n_max}")
    model = CollectiveModel(args.model)
    r_values = {m: min_physical_qubits(m, model) for m in (1, 2, 3)}
    lines = _provenance_lines("dfs-table", {"model": args.model, "n_max": n_max}, None)
    lines.append("n,max_dim_closed_form,max_dim_brute_force,eta_max,r_m1,r_m2,r_m3")
    mismatch = None
    for n in range(1, n_max + 1):
        closed = max_dfs_dimension(n, model)
        brute = brute_force_max_dfs_dimension(n, model)
        if closed != brute and mismatch is None:
            mismatch = (n, closed, brute)
        eta = "" if closed < 1 else repr(float(eta_max(n, model)))
        lines.append(f"{n},{closed},{brute},{eta},{r_values[1]},{r_values[2]},{r_values[3]}")
    _write_text(args.out, "\n".join(lines) + "\n")
    if mismatch is not None:
        n, closed, brute = mismatch
        print(f"FAIL: closed form {closed} != brute force {brute} at n={n}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- entry point

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsqft",
        description="Synthesize, verify, and noise-test QFT circuits over decoherence-free subspaces.",
    )
    parser.add_argument("--version", action="version", version=f"dfsqft {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a circuit in the text format")
    synth.add_argument("encoding", choices=list(_ENCODINGS))
    synth.add_argument("n", type=int)
    synth.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run the invariant suite for one encoding/size")
    verify.add_argument("encoding", choices=list(SUITES))
    verify.add_argument("n", type=int)
    verify.add_argument("--out", default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--format", choices=["json", "csv"], default=None)
    verify.add_argument("--config", default=None)

    bench = sub.add_parser("noise-bench", help="encoded vs unencoded QFT under collective noise")
    bench.add_argument("--encoding", choices=list(_BENCH_CAPS), default=None)
    bench.add_argument("--n", type=int, default=None)
    bench.add_argument("--trials", type=int, default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--policy", choices=sorted(_POLICY_NAMES), default=None)
    bench.add_argument("--distribution", choices=DISTRIBUTIONS, default=None)
    bench.add_argument("--sigma", type=float, default=None)
    bench.add_argument("--out", default=None, help="prefix: writes PREFIX.csv and PREFIX.json")
    bench.add_argument("--format", choices=["json", "csv"], default=None)
    bench.add_argument("--config", default=None)

    table = sub.add_parser("dfs-table", help="sector dimensions and encoding efficiency per n")
    table.add_argument("model", choices=[model.value for model in CollectiveModel])
    table.add_argument("--n-max", dest="n_max", type=int, default=None)
    table.add_argument("--out", default=None)
    table.add_argument("--config", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
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
