"""The benchmark's workloads: the CLI commands each one sends, and the
correctness gate every command's output must pass.

A sweep runs each of a workload's command kinds once. Inputs come from a
`random.Random` seeded with the workload seed; the program only sees the
resulting argv. Every gate returns None for a correct output or a one-line
reason for a wrong one.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

NOISE_CONFIGS = (("wcd", 3), ("scd", 2))
VERIFY_CASES = (
    tuple(("plain", n) for n in range(1, 6))
    + tuple(("wcd", n) for n in range(1, 4))
    + tuple(("scd", n) for n in range(1, 3))
)
PROTECTION_TOL = 1e-10


@dataclass(frozen=True)
class Op:
    kind: str  # command kind; ops of one kind differ only in their seed
    argv: tuple[str, ...]
    items: int  # work items the command completes
    gate: Callable[[int, str], str | None]  # (exit code, stdout) -> failure reason


@dataclass(frozen=True)
class Workload:
    name: str
    item_metric: str  # name of the workload's own throughput metric
    item_unit: str
    sweep: Callable[[random.Random], list[Op]]
    replay: bool = False  # re-run the first op of each kind: output must be byte-identical


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def check_verify(encoding: str, n: int, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    report = json.loads(out)
    if report["config"] != {"encoding": encoding, "n": n}:
        return f"report is for {report['config']}"
    failed = [c["name"] for c in report["checks"] if c["pass"] is not True]
    if not report["checks"] or failed or report["passed"] is not True:
        return f"checks failed: {failed or 'none reported'}"
    return None


def _verify_sweep(rng: random.Random) -> list[Op]:
    return [
        Op(f"verify {enc} {n}", ("verify", enc, str(n), "--seed", _seed(rng), "--format", "json"),
           1, partial(check_verify, enc, n))
        for enc, n in VERIFY_CASES
    ]


def check_noise(policy: str, trials: int, seed: str, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    if not any(line.startswith("# config:") and line.endswith(f" seed={seed}") for line in lines):
        return f"provenance does not name seed {seed}"
    rows = [line.split(",") for line in lines if line and not line.startswith("#")][1:]
    arms = [row[0] for row in rows]
    if arms.count("encoded") != trials or arms.count("unencoded") != trials or len(rows) != 2 * trials:
        return f"{len(rows)} rows, expected {trials} per arm"
    for arm, trial, fid, leak in rows:
        fidelity = float(fid)
        leakage = float(leak) if leak else None
        if not 0.0 <= fidelity <= 1.0 or (leakage is not None and not leakage >= 0.0):
            return f"{arm} trial {trial}: fidelity {fid} or leakage {leak} out of range"
        if policy == "block" and arm == "encoded" and not (
            fidelity >= 1.0 - PROTECTION_TOL and leakage is not None and leakage <= PROTECTION_TOL
        ):
            return f"encoded trial {trial} unprotected at block boundaries: fidelity {fid}, leakage {leak}"
    return None


def _noise_sweep(policy: str, trials: int, rng: random.Random) -> list[Op]:
    ops = []
    for enc, n in NOISE_CONFIGS:
        seed = _seed(rng)
        argv = ("noise-bench", "--encoding", enc, "--n", str(n), "--policy", policy,
                "--trials", str(trials), "--seed", seed, "--format", "csv")
        ops.append(Op(f"noise-bench {enc} {n} {policy}", argv, 2 * trials,
                      partial(check_noise, policy, trials, seed)))
    return ops


def _closed_form(model: str, n: int) -> int:
    if model == "wcd":
        return math.comb(n, n // 2)
    return 0 if n % 2 else math.comb(n, n // 2) - math.comb(n, n // 2 + 1)


def check_census(model: str, n_max: int, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    rows = [line.split(",") for line in out.splitlines() if line and not line.startswith("#")][1:]
    if [int(row[0]) for row in rows] != list(range(1, n_max + 1)):
        return f"rows for n={[row[0] for row in rows]}, expected 1..{n_max}"
    for row in rows:
        n, closed, brute = int(row[0]), int(row[1]), int(row[2])
        if closed != brute or closed != _closed_form(model, n):
            return f"n={n}: closed form {closed}, brute force {brute}, expected {_closed_form(model, n)}"
    return None


def _census_sweep(n_max: int, rng: random.Random) -> list[Op]:
    return [
        Op(f"dfs-table {model}", ("dfs-table", model, "--n-max", str(n_max)), n_max,
           partial(check_census, model, n_max))
        for model in ("wcd", "scd")
    ]


def build(name: str, tiny: bool = False) -> Workload:
    """The named workload; `tiny` shrinks trials and register sizes for smoke tests."""
    if name == "verify":
        return Workload(name, "verify_cases_per_s", "cases/s", _verify_sweep)
    if name in ("noise-elementary", "noise-block"):
        policy = name.split("-")[1]
        trials = 2 if tiny else (40 if policy == "elementary" else 200)
        return Workload(name, "noise_trials_per_s", "trials/s", partial(_noise_sweep, policy, trials),
                        replay=policy == "elementary")
    if name == "census":
        return Workload(name, "census_rows_per_s", "rows/s", partial(_census_sweep, 4 if tiny else 10))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify", "noise-elementary", "noise-block", "census")
