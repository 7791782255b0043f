"""Hash the outputs that a behaviour-preserving change must keep byte-identical.

Usage:
    python3 tools/capture_outputs.py SRC_DIR > hashes.json

SRC_DIR is the directory holding the dfsqft package (a checkout's src/);
the demos run from the demos/ directory beside it. The CLI outputs run
in-process through dfsqft.cli.main, the demos as subprocesses with
PYTHONPATH=SRC_DIR. The logical gates are hashed per (encoding, n): the
print_circuit text of every *_hadamard(k, n), of every *_phase(i, j, theta, n)
over the ordered pairs i != j at the verify angles and, for WCD, of
wcd_encoder_circuit(n); so are the logical-block boundaries
logical_block_boundaries(n, code) of the WCD and SCD block codes, where
block-boundary noise strikes. The noise-bench CSVs cover wcd 1..3 and
scd 1..2 at 30 trials, wcd 3 and scd 2 again at 200 trials of block noise
(several chunks), and the 12-qubit wcd 6 and scd 3 at 4 trials, under
every policy and both distributions. The script prints one JSON object
mapping each output to the sha256 of its bytes; a verify JSON report is
hashed without its wall-clock duration_s. It exits 1 if any command exits
non-zero; a tree that refuses a size still hashes that run's (empty)
output.

To check a change, run it on a `git archive` copy of the parent commit and
on the change, then diff the two JSON files.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

BENCH_SIZES = {"wcd": 3, "scd": 2}
# The largest noise-bench size of each encoding, a 12-qubit register, run at
# few trials (four per chunk of noise.BATCH_AMPLITUDES there).
LARGEST_BENCH_SIZES = {"wcd": 6, "scd": 3}
LARGEST_BENCH_TRIALS = 4
POLICIES = ("elementary", "block", "endpoints")
SYNTH_SIZES = {"plain": 14, "wcd": 6, "scd": 3}
GATE_SIZES = {"wcd": 6, "scd": 3}
GATE_THETAS = (math.pi / 2, math.pi / 4, math.pi / 8)
NOISES = (["--distribution", "uniform"], ["--distribution", "gaussian", "--sigma", "0.3"])
# Enough block-noise trials that the largest noise-bench runs take several
# chunks of noise.BATCH_AMPLITUDES (scd 2: three of 64 trials and one of 8).
MULTI_CHUNK_TRIALS = 200


def noise_bench_argv(encoding: str, n: int, policy: str, noise: list[str], trials: int):
    return ["noise-bench", "--encoding", encoding, "--n", str(n), "--policy", policy, *noise,
            "--trials", str(trials), "--seed", "5", "--format", "csv"]


def cli_cases(suites):
    """(name, argv) of every captured CLI run; verify runs every size that
    the package's verify suites (dfsqft.verify.SUITES) accept, noise-bench
    every size of BENCH_SIZES at 30 trials and the largest one again at
    MULTI_CHUNK_TRIALS of block noise, and each encoding's largest size at
    LARGEST_BENCH_TRIALS, and dfs-table runs to n = 10 and to the
    brute-force cap, n = 14."""
    for encoding, (max_n, _) in suites.items():
        for n in range(1, max_n + 1):
            for fmt in ("json", "csv"):
                yield (f"verify {encoding} {n} {fmt}",
                       ["verify", encoding, str(n), "--seed", "17", "--format", fmt])
    for encoding, max_n in BENCH_SIZES.items():
        for n in range(1, max_n + 1):
            for policy in POLICIES:
                for noise in NOISES:
                    argv = noise_bench_argv(encoding, n, policy, noise, 30)
                    yield " ".join(argv[1:]), argv
        for noise in NOISES:
            argv = noise_bench_argv(encoding, max_n, "block", noise, MULTI_CHUNK_TRIALS)
            yield " ".join(argv[1:]), argv
    for encoding, n in LARGEST_BENCH_SIZES.items():
        for policy in POLICIES:
            for noise in NOISES:
                argv = noise_bench_argv(encoding, n, policy, noise, LARGEST_BENCH_TRIALS)
                yield " ".join(argv[1:]), argv
    for encoding, max_n in SYNTH_SIZES.items():
        for n in range(1, max_n + 1):
            yield f"synth {encoding} {n}", ["synth", encoding, str(n)]
    for model in ("wcd", "scd"):
        yield f"dfs-table {model}", ["dfs-table", model, "--n-max", "10"]
        yield f"dfs-table {model} 14", ["dfs-table", model, "--n-max", "14"]


def logical_gate_texts(dfsqft, encoding: str, n: int):
    """print_circuit of every logical gate of one encoding at size n, in a
    fixed order; WCD adds its encoder circuit."""
    module = getattr(dfsqft, encoding)
    hadamard = getattr(module, f"{encoding}_hadamard")
    phase = getattr(module, f"{encoding}_phase")
    for k in range(1, n + 1):
        yield dfsqft.print_circuit(hadamard(k, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                for theta in GATE_THETAS:
                    yield dfsqft.print_circuit(phase(i, j, theta, n))
    if encoding == "wcd":
        yield dfsqft.print_circuit(dfsqft.wcd_encoder_circuit(n))


def block_boundaries_text(dfsqft, encoding: str, n: int) -> str:
    """The gate positions ending each logical block of the encoded QFT."""
    boundaries = dfsqft.logical_block_boundaries(n, getattr(dfsqft, encoding.upper()))
    return " ".join(str(b) for b in boundaries) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = pathlib.Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    os.environ.pop("DFSQFT_SEED", None)
    import dfsqft
    from dfsqft import cli
    from dfsqft.verify import SUITES

    hashes = {}
    failed = []
    for name, cli_argv in cli_cases(SUITES):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(cli_argv)
        text = out.getvalue()
        if cli_argv[0] == "verify" and "json" in cli_argv:
            report = json.loads(text)
            del report["duration_s"]
            text = json.dumps(report, indent=2) + "\n"
        hashes[name] = sha256(text)
        if code != 0:
            failed.append(name)

    for encoding, max_n in GATE_SIZES.items():
        for n in range(1, max_n + 1):
            hashes[f"gates {encoding} {n}"] = sha256("".join(logical_gate_texts(dfsqft, encoding, n)))
            hashes[f"boundaries {encoding} {n}"] = sha256(block_boundaries_text(dfsqft, encoding, n))

    env = {**os.environ, "PYTHONPATH": str(src)}
    for demo in sorted((src.parent / "demos").glob("0*.py")):
        run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                             text=True, check=False)
        hashes[f"demo {demo.name}"] = sha256(run.stdout)
        if run.returncode != 0:
            failed.append(demo.name)

    print(json.dumps(hashes, indent=2))
    for name in failed:
        print(f"non-zero exit: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
