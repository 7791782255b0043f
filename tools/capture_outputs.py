"""Hash the outputs that a behaviour-preserving change must keep byte-identical.

Usage:
    python3 tools/capture_outputs.py SRC_DIR > hashes.json
    python3 tools/capture_outputs.py SRC_DIR --against hashes.json

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
(several chunks), and each encoding's largest size (a 12-qubit register:
wcd 6 and scd 3 today) at 4 trials, under every policy and both
distributions. The verify, synth, gate and largest noise-bench sizes are
read from the package (verify.SUITES and the register caps), so a tree
hashes every size it accepts. The script prints one JSON object
mapping each output to the sha256 of its bytes; a verify JSON report is
hashed without its wall-clock duration_s. It exits 1 if any command exits
non-zero; a tree that refuses a size still hashes that run's (empty)
output.

With --against FILE it prints, instead of the JSON, one line per key that
differs from the hashes in FILE: "moved KEY", "added KEY" (not in FILE) or
"removed KEY" (only in FILE), then a count of the identical keys, and exits
0 whatever differs.

tests/golden/capture_hashes.json holds the hashes of the current tree, and
tests/test_capture_outputs.py compares a fresh run with it. A change that
moves an output on purpose lists the moved keys with --against that file,
regenerates it with this script and names the moved keys; to compare two
trees, hash one and run the other --against its file.
"""
from __future__ import annotations

import argparse
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
# Each encoding's largest noise-bench size, a 12-qubit register, runs at few
# trials (half of one chunk of noise.BATCH_AMPLITUDES, which holds eight there).
LARGEST_BENCH_TRIALS = 4
POLICIES = ("elementary", "block", "endpoints")
GATE_THETAS = (math.pi / 2, math.pi / 4, math.pi / 8)
NOISES = (["--distribution", "uniform"], ["--distribution", "gaussian", "--sigma", "0.3"])
# Enough block-noise trials that the largest noise-bench run takes several
# chunks of noise.BATCH_AMPLITUDES (scd 2: one of 128 trials and one of 72).
MULTI_CHUNK_TRIALS = 200


def noise_bench_argv(encoding: str, n: int, policy: str, noise: list[str], trials: int):
    return ["noise-bench", "--encoding", encoding, "--n", str(n), "--policy", policy, *noise,
            "--trials", str(trials), "--seed", "5", "--format", "csv"]


def synth_sizes(dfsqft) -> dict[str, int]:
    """The largest synth size of each encoding, read from the package's caps:
    statevector.MAX_QUBITS, wcd.MAX_WCD_LOGICAL and scd.MAX_SCD_LOGICAL."""
    return {"plain": dfsqft.statevector.MAX_QUBITS, "wcd": dfsqft.wcd.MAX_WCD_LOGICAL,
            "scd": dfsqft.scd.MAX_SCD_LOGICAL}


def cli_cases(suites, synth_caps):
    """(name, argv) of every captured CLI run; verify runs every size that
    the package's verify suites (dfsqft.verify.SUITES) accept, noise-bench
    every size of BENCH_SIZES at 30 trials and the largest one again at
    MULTI_CHUNK_TRIALS of block noise, and each encoding's largest size
    (synth_caps, from synth_sizes) at LARGEST_BENCH_TRIALS, synth every size
    up to synth_caps, and dfs-table runs to n = 10 and to the brute-force
    cap, n = 14."""
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
    for encoding in ("wcd", "scd"):
        n = synth_caps[encoding]
        for policy in POLICIES:
            for noise in NOISES:
                argv = noise_bench_argv(encoding, n, policy, noise, LARGEST_BENCH_TRIALS)
                yield " ".join(argv[1:]), argv
    for encoding, max_n in synth_caps.items():
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


def differences(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """"moved KEY", "added KEY" and "removed KEY" lines, in the order of new
    and then of old, and a last line counting the identical keys."""
    lines = [f"{'moved' if key in old else 'added'} {key}" for key in new
             if old.get(key) != new[key]]
    lines += [f"removed {key}" for key in old if key not in new]
    same = sum(old.get(key) == value for key, value in new.items())
    return lines + [f"{same} of {len(new)} keys identical"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=pathlib.Path, help="the directory holding the dfsqft package")
    parser.add_argument("--against", type=pathlib.Path, metavar="FILE",
                        help="print the keys that differ from the hashes in FILE")
    args = parser.parse_args(argv)
    old = None if args.against is None else json.loads(args.against.read_text(encoding="utf-8"))
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    os.environ.pop("DFSQFT_SEED", None)
    import dfsqft
    from dfsqft import cli
    from dfsqft.verify import SUITES

    hashes = {}
    failed = []
    caps = synth_sizes(dfsqft)
    for name, cli_argv in cli_cases(SUITES, caps):
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

    for encoding in ("wcd", "scd"):
        for n in range(1, caps[encoding] + 1):
            hashes[f"gates {encoding} {n}"] = sha256("".join(logical_gate_texts(dfsqft, encoding, n)))
            hashes[f"boundaries {encoding} {n}"] = sha256(block_boundaries_text(dfsqft, encoding, n))

    env = {**os.environ, "PYTHONPATH": str(src)}
    for demo in sorted((src.parent / "demos").glob("0*.py")):
        run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                             text=True, check=False)
        hashes[f"demo {demo.name}"] = sha256(run.stdout)
        if run.returncode != 0:
            failed.append(demo.name)

    print(json.dumps(hashes, indent=2) if old is None else "\n".join(differences(old, hashes)))
    for name in failed:
        print(f"non-zero exit: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
