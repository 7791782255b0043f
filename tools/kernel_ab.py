"""Time statevector._propagate of two trees against each other, in one process.

Usage:
    python3 tools/kernel_ab.py TREE_A TREE_B [--rounds N]

TREE_A and TREE_B are checkouts (or their src/ directories). Each tree's
dfsqft package is loaded under its own module name (dfsqft_a, dfsqft_b), and
TREE_A a second time as dfsqft_c, the control arm C, so all three kernels run
in one interpreter, on one allocator and one CPU cache. C runs the very code
of A, so C/A shows how far apart two identical kernels read in the same
rounds: a B/A no further from 1 than C/A is not resolved.

The op lists are the ones noise-bench builds for the benchmark's noise
runs (bench/workloads.py): wcd 3 and scd 2, both arms (encoded and
unencoded), noise after every gate at 40 trials and at logical-block
boundaries at 200 trials, one list per chunk width that the
noise.BATCH_AMPLITUDES of either tree gives those trials (at 2^15: 40; 200,
or 128 and a tail of 72 on the 8-qubit scd 2 register), so a change of the
chunk size is timed at both trees' chunkings. Each list draws its angles
once, from a fixed seed, as run_trials does, and every side gets the same
noise layers and the same input batch; each side's gates come from its own
synth_logical_qft.

The tool first checks that B and C return arrays bit-identical to A's for
every list and exits 1 naming the lists that differ. It then fixes each
list's burst: the number of back-to-back calls that spans at least
BURST_SECONDS at A's first timed call. It runs N rounds; each round runs,
per list, one burst of each of the three kernels, rotating which side goes
first, and books the burst's time per call. A burst keeps the side's own
arrays in cache and its allocator warm, where a single call of a list of a
few tenths of a millisecond read the state that the other trees' calls
left behind. It prints each side's median time per call for each list and
for the round's sum of all lists, the ratios B/A and C/A of the medians,
and how many rounds A and B each won.
"""
from __future__ import annotations

import argparse
import importlib.util
import math
import pathlib
import statistics
import sys
import time

import numpy as np

NOISE_RUNS = (("wcd", 3), ("scd", 2))
POLICY_TRIALS = (("elementary", 40), ("block", 200))  # as bench/workloads.py runs them
SEED = 11
BURST_SECONDS = 2e-3  # the least time that one side's burst of one list spans


def load(tree: pathlib.Path, name: str):
    """The dfsqft package of a checkout (or of its src/ directory) as module `name`."""
    package = tree / "src" / "dfsqft"
    if not package.is_dir():
        package = tree / "dfsqft"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def chunk_widths(trials: int, qubits: int, batch_amplitudes: int) -> list[int]:
    """The distinct chunk widths that noise._batched_rows gives a run."""
    step = max(1, batch_amplitudes >> qubits)
    return sorted({min(step, trials - first) for first in range(0, trials, step)}, reverse=True)


def cases(packages):
    """(label, n, input batch, ops per side) per op list."""
    first = packages[0]
    rng = np.random.default_rng(SEED)
    for encoding, n in NOISE_RUNS:
        model = getattr(first.CollectiveModel, encoding.upper())
        for arm, code_name in (("encoded", encoding.upper()), ("unencoded", "PLAIN")):
            circuits = [p.synth_logical_qft(n, getattr(p, code_name)) for p in packages]
            gates = [c.gates for c in circuits]
            qubits = circuits[0].n_qubits
            state = getattr(first, code_name).state("0" * n).amplitudes
            for policy, trials in POLICY_TRIALS:
                if policy == "elementary":
                    positions = list(range(len(gates[0]) + 1))
                else:
                    positions = [0] + list(first.logical_block_boundaries(
                        n, getattr(first, code_name)))
                widths = {k for p in packages
                          for k in chunk_widths(trials, qubits, p.noise.BATCH_AMPLITUDES)}
                for k in sorted(widths, reverse=True):
                    # as run_trials: angles[event, trial], each layer a strided view
                    angles = rng.uniform(0.0, 2.0 * math.pi,
                                         (k, len(positions), len(model.axes))).swapaxes(0, 1)
                    layers = first.noise._rotations(angles, model).transpose(2, 0, 1, 3)
                    ops = [[op for layer, start, stop in zip(layers, positions,
                                                             positions[1:] + [None])
                            for op in (layer, *tree_gates[start:stop])]
                           for tree_gates in gates]
                    batch = np.broadcast_to(state[:, None], (2**qubits, k))
                    yield f"{encoding} {n} {policy} {arm} k={k}", qubits, batch, ops


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=pathlib.Path, help="checkout A (or its src/)")
    parser.add_argument("tree_b", type=pathlib.Path, help="checkout B (or its src/)")
    parser.add_argument("--rounds", type=int, default=30, help="alternated rounds (default 30)")
    args = parser.parse_args(argv)
    packages = [load(tree.resolve(), name) for tree, name in (
        (args.tree_a, "dfsqft_a"), (args.tree_b, "dfsqft_b"), (args.tree_a, "dfsqft_c"))]
    kernels = [p.statevector._propagate for p in packages]
    lists = list(cases(packages))

    differ = []
    for label, n, batch, ops in lists:
        a, *others = (kernel(side_ops, batch, n) for kernel, side_ops in zip(kernels, ops))
        if any(a.shape != o.shape or not np.array_equal(a.view(np.uint64), o.view(np.uint64))
               for o in others):
            differ.append(label)
    if differ:
        for label in differ:
            print(f"outputs differ: {label}", file=sys.stderr)
        return 1

    bursts = []  # calls per burst, per list, from A's first timed call
    for _, n, batch, ops in lists:
        started = time.perf_counter()
        kernels[0](ops[0], batch, n)
        bursts.append(max(1, math.ceil(BURST_SECONDS / (time.perf_counter() - started))))
    sides = len(kernels)
    times = np.empty((args.rounds, len(lists), sides))  # seconds per call (round, list, side)
    for r in range(args.rounds):
        order = [(r + side) % sides for side in range(sides)]
        for i, ((_, n, batch, ops), calls) in enumerate(zip(lists, bursts)):
            for side in order:
                kernel, side_ops = kernels[side], ops[side]
                started = time.perf_counter()
                for _ in range(calls):
                    kernel(side_ops, batch, n)
                times[r, i, side] = (time.perf_counter() - started) / calls

    width = max(len(label) for label, *_ in lists)
    print(f"{'op list':<{width}}  {'A ms':>8}  {'B ms':>8}  {'C ms':>8}  {'B/A':>6}  "
          f"{'C/A':>6}  A won  B won")
    rows = [(label, times[:, i]) for i, (label, *_) in enumerate(lists)]
    rows.append(("all lists, per round", times.sum(axis=1)))
    for label, per_round in rows:
        a, b, c = (statistics.median(per_round[:, side]) * 1e3 for side in range(sides))
        a_won = int(np.sum(per_round[:, 0] < per_round[:, 1]))
        b_won = int(np.sum(per_round[:, 1] < per_round[:, 0]))
        print(f"{label:<{width}}  {a:8.3f}  {b:8.3f}  {c:8.3f}  {b / a:6.3f}  {c / a:6.3f}  "
              f"{a_won:5d}  {b_won:5d}")
    print(f"{args.rounds} rounds; outputs bit-identical on all {len(lists)} lists")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
