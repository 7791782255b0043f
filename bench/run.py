"""End-to-end benchmark of the dfsqft command line, with an optional traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

One process serves one workload. It sets up (imports dfsqft, fills the SCD
convention cache, builds its inputs from the seed), then sends whole sweeps
of CLI commands to `dfsqft.cli.main` in a closed loop with one client until
S seconds have passed. Every command's output passes a correctness gate or
counts as a failed op. The last line of stdout is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) that
BENCHMARK.json names; the full record, with provenance, goes to --out.

`--workload all` runs every workload, each in its own process.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import LAYERS, LayerTotals, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # samples that must lie above a reported tail percentile
CALIBRATION_NOMINAL_S = 0.02

_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.set_up(sys.argv[2], int(sys.argv[3]), sys.argv[4] == '1')"
)


def set_up(name: str, seed: int, tiny: bool, trace: bool = False):
    """Import dfsqft from this checkout, fill its lazy caches and build the inputs.

    Returns (workload, rng, tracer); with `trace`, the tracer has recorded
    the set-up's spans (those not tagged with an op)."""
    src = ROOT / "src"
    if not (src / "dfsqft" / "__init__.py").is_file():
        raise SystemExit(f"error: no dfsqft package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from dfsqft import scd

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    scd.resolve_convention()
    if tracer is not None:
        tracer.uninstall()
    return workloads.build(name, tiny), random.Random(seed), tracer


class Calibration:
    """Machine speed, from one fixed LAPACK eigensolve that uses no dfsqft code.

    On a shared machine the speed of the whole VM can change by tens of
    percent within a minute, and dfsqft's commands slow down with it. Each
    timed interval is scaled to a nominal speed: multiplied by
    CALIBRATION_NOMINAL_S over the mean of the eigensolve times taken just
    before and just after it."""

    def __init__(self):
        import numpy

        matrix = numpy.arange(500 * 500, dtype=float).reshape(500, 500) % 11
        self._matrix = matrix + matrix.T
        self._eigvalsh = numpy.linalg.eigvalsh
        self.samples = [self._time()]

    def _time(self) -> float:
        started = time.perf_counter()
        self._eigvalsh(self._matrix)
        return time.perf_counter() - started

    def scale(self, seconds: float) -> float:
        """An interval that just ended, at nominal speed; calibrates again."""
        self.samples.append(self._time())
        return seconds * 2 * CALIBRATION_NOMINAL_S / (self.samples[-2] + self.samples[-1])


def measure_setup_s(name: str, seed: int, tiny: bool, repeats: int) -> list[tuple[float, float]]:
    """(wall, nominal) seconds of `repeats` fresh interpreters that each run set_up and exit."""
    calibration = Calibration()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR), name, str(seed), str(int(tiny))],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - started
        times.append((elapsed, calibration.scale(elapsed)))
        if child.returncode != 0:
            raise SystemExit(f"error: set-up child failed: {child.stderr.strip()}")
    return times


@dataclass
class Sweep:
    traced: bool
    nominal_s: float = 0.0  # summed time of the sweep's commands at nominal machine speed
    items: int = 0
    bytes_out: int = 0
    samples: list[tuple[str, float, float]] = field(default_factory=list)  # (kind, wall, nominal)


@dataclass
class Run:
    sweeps: list[Sweep] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)


def _call(argv: tuple[str, ...]) -> tuple[float, int | None, str, str | None]:
    """One command through the public entry point: (seconds, exit code, stdout, error)."""
    from dfsqft import cli

    out = io.StringIO()
    error = None
    rc = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed op, not the end of the run
        error = f"raised {exc!r}"
    return time.perf_counter() - started, rc, out.getvalue(), error


def _gate(op: workloads.Op, rc: int | None, out: str, error: str | None) -> str | None:
    if error is not None:
        return error
    try:
        return op.gate(rc, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {exc!r}"


def measure(workload: workloads.Workload, rng: random.Random, seconds: float,
            tracer: Tracer | None = None) -> Run:
    """Whole sweeps until `seconds` have passed; with a tracer, every second sweep is traced."""
    run = Run()
    calibration = Calibration()
    run.calibration_s = calibration.samples
    first_outputs = {}  # kind -> (op, stdout, failed) of the first op of each kind
    min_sweeps = 1 if tracer is None else 2
    begin = time.perf_counter()
    while len(run.sweeps) < min_sweeps or time.perf_counter() - begin < seconds:
        sweep = Sweep(traced=tracer is not None and len(run.sweeps) % 2 == 1)
        ops = workload.sweep(rng)
        if sweep.traced:
            tracer.install()
        for op in ops:
            if sweep.traced:
                tracer.op = run.attempted
            elapsed, rc, out, error = _call(op.argv)
            nominal = calibration.scale(elapsed)
            run.attempted += 1
            sweep.nominal_s += nominal
            sweep.bytes_out += len(out.encode())
            sweep.samples.append((op.kind, elapsed, nominal))
            reason = _gate(op, rc, out, error)
            if reason is None:
                sweep.items += op.items  # only work that passed its gate counts
            else:
                run.fail(f"{' '.join(op.argv)}: {reason}")
            first_outputs.setdefault(op.kind, (op, out, reason is not None))
        if sweep.traced:
            tracer.uninstall()
            tracer.op = None
        run.sweeps.append(sweep)
    if workload.replay:
        for op, out, failed in first_outputs.values():
            if _call(op.argv)[2] != out and not failed:
                run.fail(f"{' '.join(op.argv)}: re-run with the same seed gave different output")
    return run


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return None


def end_to_end(workload: workloads.Workload, run: Run,
               setup_samples: list[tuple[float, float]]) -> dict:
    """Every end-to-end figure of the run, from its untraced sweeps, at nominal
    machine speed; `wall` repeats the timed ones as the clock measured them."""
    sweeps = [s for s in run.sweeps if not s.traced]
    samples = [sample for s in sweeps for sample in s.samples]
    items = sum(s.items for s in sweeps)
    timed = {}
    for column, basis in ((1, "wall"), (2, "nominal")):
        by_kind: dict[str, list[float]] = {}
        for sample in samples:
            by_kind.setdefault(sample[0], []).append(sample[column])
        medians_ms = {kind: 1000 * statistics.median(v) for kind, v in by_kind.items()}
        timed[basis] = {
            "setup_s": statistics.median(t[column - 1] for t in setup_samples) if setup_samples else None,
            "throughput": items / sum(sample[column] for sample in samples),
            "op_p50_ms": statistics.geometric_mean(medians_ms.values()),
            "kind_median_ms": medians_ms,
        }
    nominal = timed["nominal"]
    figures = {
        "setup_s": {"value": nominal["setup_s"], "unit": "s", "samples": len(setup_samples)},
        workload.item_metric: {"value": nominal["throughput"], "unit": workload.item_unit,
                               "sweeps": len(sweeps)},
        "op_p50_ms": {"value": nominal["op_p50_ms"], "unit": "ms",
                      "kinds": len(nominal["kind_median_ms"]), "samples": len(samples)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "failed_ratio": {"value": run.failed / run.attempted, "unit": "1",
                         "failed": run.failed, "attempted": run.attempted},
    }
    tail = tail_percentile([sample[2] for sample in samples])
    if tail is not None:
        figures["op_tail_ms"] = {"value": 1000 * tail[1], "unit": "ms", "percentile": tail[0],
                                 "samples": len(samples)}
    figures["throughput"] = {**figures[workload.item_metric], "unit": "items/s"}
    return {
        "figures": {k: v for k, v in figures.items() if v["value"] is not None},
        "wall": timed["wall"],
        "kind_median_ms": nominal["kind_median_ms"],
        "calibration_median_s": statistics.median(run.calibration_s),
        "ops_per_kind": {kind: len(v) for kind, v in by_kind.items()},
    }


def per_layer(tracer: Tracer, run: Run) -> dict[str, float]:
    """Per-layer figures for one set-up plus one traced sweep."""
    traced = [s for s in run.sweeps if s.traced]
    untraced = [s for s in run.sweeps if not s.traced]
    setup, loop = tracer.totals(ops=False), tracer.totals(ops=True)
    layer = {}
    for name in LAYERS:
        layer[name] = LayerTotals()
        layer[name].add(setup[name])
        layer[name].add(loop[name], 1 / len(traced))
    figures = {}
    for name, totals in layer.items():
        figures[f"{name}.calls"] = totals.calls
        figures[f"{name}.self_s"] = totals.self_s
    unitary = layer["statevector.circuit_unitary"].counts
    trials = layer["noise.run_trials"].counts
    built = unitary.get("columns_built", 0)
    figures.update({
        "statevector.gate_columns": unitary.get("gate_columns", 0),
        "statevector.bytes_computed": unitary.get("bytes_computed", 0),
        "statevector.useful_column_ratio":
            layer["statevector.restrict"].counts.get("columns_read", 0) / built if built else 0.0,
        "noise.trials": trials.get("trials", 0),
        "noise.events": trials.get("events", 0),
        "noise.rotations_1q": trials.get("rotations_1q", 0),
        "noise.gate_applications": trials.get("gate_applications", 0),
        "dfs.collective_operator.bytes": layer["dfs.collective_operator"].counts.get("bytes", 0),
        "qft.synth.gates": layer["qft.synth"].counts.get("gates", 0),
        "cli.bytes_out": statistics.mean(s.bytes_out for s in traced),
        "bench.traced_sweeps": len(traced),
        "bench.tracing_overhead": statistics.median(s.nominal_s for s in traced)
        / statistics.median(s.nominal_s for s in untraced) - 1,
    })
    return figures


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library this process loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def provenance() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dfsqft").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 out_dir: Path) -> dict:
    """One workload in this process; writes the full record to out_dir and returns it."""
    spec = load_spec()
    started = time.perf_counter()
    workload, rng, tracer = set_up(name, seed, tiny, trace)
    in_process_setup_s = time.perf_counter() - started
    setup_samples = [] if trace else measure_setup_s(
        name, seed, tiny, 2 if tiny else SETUP_REPEATS)
    run = measure(workload, rng, seconds, tracer)
    summary = end_to_end(workload, run, setup_samples)
    section = "per_layer" if trace else "end_to_end"
    values = per_layer(tracer, run) if trace else {
        k: v["value"] for k, v in summary["figures"].items()}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "provenance": provenance(),
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "sweeps": len(run.sweeps),
        "in_process_setup_s": in_process_setup_s,
        "setup_samples_s": setup_samples,  # (wall, nominal) per fresh interpreter
        **summary,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    return record


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"sweeps {record['sweeps']}  ops {record['attempted']}  failed {record['failed']}")
    for reason in record["failures"]:
        print(f"  FAILED {reason}")
    if not record["trace"]:
        for name, fig in record["figures"].items():
            extra = ", ".join(f"{k} {v}" for k, v in fig.items() if k not in ("value", "unit"))
            print(f"  {name:<20} {fig['value']:.6g} {fig['unit']}" + (f"  ({extra})" if extra else ""))
        wall = record["wall"]
        print(f"  wall clock: setup_s {wall['setup_s']:.4g} s, throughput {wall['throughput']:.6g} "
              f"items/s, op_p50_ms {wall['op_p50_ms']:.4g} ms; calibration median "
              f"{record['calibration_median_s']:.4g} s (nominal {CALIBRATION_NOMINAL_S} s)")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv: list[str] | None = None) -> int:
    # One BLAS thread: on a small shared machine a second, busy-waiting BLAS
    # thread makes timings depend on what else runs there. Set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for smoke tests")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for full records and spans")
    args = parser.parse_args(argv)
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(args.out)]
            status |= subprocess.run(cmd + (["--tiny"] if args.tiny else [])).returncode
        return status
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.tiny, args.out)
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
