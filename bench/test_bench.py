"""Tests of the benchmark itself: tiny runs emit every metric, computed counts
repeat exactly, and wrong outputs count as failed ops.

    python3 -m pytest bench
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
COMPUTED_COUNTS = ("noise.rotations_1q", "noise.gate_applications", "statevector.gate_columns",
                   "dfs.collective_operator.bytes")


def tiny_run(workload: str, seed: int, trace: int, out: Path) -> tuple[dict, dict]:
    """(last stdout line, full record) of a tiny run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    record = json.loads((out / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(proc.stdout.splitlines()[-1]), record


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload, tmp_path):
    result, record = tiny_run(workload, 5, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    item_metric = workloads.build(workload).item_metric
    assert {"setup_s", item_metric, "op_p50_ms", "op_tail_ms", "peak_rss_mb",
            "failed_ratio"} <= set(record["figures"])
    assert record["figures"]["op_tail_ms"]["samples"] == record["attempted"]
    assert {"commit", "python", "numpy", "blas", "blas_threads", "nproc"} <= set(record["provenance"])
    assert record["seed"] == 5 and sum(record["ops_per_kind"].values()) == record["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_counts(workload, tmp_path):
    first, _ = tiny_run(workload, 1, 1, tmp_path)
    second, _ = tiny_run(workload, 2, 1, tmp_path)
    assert first["correct"] and second["correct"]
    assert {name: m["unit"] for name, m in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in COMPUTED_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["cli.main.self_s"]["value"] > 0


def _real_output(workload: str) -> tuple[workloads.Op, int, str]:
    built, rng, _ = run.set_up(workload, 3, tiny=True)
    op = built.sweep(rng)[-1]
    _, rc, out, error = run._call(op.argv)
    assert error is None and op.gate(rc, out) is None
    return op, rc, out


@pytest.mark.parametrize("workload, corrupt", [
    ("verify", lambda out: out.replace('"pass": true', '"pass": false', 1)),
    ("noise-elementary", lambda out: re.sub(r"(?m)^(encoded,0,)[^,]+", r"\g<1>1.5", out)),
    ("noise-elementary", lambda out: re.sub(r"(?m)^(encoded,1,[^,]+,).*$", r"\g<1>-0.25", out)),
    ("noise-elementary", lambda out: out.rsplit("\n", 2)[0] + "\n"),
    ("noise-block", lambda out: re.sub(r"(?m)^(encoded,0,)[^,]+", r"\g<1>0.999", out)),
    ("census", lambda out: re.sub(r"(?m)^(4,2,)2", r"\g<1>3", out)),
])
def test_gate_rejects_a_corrupted_copy(workload, corrupt):
    op, rc, out = _real_output(workload)
    corrupted = corrupt(out)
    assert corrupted != out
    assert run._gate(op, rc, corrupted, None) is not None


def _patch_main(monkeypatch, rewrite):
    from dfsqft import cli

    real = cli.main

    def patched(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = real(argv)
        sys.stdout.write(rewrite(buf.getvalue()))
        return rc

    monkeypatch.setattr(cli, "main", patched)


def test_corrupted_fidelity_counts_as_a_failed_op(monkeypatch):
    built, rng, _ = run.set_up("noise-block", 4, tiny=True)
    _patch_main(monkeypatch, lambda out: re.sub(r"(?m)^(encoded,0,)[^,]+", r"\g<1>0.9", out))
    result = run.measure(built, rng, seconds=0.0)
    assert result.attempted == 2 and result.failed == 2
    assert "unprotected" in result.failures[0]


def test_output_that_changes_on_rerun_counts_as_a_failed_op(monkeypatch):
    built, rng, _ = run.set_up("noise-elementary", 4, tiny=True)
    calls = iter(range(100))
    _patch_main(monkeypatch, lambda out: out + f"# call {next(calls)}\n")
    result = run.measure(built, rng, seconds=0.0)
    assert result.attempted == 2 and result.failed == 2
    assert "re-run" in result.failures[0]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(x) for x in range(19)]) is None
    pct, value = run.tail_percentile([float(x) for x in range(1, 31)])
    assert (pct, value) == (66, 20.0)


def test_compare_flags_regressions_and_unresolved_metrics():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.compare_metric(steady, [v * 1.02 for v in steady], "lower", 0.1)["verdict"] == "ok"
    assert compare.compare_metric(steady, [v * 1.2 for v in steady], "lower", 0.1)["verdict"] == "regressed"
    assert compare.compare_metric(steady, [v * 0.8 for v in steady], "higher", 0.1)["verdict"] == "regressed"
    noisy = [70.0, 130.0, 100.0, 85.0, 115.0]
    assert compare.compare_metric(steady, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.compare_metric(steady, [50.0, 60.0, 55.0, 80.0, 65.0], "lower", 0.1)["verdict"] == "ok"
