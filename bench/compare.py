"""Compare two sets of benchmark records, workload by workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are each a record file that run.py wrote (see --out) or a
directory of them. Runs with several seeds per workload give the
run-to-run spread: the interquartile range over the median. For every
workload and end-to-end metric in BENCHMARK.json it prints both medians,
the relative change, and a verdict:

  regressed   NEW's median is worse than BASE's by more than the bound
  unresolved  either side's spread is wider than the bound, and not every
              NEW run is better than every BASE run
  ok          otherwise

Exit status is 1 when a metric regressed or a NEW run had failed ops.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path: Path) -> list[dict]:
    """Untraced records from one record file or a directory of them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return [r for r in records if r.get("trace") == 0]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare_metric(base: list[float], new: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse_by = sign * (new_median - base_median) / base_median
    widest = max(spread(base), spread(new))
    every_new_better = all(sign * (n - b) < 0 for n in new for b in base)
    if widest > bound and not every_new_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {"base": base_median, "new": new_median, "change": (new_median - base_median) / base_median,
            "spread": widest, "runs": (len(base), len(new)), "verdict": verdict}


def compare(base: list[dict], new: list[dict], spec: dict) -> tuple[list[tuple], list[str]]:
    """Rows (workload, metric, unit, bound, result) and one problem line per bad workload."""
    rows, problems = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        base_runs = [r for r in base if r["workload"] == workload]
        new_runs = [r for r in new if r["workload"] == workload]
        if not base_runs or not new_runs:
            problems.append(f"{workload}: no runs in {'BASE' if not base_runs else 'NEW'}")
            continue
        failed = sum(r["failed"] for r in new_runs)
        if failed:
            attempted = sum(r["attempted"] for r in new_runs)
            problems.append(f"{workload}: {failed} of {attempted} ops failed their gate in NEW")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result = compare_metric([r["metrics"][name]["value"] for r in base_runs],
                                    [r["metrics"][name]["value"] for r in new_runs],
                                    metric["better"], metric["bound"])
            rows.append((workload, name, metric["unit"], metric["bound"], result))
    return rows, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    rows, problems = compare(load_records(Path(argv[0])), load_records(Path(argv[1])), spec)
    print(f"{'workload':<18}{'metric':<14}{'base':>12}{'new':>12}{'change':>9}{'spread':>8}"
          f"{'bound':>7}  runs  verdict")
    for workload, name, unit, bound, r in rows:
        print(f"{workload:<18}{name:<14}{r['base']:>12.5g}{r['new']:>12.5g}{r['change']:>+9.1%}"
              f"{r['spread']:>8.1%}{bound:>7.0%}  {r['runs'][0]}/{r['runs'][1]}  {r['verdict']}")
    for line in problems:
        print(f"PROBLEM {line}")
    return 1 if problems or any(r["verdict"] == "regressed" for *_, r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
