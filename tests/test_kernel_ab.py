"""tools/kernel_ab.py times statevector._propagate of two trees, and of the
first tree again as a control arm, in one process, after checking that all
three give bit-identical arrays."""
import importlib.util
import pathlib
import shutil
import subprocess
import sys

from dfsqft import noise

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_ab.py"


def _chunk_widths(trials: int, qubits: int) -> list[int]:
    spec = importlib.util.spec_from_file_location("kernel_ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.chunk_widths(trials, qubits, noise.BATCH_AMPLITUDES)


def _run(tree_a: pathlib.Path, tree_b: pathlib.Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, "-B", str(TOOL), str(tree_a), str(tree_b), "--rounds", "1"]
    return subprocess.run(argv, capture_output=True, text=True, check=False)


def test_the_repository_against_itself():
    run = _run(ROOT, ROOT / "src")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    # wcd 3 and scd 2, two arms, two policies, one list per chunk width; only
    # block noise's 200 trials on the 8-qubit scd 2 register may take several
    assert len(_chunk_widths(200, 6)) == 1
    widths = _chunk_widths(200, 8)
    labels = [line.split("  ")[0] for line in lines]
    assert [label for label in labels if label.startswith("scd 2 block encoded")] == [
        f"scd 2 block encoded k={k}" for k in widths]
    assert len(lines) == 1 + 7 + len(widths) + 1 + 1
    assert lines[0].split() == ["op", "list", "A", "ms", "B", "ms", "C", "ms", "B/A", "C/A",
                                "A", "won", "B", "won"]
    assert lines[-1] == f"1 rounds; outputs bit-identical on all {7 + len(widths)} lists"


def test_trees_that_round_apart_are_refused(tmp_path):
    # math.sqrt(0.5) is 1 ulp above 1 / math.sqrt(2), so every H moves
    shutil.copytree(ROOT / "src" / "dfsqft", tmp_path / "dfsqft",
                    ignore=shutil.ignore_patterns("__pycache__"))
    kernel = tmp_path / "dfsqft" / "statevector.py"
    text = kernel.read_text(encoding="utf-8")
    assert "_H = 1.0 / math.sqrt(2.0)" in text
    kernel.write_text(text.replace("_H = 1.0 / math.sqrt(2.0)", "_H = math.sqrt(0.5)"),
                      encoding="utf-8")
    run = _run(ROOT, tmp_path)
    assert run.returncode == 1
    assert "outputs differ: wcd 3 elementary encoded k=40" in run.stderr
    assert run.stdout == ""
