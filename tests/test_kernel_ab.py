"""tools/kernel_ab.py times statevector._propagate of two trees in one
process, after checking that both give bit-identical arrays."""
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_ab.py"


def _run(tree_a: pathlib.Path, tree_b: pathlib.Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, "-B", str(TOOL), str(tree_a), str(tree_b), "--rounds", "1"]
    return subprocess.run(argv, capture_output=True, text=True, check=False)


def test_the_repository_against_itself():
    run = _run(ROOT, ROOT / "src")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    # wcd 3 and scd 2, two arms, two policies; scd 2 block noise runs 64 and 8 trials a chunk
    assert len(lines) == 1 + 9 + 1 + 1
    assert lines[-1] == "1 rounds; outputs bit-identical on all 9 lists"
    assert any(line.startswith("scd 2 block encoded k=8 ") for line in lines)


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
