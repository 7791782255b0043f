"""tools/capture_outputs.py hashes every output that a behaviour-preserving
change must keep byte-identical, and tests/golden/capture_hashes.json pins
those hashes. The tool looks up dfsqft names by string (the logical gate
builders, the WCD encoder, the block codes, verify.SUITES and the register
caps), so these tests also make a renamed name fail here."""
import json
import pathlib
import subprocess
import sys
import types

import pytest

import dfsqft
from dfsqft.cli import _ENCODINGS
from dfsqft.verify import SUITES

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "capture_outputs.py"
PINNED = ROOT / "tests" / "golden" / "capture_hashes.json"


def _load_tool() -> types.ModuleType:
    """The tool as a module, executed from its text, so nothing (not even a
    bytecode cache) is written beside it."""
    tool = types.ModuleType("capture_outputs")
    exec(compile(TOOL.read_text(encoding="utf-8"), str(TOOL), "exec"), vars(tool))
    return tool


CAPTURE = _load_tool()


@pytest.mark.parametrize("encoding", ["wcd", "scd"])
def test_logical_gate_texts_resolve(encoding):
    texts = list(CAPTURE.logical_gate_texts(dfsqft, encoding, 1))
    # n = 1 has one Hadamard and no phase pair; WCD adds its encoder circuit
    hadamard = getattr(dfsqft, f"{encoding}_hadamard")
    assert texts[0] == dfsqft.print_circuit(hadamard(1, 1))
    assert texts[1:] == ([dfsqft.print_circuit(dfsqft.wcd_encoder_circuit(1))]
                         if encoding == "wcd" else [])


@pytest.mark.parametrize("encoding", ["wcd", "scd"])
def test_block_boundaries_resolve(encoding):
    boundaries = dfsqft.logical_block_boundaries(2, getattr(dfsqft, encoding.upper()))
    assert CAPTURE.block_boundaries_text(dfsqft, encoding, 2) == " ".join(map(str, boundaries)) + "\n"


def test_cli_cases_cover_every_verify_size():
    cases = list(CAPTURE.cli_cases(SUITES, CAPTURE.synth_sizes(dfsqft)))
    assert {name for name, argv in cases if argv[0] == "verify"} == {
        f"verify {encoding} {n} {fmt}" for encoding, (max_n, _) in SUITES.items()
        for n in range(1, max_n + 1) for fmt in ("json", "csv")}
    assert {name for name, argv in cases if argv[0] == "synth"} == {
        f"synth {encoding} {n}" for encoding, (_, _, max_n) in _ENCODINGS.items()
        for n in range(1, max_n + 1)}


def test_differences_name_moved_added_and_removed_keys():
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"a": "1", "b": "9", "d": "4"}
    assert CAPTURE.differences(old, new) == [
        "moved b", "added d", "removed c", "1 of 3 keys identical"]
    assert CAPTURE.differences(new, new) == ["3 of 3 keys identical"]


def test_outputs_match_the_pinned_hashes():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src")], cwd=ROOT,
                         capture_output=True, text=True, timeout=300, check=False)
    assert run.returncode == 0, run.stderr
    got, want = json.loads(run.stdout), json.loads(PINNED.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
