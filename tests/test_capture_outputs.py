"""tools/capture_outputs.py looks up dfsqft names by string (the logical gate
builders, the WCD encoder, the block codes and verify.SUITES), and no
other test runs it, so these tests make a renamed name fail here rather than
only in a comparison run."""
import pathlib
import types

import pytest

import dfsqft
from dfsqft.verify import SUITES

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "capture_outputs.py"


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
    captured = {name for name, argv in CAPTURE.cli_cases(SUITES) if argv[0] == "verify"}
    assert captured == {f"verify {encoding} {n} {fmt}"
                        for encoding, (max_n, _) in SUITES.items()
                        for n in range(1, max_n + 1) for fmt in ("json", "csv")}
