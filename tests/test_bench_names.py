"""The benchmark under bench/ looks up dfsqft functions by name; bench/ is
outside the pytest test paths, so these tests make its needs fail here
rather than only in a benchmark run."""
import importlib
import pathlib
import sys
import types

import pytest

import dfsqft.scd

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names():
    """Every (module, function) in bench/tracing.py's LAYERS. The file is
    read and executed from its text, so nothing (not even a bytecode
    cache) is written beside it."""
    tracing = types.ModuleType("bench_tracing")
    sys.modules[tracing.__name__] = tracing  # its dataclasses look their module up
    try:
        exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(tracing))
    finally:
        del sys.modules[tracing.__name__]
    return [target for targets, _ in tracing.LAYERS.values() for target in targets]


TRACED = _traced_names()


@pytest.mark.parametrize("module,name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"dfsqft.{module}"), name, None))


def test_setup_call_runs():
    # bench/run.py calls this during set-up
    assert len(dfsqft.scd.resolve_convention()) == 14
