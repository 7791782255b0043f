"""The benchmark under bench/ looks up dfsqft functions by name; bench/ is
outside the pytest test paths, so these tests make its needs fail here
rather than only in a benchmark run."""
import ast
import importlib
import inspect
import pathlib
import sys
import types

import pytest

import dfsqft.scd

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _traced_layers():
    """Every ((module, function), counter) in bench/tracing.py's LAYERS. The
    file is read and executed from its text, so nothing (not even a
    bytecode cache) is written beside it."""
    tracing = types.ModuleType("bench_tracing")
    sys.modules[tracing.__name__] = tracing  # its dataclasses look their module up
    try:
        exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(tracing))
    finally:
        del sys.modules[tracing.__name__]
    return [(target, counter) for targets, counter in tracing.LAYERS.values()
            for target in targets]


LAYERS = _traced_layers()
TRACED = [target for target, _ in LAYERS]
COUNTED = [(target, counter) for target, counter in LAYERS if counter is not None]


def _call_shapes(name):
    """(positional count, keyword names) of every call of `name` in src/dfsqft
    that passes no *args or **kwargs."""
    shapes = set()
    for path in sorted((ROOT / "src" / "dfsqft").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            if called == name and not starred and all(kw.arg for kw in node.keywords):
                shapes.add((len(node.args), tuple(kw.arg for kw in node.keywords)))
    return sorted(shapes)


@pytest.mark.parametrize("module,name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"dfsqft.{module}"), name, None))


@pytest.mark.parametrize("target,counter", COUNTED, ids=[f"{m}.{n}" for (m, n), _ in COUNTED])
def test_counter_accepts_the_traced_signature(target, counter):
    # the tracer calls counter(result, *args, **kwargs) with the traced call's
    # own arguments: every parameter by position, and each call site in src
    # as it is written, by name where it names one
    module, name = target
    params = inspect.signature(getattr(importlib.import_module(f"dfsqft.{module}"), name))
    accepts = inspect.signature(counter)
    accepts.bind(None, *params.parameters)
    for positional, keywords in _call_shapes(name):
        accepts.bind(None, *range(positional), **dict.fromkeys(keywords))


def test_setup_call_runs():
    # bench/run.py calls this during set-up
    assert len(dfsqft.scd.resolve_convention()) == 14
