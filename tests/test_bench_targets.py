"""The benchmark tracer's targets must name functions that exist.

`bench/tracing.py` wraps `minlag` functions by name and only warns when one
is missing, dropping the metrics derived from it; this keeps a rename in
`minlag` from silently emptying a per-layer metric.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name,path", [
    target for targets in tracing.TARGETS.values() for target in targets])
def test_tracer_target_resolves(module_name, path):
    _, _, original = tracing._resolve(module_name, path)
    # the tracer wraps plain functions and properties
    assert callable(original) or isinstance(original, property)
