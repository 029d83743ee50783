"""The benchmark's targets and gates, checked against the current `minlag`.

`bench/tracing.py` wraps `minlag` functions by name and only warns when one
is missing, dropping the metrics derived from it; this keeps a rename in
`minlag` from silently emptying a per-layer metric.

`bench/workloads.py` gates every command's outputs on reference values
(T0, the nonexistence bound, the mountain-pass lambda_min, the wpcheck
rel_err).  Running each workload at smoke size here, and at full size for
seed 0, keeps a change to `minlag` that moves one of them from surfacing
only in a benchmark run.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from minlag import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module_name,path", [
    target for targets in tracing.TARGETS.values() for target in targets])
def test_tracer_target_resolves(module_name, path):
    _, _, original = tracing._resolve(module_name, path)
    # the tracer wraps plain functions and properties
    assert callable(original) or isinstance(original, property)


# full size once: no other test checks the octagon r3 references (the
# nested fold T0, the mountain-pass lambda_min and the wpcheck rel_err)
@pytest.mark.parametrize("seed,smoke", [(0, True), (7, True), (0, False)],
                         ids=["0", "7", "0-full"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_gates_pass_at_smoke_size(workload, seed, smoke, tmp_path):
    for i, cmd in enumerate(workloads.build_commands(workload, seed,
                                                     smoke=smoke)):
        config = tmp_path / f"config-{i}.json"
        config.write_text(json.dumps(cmd.config))
        out = tmp_path / cmd.output
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([cmd.family, str(config), "-o", str(out)])
        assert code == 0, f"{cmd.family} {cmd.output}"
        assert cmd.gate(out) == [], f"{cmd.family} {cmd.output}"
