"""The benchmark still runs against airfed.

The traced benchmark run rebinds the names listed in
``benchmarks/layers.py`` and fails when one is missing or records no call
on a workload that must call it.  Its workloads also call airfed beyond
those names (``learning.trace_csv``, ``phy.denormalize``'s count,
``digital_round``'s positional rng, ``ScenarioParams.q_dim``).  These
tests catch a deleted or renamed name, or a changed call, in the test
suite instead.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
LAYERS_PATH = BENCHMARKS / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_an_airfed_callable():
    missing = []
    for qualname in _layers().qualnames():
        module_name, _, attr = qualname.partition(".")
        module = importlib.import_module(f"airfed.{module_name}")
        if "." in attr:
            # Methods are rebound on the class that defines them.
            owner, _, method = attr.partition(".")
            found = vars(getattr(module, owner, object)).get(method)
        else:
            found = getattr(module, attr, None)
        if not callable(found):
            missing.append(qualname)
    assert not missing


# A few ops of each workload, traced: one of every op kind.  The traced
# run must record a call for every name ``layers.py`` lists for the
# workload, which ``benchmarks/run.py`` otherwise checks only at benchmark
# time.  The same ops run untraced must give the traced digests, as
# ``run.py --trace 1`` requires of a correct run.
def _worker_ops(workload, ops, trace):
    proc = subprocess.run(
        [
            sys.executable, str(BENCHMARKS / "worker.py"), "--workload", workload, "--seed", "1",
            "--ops", str(ops), "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert len(result["ops"]) == ops
    assert [op["problems"] for op in result["ops"]] == [[]] * ops
    return result


@pytest.mark.parametrize("workload, ops", [("fl-desk", 3), ("phy-paper", 2), ("cli-reports", 4)])
def test_workload_ops_run_and_pass_their_checks(workload, ops):
    result = _worker_ops(workload, ops, trace=1)
    functions = result["trace"]["functions"]
    uncalled = [name for name in _layers().qualnames(workload) if functions[name]["calls"] == 0]
    assert not uncalled
    untraced = _worker_ops(workload, ops, trace=0)
    assert [op["digest"] for op in untraced["ops"]] == [op["digest"] for op in result["ops"]]
