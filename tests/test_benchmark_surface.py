"""Every function the benchmark traces exists in airfed.

The traced benchmark run rebinds the names listed in
``benchmarks/layers.py`` and fails when one is missing; this catches a
deleted or renamed function in the test suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


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
