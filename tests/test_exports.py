"""Every name a module exports in ``__all__`` exists in it.

A deleted function or class that keeps its ``__all__`` entry breaks
``from airfed.<module> import *``; this catches the stale entry instead.
"""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["analytics", "phy", "extensions"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(f"airfed.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
