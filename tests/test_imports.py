"""Import boundaries of the airfed package, read from its source with ast.

``airfed.rng`` is the one module that starts threads, so no other module
imports ``threading``, ``queue`` or ``concurrent.futures``.  No ``airfed``
module issues a warning (a fallback is a returned value), so none imports
``warnings``.  Imports at any depth count, inside a function too.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "airfed").glob("*.py"))
THREAD_MODULES = {"threading", "queue", "concurrent.futures"}


def imported_modules(source: str) -> set:
    """Every absolute module that ``source`` imports, with each package
    above it: ``from concurrent import futures`` names ``concurrent`` and
    ``concurrent.futures``.  Relative imports name airfed's own modules and
    are left out."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            names.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return names


@pytest.mark.parametrize(
    "source, found",
    [
        ("import threading", {"threading"}),
        ("import concurrent.futures as cf", {"concurrent.futures"}),
        ("from concurrent import futures", {"concurrent.futures"}),
        ("from queue import Queue", {"queue"}),
        ("def draw():\n    import warnings\n", {"warnings"}),
        ("from . import rng\nfrom .rng import drawn_blocks\n", set()),
    ],
)
def test_reads_every_form_of_import(source, found):
    assert imported_modules(source) & (THREAD_MODULES | {"warnings"}) == found


def test_finds_the_package_sources():
    assert {"rng.py", "phy.py", "learning.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_rng_imports_thread_machinery(path):
    if path.name != "rng.py":
        assert not imported_modules(path.read_text()) & THREAD_MODULES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_warnings(path):
    assert "warnings" not in imported_modules(path.read_text())
