"""Helpers shared by the test modules, and a per-test time limit."""

import contextlib
import faulthandler
import os
import struct
import threading
import tracemalloc

import pytest

from airfed import rng

# A test still running after this many seconds, such as one deadlocked in a
# thread hand-off, dumps every thread's traceback and ends the run.  The
# slowest test takes under 2 s.
TEST_TIME_LIMIT_S = 120

# The terminal's stderr, duplicated while output capture is suspended, so
# that the tracebacks are not lost in a capture file when the process exits.
_hang_report = []


def pytest_configure(config):
    capture = config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        _hang_report.append(os.dup(2))


def pytest_unconfigure(config):
    os.close(_hang_report.pop())


@pytest.fixture(autouse=True)
def _fail_on_hang():
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=_hang_report[0])
    yield
    faulthandler.cancel_dump_traceback_later()


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc traces while ``fn(*args, **kwargs)`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def started_threads(monkeypatch) -> list:
    """A list that grows by the name of each thread started from now on."""
    started, start = [], threading.Thread.start

    def record(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


@pytest.fixture
def two_cpus(monkeypatch):
    """Report two usable CPUs to the draw-ahead rule, so that a test reaches
    the worker thread even when the process is pinned to one CPU."""
    monkeypatch.setattr(rng, "usable_cpus", lambda: 2)


def write_idx_pair(directory, images, labels):
    """Write uint8 ``images`` (n, rows, cols) and ``labels`` (n,) as the IDX
    training pair in ``directory``; returns the images file's path."""
    images_path = directory / "train-images-idx3-ubyte"
    images_path.write_bytes(struct.pack(">iiii", 0x803, *images.shape) + images.tobytes())
    labels_bytes = struct.pack(">ii", 0x801, len(labels)) + labels.tobytes()
    (directory / "train-labels-idx1-ubyte").write_bytes(labels_bytes)
    return images_path
