"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc traces while ``fn(*args, **kwargs)`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
