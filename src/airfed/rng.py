"""Deterministic random-stream derivation.

Every experiment hangs off a single 64-bit root seed.  Sub-streams (per
trial, per round, per device, per module) are derived by hashing the root
seed together with a tuple of string/int labels, so adding more trials or
reordering work never perturbs the draws of existing streams.  One sweep
shares a stream: the spreading factors of the DSSS sweep despread leading
chips of a single chip stream, whose rows are as wide as the widest
factor, so widening that grid redraws every one of its rows.  Every
stochastic function draws from the ``np.random.Generator`` it is given
(the synthetic dataset takes an int seed), so nothing seeds a stream from
OS entropy.
Large Monte Carlo draws are split by :func:`row_blocks` into blocks of
about ``BLOCK_ENTRIES`` entries; consecutive draws from one stream give
the same numbers as one.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Monte Carlo draws are taken in blocks of about this many float64 entries
# (512 KB), so a block and the temporaries reduced from it stay in cache.
BLOCK_ENTRIES = 1 << 16


def derive_seed(root_seed: int, *labels) -> int:
    """Stable 128-bit child seed from a root seed and a label path."""
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:16], "big")


def derived_rng(root_seed: int, *labels) -> np.random.Generator:
    """Generator seeded from ``derive_seed(root_seed, *labels)``."""
    return np.random.default_rng(derive_seed(root_seed, *labels))


def row_blocks(n_rows: int, row_entries: int):
    """Consecutive ``(start, stop)`` row ranges covering ``n_rows`` rows of
    ``row_entries`` entries each, about ``BLOCK_ENTRIES`` entries (and at
    least one row) per range."""
    step = max(1, BLOCK_ENTRIES // row_entries)
    for start in range(0, n_rows, step):
        yield start, min(start + step, n_rows)
