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
the same numbers as one.  :func:`drawn_row_blocks` draws them into two
reused block buffers, and :func:`drawn_ahead` lets a worker thread draw
the next block of a stream while the caller reduces the current one; the
draws keep their order, so every output keeps its bytes.
"""

from __future__ import annotations

import hashlib
import threading

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


def drawn_row_blocks(n_rows: int, row_entries: int, draw):
    """Yield ``(start, block)`` for each row range of :func:`row_blocks`,
    where ``draw(out)`` fills ``out``, a (rows, ``row_entries``) float64
    view of a reused buffer, and returns it.

    The caller may overwrite a block; it holds other draws once the next
    block has been requested.  With more than one block, a worker thread
    draws block i + 1 into a second buffer while the caller works on
    block i (:func:`drawn_ahead`).
    """
    blocks = list(row_blocks(n_rows, row_entries))
    threaded = len(blocks) > 1
    buffers = [np.empty((blocks[0][1], row_entries)) for _ in range(1 + threaded)]

    def draws():
        for i, (start, stop) in enumerate(blocks):
            yield start, draw(buffers[i % len(buffers)][: stop - start])

    return drawn_ahead(draws(), threaded)


def drawn_ahead(items, threaded: bool):
    """Yield the items of the iterable ``items`` in order.

    With ``threaded``, a worker thread produces item i + 1 while the caller
    works on item i.  The caller produces item 0, and each item starts only
    after the previous one has finished, so a random stream drawn by
    ``items`` is consumed in the same order as without the worker.  Item
    i + 2 starts only once the caller has asked for item i + 1, so an item
    may reuse the buffer of the item two before it.  An error raised while
    producing an item is raised here, and the worker has been joined when
    the generator finishes or is closed.  Without ``threaded`` no thread
    starts; with it, ``items`` must hold at least one item.
    """
    items = iter(items)
    if not threaded:
        yield from items
        return
    item = next(items)
    # Two locks hand the items over strictly in turn: the worker takes `free`
    # before producing each item and releases `drawn` after it, and the
    # caller, once it holds item i, releases `free` so that item i + 1 may
    # start.
    drawn, free, stop = threading.Lock(), threading.Lock(), threading.Event()
    drawn.acquire()
    ahead, failure = [], []
    done = object()

    def produce():
        try:
            while True:
                free.acquire()
                if stop.is_set():
                    return
                ahead.append(next(items, done))
                drawn.release()
                if ahead[-1] is done:
                    return
        except BaseException as exc:
            # Raised again by the caller, which would otherwise wait on
            # `drawn` for ever.
            failure.append(exc)
            drawn.release()

    worker = threading.Thread(target=produce, name="airfed-draw-ahead")
    worker.start()
    try:
        while True:
            yield item
            drawn.acquire()
            if failure:
                raise failure[0]
            item = ahead.pop()
            if item is done:
                return
            free.release()
    finally:
        stop.set()
        # Only the caller releases `free`.  If it is held, the worker is
        # producing, waiting for it or finished; released, the worker's next
        # take sees `stop`.
        if free.locked():
            free.release()
        worker.join()
