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
the same numbers as one.  :func:`drawn_blocks` draws any stream block by
block (Monte Carlo row blocks, OFDM symbols' gains) into two reused
buffers and, by one rule, lets a worker thread draw the next block while
the caller reduces the current one (:func:`drawn_ahead`): the caller asks
for each block through one queue and the worker answers through another,
so the draws keep their order and every output keeps its bytes.
"""

from __future__ import annotations

import hashlib
import math
import queue
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


def row_blocks(n_rows: int, row_entries: int) -> list:
    """Shapes ``(rows, row_entries)`` of consecutive row blocks covering
    ``n_rows`` rows of ``row_entries`` entries each, about ``BLOCK_ENTRIES``
    entries (and at least one row) per block."""
    step = max(1, BLOCK_ENTRIES // row_entries)
    return [(min(step, n_rows - start), row_entries) for start in range(0, n_rows, step)]


# Drawing ahead pays for starting the worker (about 70 us) and for handing
# each block over (about 10-20 us) once a block holds BLOCK_ENTRIES // 2 =
# 2^15 entries.  On a 2-core x86 host, median of 81 analog rounds: at 16,000
# gains per OFDM symbol a 2-symbol round ran 31 % slower threaded, a
# 4-symbol one 13 % slower and a 32-symbol one 18 % faster; at 32,000 gains
# 2 symbols broke even and 3 or 16 ran 9 % and 37 % faster.  A stream of
# several row_blocks has a first block that large: floor(x) >= x / 2, x >= 1.
def drawn_blocks(shapes, draw):
    """Yield one float64 block per shape of the list ``shapes``, in order,
    each filled by ``draw(block)``.

    Each block is a C-contiguous prefix view of one of two reused buffers
    sized to the largest block: the caller may overwrite it, and it holds
    other draws once the next block has been requested.  The draws run in
    order and the last has finished when the last block is yielded.  With
    more than one block and a first block of at least ``BLOCK_ENTRIES // 2``
    entries, :func:`drawn_ahead` draws block i + 1 on a worker thread while
    the caller works on block i; otherwise no thread starts and the second
    buffer is not allocated.
    """
    sizes = [math.prod(shape) for shape in shapes]
    ahead = len(shapes) > 1 and sizes[0] >= BLOCK_ENTRIES // 2
    buffers = [np.empty(max(sizes)) for _ in range(1 + ahead)]

    def draws():
        for i, (shape, size) in enumerate(zip(shapes, sizes)):
            block = buffers[i % len(buffers)][:size].reshape(shape)
            draw(block)
            yield block

    return drawn_ahead(draws()) if ahead else draws()


def drawn_ahead(items):
    """Yield the items of the iterable ``items``, at least one, in order.

    A worker thread produces item i + 1 while the caller works on item i.
    The caller produces item 0, and each item starts only after the
    previous one has finished, so a random stream drawn by ``items`` is
    consumed in the same order as without the worker.  The threads share
    two queues: before it yields item i the caller puts a request, and the
    worker answers each request with the next item or with the error that
    producing it raised.  So item i + 2 starts only once the caller has
    asked for item i + 1, and an item may reuse the buffer of the item two
    before it.  An error raised while producing an item is raised here, and
    the worker has been joined when the generator finishes or is closed.
    """
    items = iter(items)
    item = next(items)
    requests, answers = queue.SimpleQueue(), queue.SimpleQueue()
    done = object()

    def produce():
        while requests.get():
            try:
                answers.put((next(items, done), None))
            except BaseException as exc:
                # The caller waits for an answer to every request it puts.
                answers.put((None, exc))
                return

    worker = threading.Thread(target=produce, name="airfed-draw-ahead")
    worker.start()
    try:
        while True:
            requests.put(True)
            yield item
            item, error = answers.get()
            if error is not None:
                raise error
            if item is done:
                return
    finally:
        requests.put(False)
        worker.join()
