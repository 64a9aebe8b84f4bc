"""Every stochastic function draws from the Generator it is given.

None is not a seed: a function handed ``rng=None`` must fail rather than
seed a stream of its own from OS entropy, which would make two runs with
the same root seed differ.  A stream drawn ahead on a worker thread gives
the caller the items it gives without the worker.
"""

import math
import threading
import time
from contextlib import closing

import numpy as np
import pytest

from airfed import extensions, learning, network, phy, validation
from airfed.analytics import SystemParams
from airfed.config import load_config
from airfed.datasets import synth_gaussian_mixture
from airfed.rng import BLOCK_ENTRIES, derived_rng, drawn_ahead, drawn_blocks
from conftest import started_threads

PARAMS = SystemParams(p0=0.1, m=4, b=1e6, alpha=3.0, r_cell=100.0, g_th=0.5, n0=1e-11)
DATA = synth_gaussian_mixture(3, 2, 12, seed=1)

DRAWS = {
    "sample_radii": lambda rng: network.sample_radii(5, 100.0, rng),
    "draw_channels": lambda rng: phy.draw_channels(5, 4, rng),
    "baa_round": lambda rng: phy.baa_round(np.zeros((2, 6)), np.array([30.0, 60.0]), PARAMS, rng),
    "pn_code": lambda rng: extensions.pn_code(8, rng),
    "partition": lambda rng: learning.partition(DATA, learning.PartitionSpec(), 4, rng),
    "init_weights": lambda rng: learning.init_weights(2, 3, rng),
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_no_generator_raises_instead_of_drawing(name):
    draw = DRAWS[name]
    draw(derived_rng(1, name))
    with pytest.raises(AttributeError):
        draw(None)


def normal_blocks(rng, buffers, n_blocks):
    """``n_blocks`` standard-normal fills of ``rng``, cycling over ``buffers``."""
    for i in range(n_blocks):
        yield rng.standard_normal(out=buffers[i % len(buffers)])


HALF = BLOCK_ENTRIES // 2


class TestDrawnAhead:
    def test_threaded_stream_gives_the_serial_bytes(self):
        # The caller holds each block a while before reading it: a draw into
        # the buffer it holds, or out of stream order, changes the bytes.
        blocks = normal_blocks(derived_rng(1, "s"), [np.empty(999)], 9)
        serial = [block.tobytes() for block in blocks]
        blocks = normal_blocks(derived_rng(1, "s"), [np.empty(999), np.empty(999)], 9)
        threaded = []
        for block in drawn_ahead(blocks):
            time.sleep(0.002)
            threaded.append(block.tobytes())
        assert threaded == serial

    @pytest.mark.parametrize("failing_item", [2, 4])
    def test_error_in_an_item_reaches_the_caller_and_stops_the_worker(self, failing_item):
        # Item 0 is produced by the caller, later ones by the worker.
        def items():
            for i in range(6):
                if i == failing_item:
                    raise RuntimeError("item failed")
                yield i

        threads_before = threading.active_count()
        got = []
        with pytest.raises(RuntimeError, match="item failed"):
            for item in drawn_ahead(items()):
                got.append(item)
        assert got == list(range(failing_item))
        assert threading.active_count() == threads_before

    def test_closing_mid_iteration_joins_the_worker(self):
        produced = []

        def items():
            for i in range(10):
                produced.append(i)
                yield i

        threads_before = threading.active_count()
        stream = drawn_ahead(items())
        assert [next(stream), next(stream)] == [0, 1]
        assert threading.active_count() == threads_before + 1
        stream.close()
        assert threading.active_count() == threads_before
        # At most one item past the one the caller holds was started.
        assert produced in ([0, 1], [0, 1, 2])

    def test_closing_while_an_item_fails_raises_nothing(self):
        failing = threading.Event()

        def items():
            yield 0
            yield 1
            failing.set()
            time.sleep(0.05)
            raise RuntimeError("item failed")

        threads_before = threading.active_count()
        stream = drawn_ahead(items())
        assert [next(stream), next(stream)] == [0, 1]
        # The worker is producing item 2, which raises while the caller closes.
        assert failing.wait(10)
        stream.close()
        assert threading.active_count() == threads_before

    # Each case pairs a stream just below the draw-ahead threshold with one
    # just at it: a first block of BLOCK_ENTRIES // 2 entries, and a second.
    @pytest.mark.parametrize(
        "below, at",
        [
            ([(1, HALF - 1), (1, HALF)], [(1, HALF), (1, HALF - 1)]),
            ([(2, HALF)], [(2, HALF), (2, HALF)]),
            ([(4, HALF // 4 - 1)] * 2 + [(4, 17)], [(4, HALF // 4)] * 2 + [(4, 17)]),
        ],
    )
    def test_streams_below_the_threshold_start_no_thread(self, monkeypatch, below, at):
        started = started_threads(monkeypatch)
        # One chip block and one block of each montecarlo stream.
        codes = [extensions.pn_code(gamma, derived_rng(2, gamma)) for gamma in (1, 4)]
        extensions.suppression_ratios(codes, 200, derived_rng(2, "chips"))
        validation.montecarlo_rows(load_config(None, overrides={"trials": 6}))
        assert started == []
        # Both streams give the bytes of one draw; only the one at the
        # threshold draws ahead.
        for shapes, threads in ((below, []), (at, ["airfed-draw-ahead"])):
            stream = derived_rng(3, "blocks")
            with closing(drawn_blocks(shapes, lambda out: stream.standard_normal(out=out))) as blocks:
                drawn = b"".join(block.tobytes() for block in blocks)
            entries = sum(math.prod(shape) for shape in shapes)
            assert drawn == derived_rng(3, "blocks").standard_normal(entries).tobytes()
            assert started == threads
