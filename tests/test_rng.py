"""Every stochastic function draws from the Generator it is given.

None is not a seed: a function handed ``rng=None`` must fail rather than
seed a stream of its own from OS entropy, which would make two runs with
the same root seed differ.
"""

import numpy as np
import pytest

from airfed import extensions, learning, network, phy
from airfed.analytics import SystemParams
from airfed.datasets import synth_gaussian_mixture
from airfed.rng import derived_rng

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
