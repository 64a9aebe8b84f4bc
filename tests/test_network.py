"""Topology sampling, mobility, and scheduling against the closed forms.

A topology is the array of device distances."""

import numpy as np
import pytest

from airfed import analytics, network
from airfed.network import (
    SchedulingScheme,
    advance_round,
    sample_radii,
    sample_topology,
    schedule,
)
from airfed.rng import derived_rng

R_CELL = 100.0


class TestSampleTopology:
    def test_radius_cdf_at_half_cell(self):
        # F(R/2) = 1/4 under the 2r/R^2 density.
        radii = sample_radii(1, R_CELL, derived_rng(7, "cdf"), size=100000).ravel()
        assert np.mean(radii <= R_CELL / 2) == pytest.approx(0.25, abs=0.01)

    def test_single_device_mean_radius(self):
        # Matches the K = 1 furthest-distance mean, (2/3) R.
        radii = sample_radii(1, R_CELL, derived_rng(7, "mean"), size=100000).ravel()
        assert radii.mean() == pytest.approx(2.0 / 3.0 * R_CELL, rel=0.01)

    def test_same_seed_bit_identical(self):
        radii_a = sample_topology(50, R_CELL, derived_rng(123, "topology"))
        radii_b = sample_topology(50, R_CELL, derived_rng(123, "topology"))
        assert radii_a.shape == (50,)
        assert np.array_equal(radii_a, radii_b)

    @pytest.mark.parametrize("size", [None, 1, 37])
    def test_out_receives_the_allocating_draws(self, size):
        expected = sample_radii(23, R_CELL, derived_rng(8, "out"), size=size)
        out = np.empty(expected.shape)
        radii = sample_radii(23, R_CELL, derived_rng(8, "out"), size=size, out=out)
        assert radii is out
        assert radii.tobytes() == expected.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_topology(0, R_CELL, derived_rng(1, "topology"))
        with pytest.raises(ValueError):
            sample_topology(5, 0.0, derived_rng(1, "topology"))


class TestAdvanceRound:
    def test_static_keeps_positions(self):
        radii = sample_topology(20, R_CELL, derived_rng(5, "topology"))
        assert advance_round(radii, R_CELL, None) is radii

    def test_resample_draws_fresh_positions(self):
        radii = sample_topology(20, R_CELL, derived_rng(5, "topology"))
        stepped = advance_round(radii, R_CELL, derived_rng(5, "step"))
        assert stepped.shape == radii.shape
        assert not np.array_equal(stepped, radii)
        assert np.array_equal(stepped, sample_radii(20, R_CELL, derived_rng(5, "step")))

    def test_mobility_covers_all_devices_at_predicted_rate(self):
        # 2000 independent training periods of 31 rounds with 200 devices
        # redropped each round: the fraction of periods in which every
        # device was ever interior tracks the closed-form probability.
        k, n_cr, runs = 200, 31, 2000
        r_in = 0.5 * R_CELL
        scheme = SchedulingScheme.cell_interior(r_in)
        exact = analytics.p_all_exploited(k, n_cr, analytics.fraction_exploited(r_in, R_CELL))
        hits = 0
        for run in range(runs):
            rng = derived_rng(31337, "mobility-run", run)
            radii = sample_topology(k, R_CELL, rng)
            ever = np.zeros(k, dtype=bool)
            for rnd in range(n_cr):
                if rnd > 0:
                    radii = advance_round(radii, R_CELL, rng)
                ever[schedule(radii, scheme, rnd)] = True
            hits += bool(ever.all())
        assert hits / runs == pytest.approx(exact, abs=0.02)


class TestSchedule:
    def test_full_interior_equals_all_inclusive(self):
        radii = sample_topology(30, R_CELL, derived_rng(11, "topology"))
        interior = schedule(radii, SchedulingScheme.cell_interior(R_CELL), 0)
        everyone = schedule(radii, SchedulingScheme.all_inclusive(), 0)
        assert np.array_equal(interior, everyone)

    def test_interior_mean_count(self):
        # E[k_in] = K (r_in/R)^2 = 5 for K = 20 at half the cell radius.
        k, trials = 20, 10000
        counts = (sample_radii(k, R_CELL, derived_rng(3, "kin"), size=trials) <= 50.0).sum(axis=1)
        assert counts.mean() == pytest.approx(5.0, abs=0.5)

    def test_interior_members_within_radius(self):
        radii = sample_topology(50, R_CELL, derived_rng(2, "topology"))
        ids = schedule(radii, SchedulingScheme.cell_interior(40.0), 0)
        assert ids.size
        assert all(radii[i] <= 40.0 for i in ids)

    def test_alternating_pattern(self):
        radii = sample_topology(30, R_CELL, derived_rng(11, "topology"))
        scheme = SchedulingScheme.alternating(50.0, period=1)
        interior = schedule(radii, SchedulingScheme.cell_interior(50.0), 0)
        for rnd in range(6):
            ids = schedule(radii, scheme, rnd)
            if rnd % 2 == 0:
                assert np.array_equal(ids, interior)
            else:
                assert len(ids) == 30

    def test_alternating_longer_period(self):
        radii = sample_topology(10, R_CELL, derived_rng(4, "topology"))
        scheme = SchedulingScheme.alternating(50.0, period=3)
        kinds = ["interior" if len(schedule(radii, scheme, r)) < 10 else "all"
                 for r in range(12)]
        assert kinds == ["interior"] * 3 + ["all"] * 3 + ["interior"] * 3 + ["all"] * 3

    def test_empty_round_flagged(self):
        radii = np.array([60.0, 80.0])
        assert schedule(radii, SchedulingScheme.cell_interior(10.0), 0).size == 0

    def test_replay_is_identical(self):
        radii = sample_topology(25, R_CELL, derived_rng(8, "topology"))
        scheme = SchedulingScheme.alternating(55.0, period=2)
        first = [schedule(radii, scheme, r) for r in range(10)]
        second = [schedule(radii, scheme, r) for r in range(10)]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            SchedulingScheme("cell-interior")
        with pytest.raises(ValueError):
            SchedulingScheme("alternating", r_in=10.0, period=0)
        with pytest.raises(ValueError):
            SchedulingScheme("round-robin")


class TestDistributionValidation:
    def test_interior_count_histogram_total_variation(self):
        # Empirical interior-count law vs the binomial PMF at 1e5 draws.
        k, ratio, trials = 20, 0.5, 100000
        radii = sample_radii(k, R_CELL, derived_rng(17, "tv"), size=trials)
        counts = (radii <= ratio * R_CELL).sum(axis=1)
        hist = np.bincount(counts, minlength=k + 1) / trials
        pmf = np.array([analytics.k_in_pmf(k, ratio * R_CELL, R_CELL, j) for j in range(k + 1)])
        assert 0.5 * np.abs(hist - pmf).sum() < 0.01

    def test_max_distance_mean(self):
        k, trials = 10, 100000
        radii = sample_radii(k, R_CELL, derived_rng(17, "rmax"), size=trials)
        _, expected = analytics.max_distance_moments(k, R_CELL)
        assert radii.max(axis=1).mean() == pytest.approx(expected, rel=0.005)

    def test_fraction_exploited_monte_carlo(self):
        k, trials = 20, 100000
        radii = sample_radii(k, R_CELL, derived_rng(17, "frac"), size=trials)
        empirical = (radii <= 50.0).sum(axis=1).mean() / k
        assert empirical == pytest.approx(analytics.fraction_exploited(50.0, R_CELL), rel=0.01)
