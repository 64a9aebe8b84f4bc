"""Spread-spectrum and beamforming extensions against dense-algebra oracles."""

import numpy as np
import pytest

from airfed.extensions import (
    BeamProblem,
    SpreadingCode,
    adversary_suppression_trial,
    aggregation_beamformer,
    beam_objective,
    beam_pattern_csv,
    despread,
    pn_code,
    sdma_beamformer,
    spread,
)
from airfed.rng import derived_rng


class TestSpreadDespread:
    def test_unit_factor_is_identity(self):
        code = SpreadingCode(np.array([1.0]))
        x = derived_rng(1, "x").normal(0, 1, 100)
        assert np.array_equal(spread(x, code), x)
        assert np.array_equal(despread(x, code), x)

    @pytest.mark.parametrize("gamma", [2, 4, 8, 16, 64])
    def test_power_of_two_roundtrip_bit_exact(self, gamma):
        code = pn_code(gamma, derived_rng(2, "code", gamma))
        x = derived_rng(2, "sym", gamma).normal(0, 1, 1000)
        assert np.array_equal(despread(spread(x, code), code), x)

    @pytest.mark.parametrize("gamma", [3, 5, 7])
    def test_odd_factor_roundtrip_machine_precision(self, gamma):
        code = pn_code(gamma, derived_rng(3, "code", gamma))
        x = derived_rng(3, "sym", gamma).normal(0, 1, 1000)
        back = despread(spread(x, code), code)
        assert np.max(np.abs(back - x)) < 1e-15 * np.max(np.abs(x))

    def test_chip_count_scales_with_factor(self):
        # Bandwidth/latency cost: gamma times more symbols on the air.
        code = pn_code(16, derived_rng(4, "code"))
        x = np.ones(25)
        assert spread(x, code).size == 25 * 16

    def test_length_mismatch_rejected(self):
        code = pn_code(4, derived_rng(5, "code"))
        with pytest.raises(ValueError):
            despread(np.ones(10), code)

    def test_code_validation(self):
        with pytest.raises(ValueError):
            SpreadingCode(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            pn_code(0, derived_rng(0))

    def test_legitimate_sum_preserved(self):
        # Two legitimate devices sharing the code: despread equals the sum
        # of their symbol vectors, i.e. the codeless aggregate.
        rng = derived_rng(6, "legit")
        a = rng.normal(0, 1, 500)
        b = rng.normal(0, 1, 500)
        code = pn_code(8, rng)
        aggregate = despread(spread(a, code) + spread(b, code), code)
        assert np.max(np.abs(aggregate - (a + b))) < 1e-12


class TestAdversarySuppression:
    def test_unit_factor_no_suppression(self):
        rng = derived_rng(7, "adv")
        updates = rng.normal(0, 1, size=(2, 512))
        _, ratio = adversary_suppression_trial(updates, 1.0, 1, rng)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [4, 16])
    def test_suppression_tracks_spreading_factor(self, gamma):
        # Pooled over 1e4 trials the measured suppression sits within 20%
        # of gamma.
        rng = derived_rng(8, "adv", gamma)
        raw_total = 0.0
        residual_total = 0.0
        for _ in range(10000):
            code = pn_code(gamma, rng)
            interference = rng.normal(0.0, 1.0, 64 * gamma)
            residual = despread(interference, code)
            raw_total += float(np.mean(interference**2))
            residual_total += float(np.mean(residual**2))
        assert raw_total / residual_total == pytest.approx(gamma, rel=0.2)

    def test_aggregate_unchanged_by_interference_on_average(self):
        rng = derived_rng(9, "adv")
        updates = rng.normal(0, 1, size=(3, 4096))
        aggregate, ratio = adversary_suppression_trial(updates, 0.25, 16, rng)
        clean = updates.sum(axis=0)
        residual_power = np.mean((aggregate - clean) ** 2)
        assert residual_power == pytest.approx(0.25 / 16, rel=0.2)
        assert ratio == pytest.approx(16.0, rel=0.2)

    def test_zero_power_adversary(self):
        rng = derived_rng(10, "adv")
        updates = rng.normal(0, 1, size=(2, 128))
        aggregate, ratio = adversary_suppression_trial(updates, 0.0, 8, rng)
        assert np.max(np.abs(aggregate - updates.sum(axis=0))) < 1e-12
        assert ratio == float("inf")


def random_problem(n, k, seed, n0=1e-2):
    rng = derived_rng(seed, "beam", n, k)
    h = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
    return BeamProblem(h_matrix=h, weak_set=tuple(range(k)), n0=n0)


class TestAggregationBeamformer:
    def test_single_weak_user_is_matched_filter(self):
        problem = random_problem(6, 1, seed=11)
        result = aggregation_beamformer(problem)
        h = problem.h_matrix[:, 0]
        expected = float(np.linalg.norm(h) ** 2 / problem.n0)
        assert result.objective == pytest.approx(expected, rel=1e-8)
        # Beam is proportional to the channel vector.
        f = result.f_matrix[:, 0]
        alignment = abs(np.vdot(f, h)) / (np.linalg.norm(f) * np.linalg.norm(h))
        assert alignment == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_eigendecomposition_oracle(self):
        for seed in range(5):
            problem = random_problem(8, 3, seed=seed)
            result = aggregation_beamformer(problem)
            h = problem.h_matrix
            eigvals = np.linalg.eigvalsh(h @ h.conj().T)
            oracle = float(eigvals[-1] / problem.n0)
            assert abs(result.objective - oracle) / oracle < 1e-8

    def test_objective_scale_invariant(self):
        problem = random_problem(5, 2, seed=12)
        result = aggregation_beamformer(problem)
        base = beam_objective(problem, result.f_matrix)
        for scale in [0.1, 3.0, -2.0, 1j * 5.0]:
            scaled = beam_objective(problem, scale * result.f_matrix)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_rank_two_reports_trace_average(self):
        problem = random_problem(6, 4, seed=13)
        result = aggregation_beamformer(problem, rank=2)
        h = problem.h_matrix
        eigvals = np.linalg.eigvalsh(h @ h.conj().T)
        oracle = float(eigvals[-2:].mean() / problem.n0)
        assert abs(result.objective - oracle) / oracle < 1e-8

    def test_every_rank_consistent_with_own_objective(self):
        # Guards the eigenvector ordering and slicing: the reported objective
        # is the one its own beams achieve, and the beams are orthonormal.
        for n, k, seed in [(6, 3, 16), (8, 8, 17), (4, 1, 18)]:
            problem = random_problem(n, k, seed=seed)
            for rank in range(1, n + 1):
                result = aggregation_beamformer(problem, rank=rank)
                f = result.f_matrix
                assert f.shape == (n, rank)
                assert beam_objective(problem, f) == pytest.approx(result.objective, rel=1e-12)
                assert np.max(np.abs(f.conj().T @ f - np.eye(rank))) < 1e-12

    def test_zero_channels_degenerate(self):
        problem = BeamProblem(h_matrix=np.zeros((4, 2), dtype=complex), weak_set=(0, 1), n0=1.0)
        with pytest.warns(RuntimeWarning):
            result = aggregation_beamformer(problem)
        assert result.degenerate
        assert result.objective == 0.0


class TestSdmaBeamformer:
    def test_single_user_matches_aggregation_case(self):
        problem = random_problem(6, 1, seed=14)
        sdma = sdma_beamformer(problem)
        agg = aggregation_beamformer(problem)
        assert sdma.feasible
        assert sdma.per_user_snr[0] == pytest.approx(agg.objective, rel=1e-8)

    def test_zero_forcing_residuals(self):
        problem = random_problem(4, 2, seed=15)
        sdma = sdma_beamformer(problem)
        assert sdma.feasible
        h = problem.h_matrix
        for user in range(2):
            for other in range(2):
                if other != user:
                    residual = abs(np.vdot(sdma.beams[:, user], h[:, other]))
                    assert residual < 1e-10

    def test_insufficient_antennas_infeasible(self):
        problem = random_problem(2, 3, seed=16)
        sdma = sdma_beamformer(problem)
        assert not sdma.feasible
        assert sdma.infeasible_users == (0, 1, 2)
        assert "degrees of freedom" in sdma.reason

    def test_colinear_channels_flagged_per_user(self):
        rng = derived_rng(17, "colinear")
        h = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))) / np.sqrt(2)
        h[:, 2] = 2.0 * h[:, 1]  # user 1 and 2 share a direction
        problem = BeamProblem(h_matrix=h, weak_set=(0, 1, 2), n0=1e-2)
        sdma = sdma_beamformer(problem)
        assert not sdma.feasible
        assert set(sdma.infeasible_users) == {1, 2}
        # User 0 still gets a valid zero-forcing beam.
        assert abs(np.vdot(sdma.beams[:, 0], h[:, 1])) < 1e-10

    def test_aggregation_dominates_sdma_objective(self):
        # The unconstrained sum-SNR optimum can never fall below any
        # zero-forced per-user SNR on the same instance.
        for seed in range(8):
            problem = random_problem(6, 4, seed=100 + seed)
            agg = aggregation_beamformer(problem)
            sdma = sdma_beamformer(problem)
            assert sdma.feasible
            assert agg.objective >= np.nanmax(sdma.per_user_snr) - 1e-9


class TestBeamPatternExport:
    def test_pattern_csv_shape_and_peak(self):
        n = 8
        steering = np.exp(1j * np.pi * np.arange(n) * np.sin(0.3))
        text = beam_pattern_csv(steering, n_points=181)
        lines = text.strip().split("\n")
        assert lines[0] == "angle_rad,gain"
        assert len(lines) == 182
        angles = np.array([float(l.split(",")[0]) for l in lines[1:]])
        gains = np.array([float(l.split(",")[1]) for l in lines[1:]])
        # Peak response points at the steering angle (up to grid spacing).
        assert abs(angles[gains.argmax()] - 0.3) < 0.02
        assert gains.max() > 0.99 * n**2
