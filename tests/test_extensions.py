"""Spread-spectrum and beamforming extensions against dense-algebra oracles."""

import numpy as np
import pytest

from airfed import rng
from airfed.extensions import (
    BeamProblem,
    SpreadingCode,
    adversary_suppression_trial,
    aggregation_beamformer,
    beam_objective,
    despread,
    pn_code,
    sdma_beamformer,
    spread,
    suppression_ratios,
)
from airfed.rng import derived_rng
from conftest import started_threads


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

    @pytest.mark.parametrize("gamma", [1, 3, 4, 16, 64])
    def test_matrix_despread_equals_row_by_row(self, gamma):
        code = pn_code(gamma, derived_rng(12, "code", gamma))
        chips = derived_rng(12, "chips", gamma).normal(0, 1, size=(7, 64 * gamma))
        rows = np.stack([despread(row, code) for row in chips])
        assert np.array_equal(despread(chips, code), rows)

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

    def test_pooled_ratio_unit_factor_is_exactly_one(self):
        unit, wide = pn_code(1, derived_rng(13, "code", 1)), pn_code(4, derived_rng(13, "code", 4))
        assert suppression_ratios([unit], 10000, derived_rng(13, "dsss")) == [1.0]
        # Still exact when it despreads the leading chips of a wider code's rows.
        assert suppression_ratios([wide, unit], 10000, derived_rng(13, "dsss"))[1] == 1.0
        with pytest.raises(ValueError):
            suppression_ratios([wide], 0, derived_rng(13, "dsss"))

    @pytest.mark.parametrize("gamma", [4, 16])
    def test_pooled_ratio_tracks_spreading_factor(self, gamma):
        code = pn_code(gamma, derived_rng(14, "code", gamma))
        [measured] = suppression_ratios([code], 10000, derived_rng(14, "dsss", gamma))
        assert measured == pytest.approx(gamma, rel=0.05)

    @pytest.mark.parametrize("block_entries", [1, 3000, rng.BLOCK_ENTRIES])
    def test_each_ratio_matches_a_chip_level_reference(self, monkeypatch, block_entries):
        # The same chip stream drawn in one piece: trial by trial, each code
        # correlates its own leading 64 * gamma chips against its chips.
        trials, widest = 37, 16
        codes = [pn_code(gamma, derived_rng(15, "code", gamma)) for gamma in (4, 1, widest, 3)]
        chips = derived_rng(15, "chips").standard_normal((trials, 64 * widest))
        monkeypatch.setattr(rng, "BLOCK_ENTRIES", block_entries)
        ratios = suppression_ratios(codes, trials, derived_rng(15, "chips"))
        for code, ratio in zip(codes, ratios):
            raw_power = despread_power = 0.0
            for trial in chips:
                own = trial[: 64 * code.gamma]
                symbols = own.reshape(64, code.gamma) @ code.chips / code.gamma
                raw_power += own @ own
                despread_power += symbols @ symbols
            assert ratio == pytest.approx(raw_power / code.gamma / despread_power, rel=1e-12)

    def test_threaded_draws_give_the_serial_ratios(self, monkeypatch, two_cpus):
        # 125 chip blocks: a worker draws block i + 1 while block i is
        # despread.  Forced serial, the same stream gives the same bits.
        codes = [pn_code(gamma, derived_rng(16, "code", gamma)) for gamma in (1, 4, 16, 64)]
        started = started_threads(monkeypatch)
        threaded = suppression_ratios(codes, 2000, derived_rng(16, "chips"))
        assert started == ["airfed-draw-ahead"]
        monkeypatch.setattr(rng, "drawn_ahead", lambda items: items)
        assert suppression_ratios(codes, 2000, derived_rng(16, "chips")) == threaded
        assert len(started) == 1

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

    def test_every_rank_consistent_with_own_objective(self):
        # Guards the eigenvector ordering and slicing: the reported objective
        # is the one its own single beam achieves, and the beam has unit norm.
        for n, k, seed in [(6, 3, 16), (8, 8, 17), (4, 1, 18)]:
            problem = random_problem(n, k, seed=seed)
            result = aggregation_beamformer(problem)
            f = result.f_matrix
            assert f.shape == (n, 1)
            assert beam_objective(problem, f) == pytest.approx(result.objective, rel=1e-12)
            assert np.max(np.abs(f.conj().T @ f - np.eye(1))) < 1e-12

    def test_zero_channels_degenerate(self):
        problem = BeamProblem(h_matrix=np.zeros((4, 2), dtype=complex), weak_set=(0, 1), n0=1.0)
        result = aggregation_beamformer(problem)
        assert result.degenerate
        assert result.objective == 0.0
        # Every beam attains 0 on a zero channel; the one returned is a unit
        # beam that the module's own objective accepts.
        assert np.linalg.norm(result.f_matrix) == pytest.approx(1.0, rel=1e-15)
        assert beam_objective(problem, result.f_matrix) == 0.0

    def test_empty_weak_set_degenerate(self):
        # No weak user gives A = 0: the same degenerate unit beam as a zero
        # weak channel.
        problem = BeamProblem(h_matrix=random_problem(4, 3, seed=20).h_matrix, weak_set=(), n0=1e-2)
        result = aggregation_beamformer(problem)
        assert result.degenerate
        assert result.objective == 0.0
        assert np.linalg.norm(result.f_matrix) == pytest.approx(1.0, rel=1e-15)
        assert beam_objective(problem, result.f_matrix) == 0.0

    def test_nonzero_channels_are_not_degenerate(self):
        assert not aggregation_beamformer(random_problem(4, 2, seed=19)).degenerate


class TestSdmaBeamformer:
    def test_single_user_matches_aggregation_case(self):
        problem = random_problem(6, 1, seed=14)
        sdma = sdma_beamformer(problem)
        agg = aggregation_beamformer(problem)
        assert sdma.feasible
        assert sdma.per_user_snr[0] == pytest.approx(agg.objective, rel=1e-8)

    def test_single_user_beam_is_the_normalized_channel(self):
        # With no other users to null, the zero-forcing beam is the MRC beam,
        # bit for bit.
        problem = random_problem(6, 1, seed=14)
        h = problem.h_matrix[:, 0]
        assert np.array_equal(sdma_beamformer(problem).beams[:, 0], h / np.linalg.norm(h))

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


def zero_forcing_instance(rng, kind):
    """An n x k channel matrix S @ C with n, k in 1..6: S is an n x k complex
    Gaussian mixing and C the k x k integer coefficients of each user.  C is
    the identity for ``generic``; ``dependent`` makes one user a nonzero
    multiple or sum of others, ``zero`` zeroes one user.  For a generic S,
    rank(S @ C') = min(n, rank C') for every column subset C' of C, so a user
    lies in the others' span exactly when dropping its column leaves
    min(n, rank) unchanged.  Returns the matrix and that infeasible set."""
    n, k = (int(v) for v in rng.integers(1, 7, size=2))
    coeffs = np.eye(k)
    target = int(rng.integers(k))
    others = [user for user in range(k) if user != target]
    if kind == "dependent" and others:
        sources = rng.choice(others, size=min(len(others), int(rng.integers(1, 3))), replace=False)
        coeffs[:, target] = coeffs[:, sources] @ rng.choice([-2.0, -1.0, 1.0, 2.0], size=sources.size)
    elif kind == "zero":
        coeffs[:, target] = 0.0
    mixing = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)

    def rank(columns):
        return min(n, np.linalg.matrix_rank(coeffs[:, columns])) if columns else 0

    full = rank(list(range(k)))
    infeasible = tuple(u for u in range(k) if rank([v for v in range(k) if v != u]) == full)
    return mixing @ coeffs, infeasible


class TestZeroForcingProperty:
    @pytest.mark.parametrize("kind", ["generic", "dependent", "zero"])
    def test_beams_null_exactly_the_others_span(self, kind):
        rng, n0 = derived_rng(31, "zero-forcing", kind), 1e-2
        for _ in range(300):
            h, infeasible = zero_forcing_instance(rng, kind)
            sdma = sdma_beamformer(BeamProblem(h_matrix=h, weak_set=(), n0=n0))
            assert sdma.infeasible_users == infeasible
            assert sdma.feasible == (not infeasible)
            for user in range(h.shape[1]):
                beam, snr = sdma.beams[:, user], sdma.per_user_snr[user]
                if user in infeasible:
                    assert not np.any(beam) and np.isnan(snr)
                    continue
                others = np.delete(h, user, axis=1)
                residual = h[:, user] - others @ np.linalg.lstsq(others, h[:, user], rcond=None)[0]
                # Far from COLINEAR_TOL, so the verdict does not hinge on rounding.
                assert np.linalg.norm(residual) > 1e-6 * np.linalg.norm(h[:, user])
                assert np.linalg.norm(beam) == pytest.approx(1.0, rel=1e-12)
                for other in range(h.shape[1]):
                    if other != user:
                        assert abs(np.vdot(beam, h[:, other])) <= 1e-10 * np.linalg.norm(h[:, other])
                assert snr == pytest.approx(np.linalg.norm(residual) ** 2 / n0, rel=1e-9)
