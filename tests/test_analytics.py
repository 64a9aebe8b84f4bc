"""Closed-form analytics against independent numerical oracles.

The exponential integral is checked against adaptive quadrature of its
defining integral; distribution moments against symbolic/quadrature
results; latency and tradeoff identities against direct evaluation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from airfed import analytics
from airfed.analytics import (
    ScenarioParams,
    SystemParams,
    TradeoffCurve,
    count_snr_weights,
    cutoff_for_ratio,
    dropped_count_mass,
    exp_integral,
    expected_snr_all_inclusive,
    expected_snr_cell_interior,
    fraction_exploited,
    furthest_snr_weight,
    interior_count_pmf,
    k_in_pmf,
    latency_baa,
    latency_digital,
    latency_reduction_ratio,
    latency_report,
    max_distance_moments,
    mqam_snr_factor,
    p_all_exploited,
    rate_digital_expected,
    receive_snr,
    reliability_quantity_curve,
    snr_gain,
    snr_truncation_curve,
    truncation_ratio,
)

# Reference deployment: 0.1 W budget, 1000 sub-channels, 100 m cell,
# alpha = 3, noise -80 dBm = 1e-11 W.
FIG_PARAMS = SystemParams(p0=0.1, m=1000, b=1e6, alpha=3.0, r_cell=100.0, g_th=0.2, n0=1e-11)


def quad_e1(x: float) -> float:
    """Independent oracle: adaptive quadrature of int_x^inf exp(-t)/t dt."""
    value, _ = integrate.quad(lambda t: math.exp(-t) / t, x, np.inf, limit=400)
    return value


class TestExpIntegral:
    # Frozen from the quadrature oracle above.
    ORACLE_VALUES = {
        0.1: 1.8229239584193715,
        0.5: 0.55977359477614785,
        1.0: 0.21938393439551238,
        2.0: 0.048900510708058224,
    }

    def test_matches_quadrature_oracle_live(self):
        for x in [0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 5.0, 10.0, 30.0]:
            assert abs(exp_integral(x) - quad_e1(x)) < 1e-10

    def test_matches_frozen_oracle_values(self):
        for x, expected in self.ORACLE_VALUES.items():
            assert abs(exp_integral(x) - expected) < 1e-10

    def test_tail_negligible(self):
        assert exp_integral(50.0) < 1e-20

    @pytest.mark.parametrize("x", [0.0, -1.0, -1e-9])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            exp_integral(x)

    def test_strictly_decreasing_and_convex(self):
        xs = np.linspace(0.01, 10.0, 1000)
        values = np.array([exp_integral(float(x)) for x in xs])
        first = np.diff(values)
        assert np.all(first < 0)
        assert np.all(np.diff(first) > 0)


class TestTruncationRatio:
    def test_no_cutoff(self):
        assert truncation_ratio(0.0) == 0.0

    def test_half_at_log_two(self):
        assert truncation_ratio(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_unit_threshold(self):
        assert truncation_ratio(1.0) == pytest.approx(0.6321205588285577, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            truncation_ratio(-0.1)

    def test_inverse_identity_on_open_interval(self):
        for zeta in np.linspace(1e-6, 1 - 1e-6, 500):
            assert abs(truncation_ratio(cutoff_for_ratio(float(zeta))) - zeta) < 1e-12


class TestReceiveSnr:
    def test_decreasing_in_distance(self):
        assert receive_snr(FIG_PARAMS, 100.0) < receive_snr(FIG_PARAMS, 50.0)

    def test_linear_in_power(self):
        doubled = SystemParams(
            p0=0.2, m=1000, b=1e6, alpha=3.0, r_cell=100.0, g_th=0.2, n0=1e-11
        )
        assert receive_snr(doubled, 80.0) == 2.0 * receive_snr(FIG_PARAMS, 80.0)

    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(g_th=0.0)

    def test_reference_point_curve_increasing(self):
        # 0.1 W, 1000 sub-channels, 100 m, -80 dBm: SNR rises monotonically
        # with the tolerated truncation ratio.
        curve = snr_truncation_curve(FIG_PARAMS, 100.0, np.arange(0.1, 0.91, 0.1))
        assert len(curve.points) == 9
        ys = tuple(y for _, y in curve.points)
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_curve_roundtrip_matches_threshold_form(self):
        for g_th in [0.1, 0.5, 1.2]:
            zeta = truncation_ratio(g_th)
            curve = snr_truncation_curve(FIG_PARAMS, 100.0, [zeta])
            direct = receive_snr(replace(FIG_PARAMS, g_th=cutoff_for_ratio(zeta)), 100.0)
            assert curve.points[0][1] == direct

    def test_unbounded_growth_near_full_truncation(self):
        low = snr_truncation_curve(FIG_PARAMS, 100.0, [0.5]).points[0][1]
        high = snr_truncation_curve(FIG_PARAMS, 100.0, [1 - 1e-9]).points[0][1]
        assert high > 1e6 * low

    @pytest.mark.parametrize("zeta", [0.0, 1.0, -0.2, 1.4])
    def test_grid_rejects_boundary(self, zeta):
        with pytest.raises(ValueError):
            snr_truncation_curve(FIG_PARAMS, 100.0, [zeta])


class TestTradeoffCurveType:
    def test_rejects_non_increasing_abscissae(self):
        with pytest.raises(ValueError):
            TradeoffCurve(((0.2, 1.0), (0.2, 2.0)))


class TestInteriorFraction:
    def test_full_cell(self):
        assert fraction_exploited(100.0, 100.0) == 1.0

    def test_square_law(self):
        assert fraction_exploited(50.0, 100.0) == 0.25

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fraction_exploited(101.0, 100.0)


class TestInteriorCountPmf:
    def test_degenerate_full_cell(self):
        assert k_in_pmf(7, 100.0, 100.0, 7) == 1.0
        assert k_in_pmf(7, 100.0, 100.0, 3) == 0.0

    def test_two_device_arithmetic(self):
        assert k_in_pmf(2, 50.0, 100.0, 1) == pytest.approx(0.375, abs=1e-12)

    @pytest.mark.parametrize("k_devices,ratio", [(5, 0.3), (20, 0.5), (200, 0.8), (200, 0.1)])
    def test_pmf_sums_to_one(self, k_devices, ratio):
        total = sum(k_in_pmf(k_devices, ratio * 100.0, 100.0, k) for k in range(k_devices + 1))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("k_devices,ratio", [(5, 0.3), (20, 0.5), (50, 0.9)])
    def test_mean_identity_with_fraction(self, k_devices, ratio):
        r_in, r_cell = ratio * 100.0, 100.0
        mean = sum(k * k_in_pmf(k_devices, r_in, r_cell, k) for k in range(k_devices + 1))
        assert abs(mean / k_devices - fraction_exploited(r_in, r_cell)) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            k_in_pmf(5, 50.0, 100.0, 6)


class TestMaxDistance:
    def test_pdf_normalized(self):
        for k in [1, 5, 20]:
            pdf, _ = max_distance_moments(k, 100.0)
            mass, _ = integrate.quad(pdf, 0.0, 100.0)
            assert abs(mass - 1.0) < 1e-10

    def test_single_device_mean_matches_symbolic_oracle(self):
        # One device: E[r] = int_0^R r * 2r/R^2 dr = (2/3) R.
        pdf, mean = max_distance_moments(1, 90.0)
        assert mean == pytest.approx(2.0 / 3.0 * 90.0, rel=1e-12)
        quad_mean, _ = integrate.quad(lambda r: r * pdf(r), 0.0, 90.0)
        assert quad_mean == pytest.approx(mean, rel=1e-10)

    def test_pdf_at_cell_edge(self):
        for k in [1, 3, 10]:
            pdf, _ = max_distance_moments(k, 100.0)
            assert pdf(100.0) == pytest.approx(2.0 * k / 100.0, rel=1e-12)

    def test_zero_outside_support(self):
        pdf, _ = max_distance_moments(4, 100.0)
        assert pdf(-1.0) == 0.0
        assert pdf(100.5) == 0.0


class TestExpectedSnr:
    def test_no_path_loss_limit(self):
        # alpha -> 0: the prefactor goes to 1 and the cell radius drops out.
        tiny_alpha = 1e-12
        p_small = SystemParams(alpha=tiny_alpha, r_cell=50.0)
        p_large = SystemParams(alpha=tiny_alpha, r_cell=400.0)
        snr_small = expected_snr_all_inclusive(p_small, 10)
        snr_large = expected_snr_all_inclusive(p_large, 10)
        assert snr_small == pytest.approx(snr_large, rel=1e-9)
        assert snr_small == pytest.approx(receive_snr(p_small, 50.0), rel=1e-9)

    def test_prefactor_arithmetic(self):
        ratio = expected_snr_all_inclusive(FIG_PARAMS, 200) / receive_snr(FIG_PARAMS, 100.0)
        assert ratio == pytest.approx(400.0 / 397.0, rel=1e-12)

    def test_convergence_error(self):
        with pytest.raises(ValueError, match="diverges"):
            expected_snr_all_inclusive(SystemParams(alpha=4.0), 2)
        with pytest.raises(ValueError, match="diverges"):
            expected_snr_all_inclusive(FIG_PARAMS, 1)
        # 2K > alpha suffices: int_0^R r^-alpha 2K r^(2K-1) / R^(2K) dr = 8 R^-alpha
        # at K = 2, alpha = 3.5.
        params = SystemParams(alpha=3.5)
        assert expected_snr_all_inclusive(params, 2) == 8.0 * receive_snr(params, params.r_cell)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(2, 1000), alpha=st.floats(0.01, 10.0))
    @example(k=2, alpha=3.5)
    @example(k=5, alpha=9.0)
    def test_all_inclusive_is_the_full_cell_interior_case(self, k, alpha):
        # r_in = r_cell puts all binomial mass at K, so both closed forms
        # read the same furthest-device weight wherever it is finite.
        assume(2 * k > alpha)
        params = SystemParams(alpha=alpha)
        scenario = ScenarioParams(k_devices=k, r_in=params.r_cell, q_dim=1)
        interior, _ = expected_snr_cell_interior(params, scenario)
        assert expected_snr_all_inclusive(params, k) == interior

    def test_interior_degenerate_full_cell(self):
        # r_in = r_cell puts all binomial mass at k = K.
        for k in [5, 20, 200]:
            scenario = ScenarioParams(k_devices=k, r_in=100.0, q_dim=1)
            _, c = expected_snr_cell_interior(FIG_PARAMS, scenario)
            assert c == pytest.approx(2.0 * k / (2.0 * k - 3.0), rel=1e-12)

    def test_interior_scaling_factor_bounds(self):
        # The [1, 4] band holds once the expected interior count is large
        # enough for rounds with < 2 interior devices to be negligible.
        grid = (
            [(200, 0.1 * i) for i in range(1, 10)] + [(200, 1.0)]
            + [(20, 0.1 * i) for i in range(3, 10)] + [(20, 1.0)]
            + [(10, 0.1 * i) for i in range(5, 10)] + [(10, 1.0)]
            + [(5, 0.1 * i) for i in range(5, 10)] + [(5, 1.0)]
        )
        for k, ratio in grid:
            scenario = ScenarioParams(k_devices=k, r_in=float(ratio) * 100.0, q_dim=1)
            _, c = expected_snr_cell_interior(FIG_PARAMS, scenario)
            assert 1.0 <= c <= 4.0, (k, ratio, c)

    @pytest.mark.parametrize(
        "k, ratio, p_fewer", [(5, 0.1, 0.999), (10, 0.3, 0.775), (20, 0.2, 0.81)]
    )
    def test_interior_small_count_underflows_bound_and_states_why(self, k, ratio, p_fewer):
        # Outside the large-count regime the rounds with fewer than two
        # interior devices, which add 0, pull the factor below 1, and
        # dropped_count_mass gives their probability.
        scenario = ScenarioParams(k_devices=k, r_in=ratio * 100.0, q_dim=1)
        _, c = expected_snr_cell_interior(FIG_PARAMS, scenario)
        assert c < 1.0
        p = ratio**2
        p_fewer_than_two, p_infinite_mean = dropped_count_mass(
            interior_count_pmf(k, scenario.r_in, 100.0), count_snr_weights(k, FIG_PARAMS.alpha)
        )
        assert p_fewer_than_two == pytest.approx((1 - p) ** k + k * p * (1 - p) ** (k - 1), rel=1e-12)
        assert p_fewer_than_two == pytest.approx(p_fewer, abs=1e-3)
        # At alpha = 3 every count from 2 up has a finite mean.
        assert p_infinite_mean == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(2, 300),
        ratio=st.floats(1e-3, 1.0),
        alpha=st.floats(0.1, 10.0),
    )
    @example(k=200, ratio=math.sqrt(0.05), alpha=4.0)
    @example(k=5, ratio=0.1, alpha=3.0)
    @example(k=2, ratio=0.5, alpha=1.0)
    def test_interior_factor_is_the_in_order_sum_of_the_law(self, k, ratio, alpha):
        # The reference adds weight times probability in count order from
        # 2 up, as a plain loop; c keeps those bits.  One device has a
        # finite furthest-SNR mean below alpha = 2 but aggregates nothing.
        reference = 0.0
        for j in range(2, k + 1):
            reference += furthest_snr_weight(j, alpha) * k_in_pmf(k, ratio * 100.0, 100.0, j)
        # A factor of 0 makes the expected SNR 0, which is refused.
        assume(reference > 1e-200)
        scenario = ScenarioParams(k_devices=k, r_in=ratio * 100.0, q_dim=1)
        _, c = expected_snr_cell_interior(replace(FIG_PARAMS, alpha=alpha), scenario)
        assert c == reference

    def test_interior_needs_two_devices(self):
        with pytest.raises(ValueError):
            expected_snr_cell_interior(FIG_PARAMS, ScenarioParams(k_devices=1, r_in=50.0, q_dim=1))


class TestSnrGain:
    def test_identity_at_full_cell(self):
        scenario = ScenarioParams(k_devices=20, r_in=100.0, q_dim=1)
        assert snr_gain(FIG_PARAMS, scenario) == 1.0

    def test_increasing_as_interior_shrinks(self):
        gains = [
            snr_gain(FIG_PARAMS, ScenarioParams(k_devices=20, r_in=r, q_dim=1))
            for r in [100.0, 80.0, 60.0, 40.0]
        ]
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_matches_power_law_form(self):
        for ratio in [0.4, 0.6, 0.9]:
            scenario = ScenarioParams(k_devices=50, r_in=ratio * 100.0, q_dim=1)
            gain = snr_gain(FIG_PARAMS, scenario)
            _, c = expected_snr_cell_interior(FIG_PARAMS, scenario)
            a = (2 * 50 - 3.0) / (2 * 50) * c
            assert gain == pytest.approx(a * (1.0 / ratio) ** 3, rel=1e-12)


class TestReliabilityQuantityCurve:
    def test_unit_gain_at_full_data(self):
        curve = reliability_quantity_curve(FIG_PARAMS, 20, [0.5, 1.0])
        assert curve.points[-1][1] == 1.0

    def test_larger_alpha_costs_more(self):
        f_grid = np.arange(0.1, 0.91, 0.1)
        k = 200
        curve3 = reliability_quantity_curve(SystemParams(alpha=3.0), k, f_grid)
        curve4 = reliability_quantity_curve(SystemParams(alpha=4.0), k, f_grid)
        assert all(y4 > y3 for (_, y3), (_, y4) in zip(curve3.points, curve4.points))

    def test_consistent_with_snr_gain(self):
        for f_dat in [0.2, 0.5, 0.8]:
            curve = reliability_quantity_curve(FIG_PARAMS, 30, [f_dat])
            scenario = ScenarioParams(
                k_devices=30, r_in=100.0 * math.sqrt(f_dat), q_dim=1
            )
            assert abs(curve.points[0][1] - snr_gain(FIG_PARAMS, scenario)) < 1e-9

    def test_rejects_nonpositive_fraction(self):
        with pytest.raises(ValueError):
            reliability_quantity_curve(FIG_PARAMS, 20, [0.0])


class TestEverScheduledProbability:
    def test_certain_interior(self):
        assert p_all_exploited(17, 9, 1.0) == 1.0

    def test_single_device_single_round(self):
        assert p_all_exploited(1, 1, 0.37) == pytest.approx(0.37, rel=1e-12)

    def test_pinned_exact_value(self):
        # 200 devices, interior probability 0.25, 31 rounds.
        assert p_all_exploited(200, 31, 0.25) == pytest.approx(0.9735665376730876, rel=1e-12)

    def test_nondecreasing_in_rounds(self):
        values = [p_all_exploited(50, n, 0.2) for n in range(1, 40)]
        assert all(b >= a for a, b in zip(values, values[1:]))


# Physical parameters inside the ranges the config accepts (alpha > 0,
# g_th > 0, target_ber in (0, 0.2), K >= 1), bounded so that the receive
# SNR neither underflows nor overflows.
CONFIG_SYSTEMS = st.builds(
    SystemParams,
    alpha=st.floats(1.0, 6.0),
    g_th=st.floats(0.01, 5.0),
    ber=st.floats(1e-8, 0.19),
)
CONFIG_SCENARIOS = st.builds(
    ScenarioParams,
    k_devices=st.integers(1, 1000),
    r_in=st.just(50.0),
    q_dim=st.integers(1, 582026),
)
# Distances on (0, r_cell], kept clear of 0 where r^alpha underflows.
CELL_DISTANCES = st.floats(1e-3, 100.0)


class TestLatency:
    SCENARIO = ScenarioParams(k_devices=200, r_in=50.0, q_dim=582026)

    @settings(max_examples=200, deadline=None)
    @given(params=CONFIG_SYSTEMS, scenario=CONFIG_SCENARIOS, r=CELL_DISTANCES, r_other=CELL_DISTANCES)
    def test_digital_rises_with_distance(self, params, scenario, r, r_other):
        near, far = sorted((r, r_other))
        assume(far > near * (1.0 + 1e-6))
        assert latency_digital(params, scenario, near) < latency_digital(params, scenario, far)

    @settings(max_examples=200, deadline=None)
    @given(
        params=CONFIG_SYSTEMS,
        scenario=CONFIG_SCENARIOS,
        r_max=CELL_DISTANCES,
        bits=st.lists(st.integers(1, 63), min_size=2, max_size=2, unique=True),
    )
    def test_digital_rises_with_quant_bits(self, params, scenario, r_max, bits):
        low, high = (SystemParams(**{**vars(params), "q_bits": b}) for b in sorted(bits))
        assert latency_digital(low, scenario, r_max) < latency_digital(high, scenario, r_max)

    def test_analog_one_symbol_block(self):
        assert latency_baa(1000, FIG_PARAMS) == FIG_PARAMS.t_s

    def test_analog_padding_rounds_up(self):
        # 582,026 parameters over 1000 sub-channels need 583 OFDM symbols.
        assert latency_baa(582026, FIG_PARAMS) == 583 * FIG_PARAMS.t_s

    def test_analog_independent_of_device_count(self):
        # The signature takes no device count; the same q gives the same
        # latency no matter the scenario population.
        assert latency_baa(10000, FIG_PARAMS) == latency_baa(10000, FIG_PARAMS)

    def test_digital_increasing_in_distance(self):
        near = latency_digital(FIG_PARAMS, self.SCENARIO, 50.0)
        far = latency_digital(FIG_PARAMS, self.SCENARIO, 100.0)
        assert far > near

    def test_digital_linear_in_quant_bits(self):
        p8 = SystemParams(q_bits=8)
        p16 = SystemParams(q_bits=16)
        assert latency_digital(p16, self.SCENARIO, 50.0) == pytest.approx(
            2.0 * latency_digital(p8, self.SCENARIO, 50.0), rel=1e-12
        )

    def test_digital_approximately_linear_in_devices(self):
        for k in [50, 100, 200, 500]:
            t1 = latency_digital(FIG_PARAMS, ScenarioParams(k, 50.0, 582026), 100.0)
            t2 = latency_digital(FIG_PARAMS, ScenarioParams(2 * k, 50.0, 582026), 100.0)
            assert 1.6 <= t2 / t1 <= 2.0

    def test_ratio_linear_in_quant_bits(self):
        p8 = SystemParams(q_bits=8)
        p16 = SystemParams(q_bits=16)
        r8 = latency_reduction_ratio(p8, self.SCENARIO, 50.0)
        r16 = latency_reduction_ratio(p16, self.SCENARIO, 50.0)
        assert r16 == pytest.approx(2.0 * r8, rel=1e-12)

    def test_ratio_matches_quotient_when_q_divides(self):
        scenario = ScenarioParams(k_devices=100, r_in=50.0, q_dim=5000)
        quotient = latency_digital(FIG_PARAMS, scenario, 70.0) / latency_baa(5000, FIG_PARAMS)
        closed = latency_reduction_ratio(FIG_PARAMS, scenario, 70.0)
        assert abs(quotient - closed) / closed < 1e-9

    def test_ratio_scaling_law(self):
        # gamma * log2(K) / K drifts by < 25% across K = 64, 256, 1024.
        values = []
        for k in [64, 256, 1024]:
            scenario = ScenarioParams(k_devices=k, r_in=50.0, q_dim=582026)
            gamma = latency_reduction_ratio(SystemParams(g_th=0.1), scenario, 100.0)
            values.append(gamma * math.log2(k) / k)
        assert (max(values) - min(values)) / min(values) < 0.25

    def test_ratio_in_reported_band(self):
        # Reference experiment parameters: Q = 16, BER = 1e-3, M = 1000,
        # P0 = 0.1 W, alpha = 3, -80 dBm noise, interior radius half the
        # cell: the analog advantage spans roughly 10x to 1000x.
        for g_th in [0.1, 0.2, 0.5]:
            params = SystemParams(g_th=g_th)
            for k in [10, 20, 50, 100, 200]:
                scenario = ScenarioParams(k_devices=k, r_in=50.0, q_dim=582026)
                gamma = latency_reduction_ratio(params, scenario, 50.0)
                assert 10.0 <= gamma <= 1000.0, (g_th, k, gamma)

    def test_ratio_increases_as_ber_drops(self):
        ratios = [
            latency_reduction_ratio(SystemParams(ber=ber), self.SCENARIO, 50.0)
            for ber in [1e-2, 1e-3, 1e-4, 1e-5]
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_report_bundles_all_three(self):
        report = latency_report(FIG_PARAMS, self.SCENARIO, 50.0)
        assert report.t_analog_s == latency_baa(582026, FIG_PARAMS)
        assert report.t_digital_s == latency_digital(FIG_PARAMS, self.SCENARIO, 50.0)
        assert report.reduction_ratio == latency_reduction_ratio(FIG_PARAMS, self.SCENARIO, 50.0)


class TestDigitalRate:
    def test_vanishes_under_aggressive_cutoff(self):
        gentle = rate_digital_expected(SystemParams(g_th=0.2), 20, 80.0)
        harsh = rate_digital_expected(SystemParams(g_th=50.0), 20, 80.0)
        assert harsh < gentle * 1e-15

    def test_decreasing_in_distance(self):
        rates = [rate_digital_expected(FIG_PARAMS, 20, r) for r in [20.0, 50.0, 90.0]]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    # Without ``snr=``, the receive-power closed form checks every radius.
    @pytest.mark.parametrize("r_k", [0.0, -5.0, [30.0, 0.0], [30.0, -5.0]])
    def test_nonpositive_radius_rejected(self, r_k):
        with pytest.raises(ValueError, match="must be positive"):
            rate_digital_expected(FIG_PARAMS, 20, r_k)

    def test_mqam_factor_value(self):
        # -1.5 / ln(5 * 1e-3), direct arithmetic.
        assert mqam_snr_factor(1e-3) == pytest.approx(0.2831087487266323, rel=1e-12)

    @pytest.mark.parametrize("ber", [0.2, 0.5, 0.999])
    def test_ber_bound_enforced(self, ber):
        with pytest.raises(ValueError):
            mqam_snr_factor(ber)
        with pytest.raises(ValueError):
            rate_digital_expected(SystemParams(ber=ber), 20, 50.0)

    def test_expected_rate_matches_instantaneous_mean(self):
        # Simulation oracle: average the cutoff-gated instantaneous rate
        # over Rayleigh gain draws and compare with the closed form.
        params = FIG_PARAMS
        k, r_k = 20, 60.0
        rng = np.random.default_rng(2024)
        gains = rng.exponential(1.0, size=100000)
        snr = k * params.p0 / (params.m * r_k**params.alpha * exp_integral(params.g_th)) / params.n0
        per_channel = np.where(
            gains >= params.g_th,
            params.b_sub * np.log2(1.0 + mqam_snr_factor(params.ber) * snr),
            0.0,
        )
        empirical = (params.m / k) * per_channel.mean()
        assert empirical == pytest.approx(rate_digital_expected(params, k, r_k), rel=0.01)


class TestSystemParamsInvariants:
    def test_symbol_duration_times_bandwidth(self):
        for m, b in [(1000, 1e6), (64, 20e6), (1200, 30.72e6)]:
            params = SystemParams(m=m, b=b)
            assert params.t_s * params.b == pytest.approx(m, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p0": 0.0},
            {"m": 0},
            {"alpha": -1.0},
            {"r_cell": 0.0},
            {"g_th": -0.5},
            {"n0": 0.0},
            {"ber": 0.0},
            {"ber": 1.0},
            {"q_bits": 0},
            {"q_bits": 64},  # codes would overflow the quantizer's uint64
            {"ber": 0.2},  # the MQAM rate fit needs ber < 0.2
            {"ber": 0.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ScenarioParams(k_devices=0, r_in=10.0, q_dim=1)
        with pytest.raises(ValueError):
            ScenarioParams(k_devices=1, r_in=-1.0, q_dim=1)
