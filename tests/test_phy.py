"""Physical-layer round simulation against brute-force references.

The aggregation oracle reconstructs the expected output by plain masked
summation in device order; the power audit checks the long-run constraint
empirically; normalization is checked by composition.
"""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airfed import analytics, phy
from airfed.analytics import ScenarioParams, SystemParams, exp_integral, truncation_ratio
from airfed.config import dbm_to_watts
from airfed.network import sample_radii
from airfed.phy import (
    NormalizationSpec,
    align_rho0,
    baa_round,
    denormalize,
    digital_round,
    draw_channels,
    normalization_from_values,
    normalize_updates,
)
from airfed.rng import BLOCK_ENTRIES, derived_rng
from conftest import traced_peak

PARAMS = SystemParams(p0=0.1, m=1000, b=1e6, alpha=3.0, r_cell=100.0, g_th=0.5, n0=1e-11)


def masked_mean_oracle(updates, masks, divisor):
    """Brute-force reference: accumulate surviving terms in device order."""
    k, q = updates.shape
    total = np.zeros(q)
    for i in range(k):
        total += updates[i] * masks[i]
    return total / divisor


def allocating_baa_round(updates, radii, params, rng, fading, noise):
    """The analog round as first streamed: fresh arrays every OFDM symbol,
    np.where masking and counts taken per symbol.  Returns the aggregate,
    tx_power, truncation_fraction, contributor_counts and truncation_mask
    that :func:`baa_round` must reproduce byte for byte."""
    k, q = updates.shape
    rho0 = align_rho0(radii, params)
    m = params.m
    g_th = params.g_th if fading else 0.0
    received = np.empty(q)
    counts = np.empty(q, dtype=np.intp)
    sent_mask = np.empty((k, q), dtype=bool)
    inverse_gain_sum = np.zeros(k)
    terms = np.zeros((k, max(min(m, q), 2)))
    for lo in range(0, q, m):
        width = min(m, q - lo)
        gains = draw_channels(k, width, rng) if fading else np.ones((k, width))
        sent = gains >= g_th
        sent_mask[:, lo : lo + width] = sent
        terms[:, :width] = np.where(sent, updates[:, lo : lo + width], 0.0)
        received[lo : lo + width] = terms.sum(axis=0)[:width]
        counts[lo : lo + width] = sent.sum(axis=0)
        inverse_gain_sum += (sent / np.maximum(gains, g_th)).sum(axis=1)
    if noise:
        received += rng.normal(0.0, math.sqrt(params.n0 / 2.0), q) / math.sqrt(rho0)
    tx_power = m * rho0 * radii**params.alpha * inverse_gain_sum / q
    return received / k, tx_power, 1.0 - sent_mask.mean(axis=1), counts, sent_mask


class TestDrawChannels:
    def test_unit_mean_power(self):
        gains = draw_channels(10, 100_000, derived_rng(1, "pw"))
        assert np.mean(gains) == pytest.approx(1.0, rel=0.005)

    def test_cutoff_probability(self):
        gains = draw_channels(10, 100_000, derived_rng(1, "cut"))
        empirical = np.mean(gains < 0.5)
        assert empirical == pytest.approx(truncation_ratio(0.5), abs=0.005)

    def test_same_seed_identical(self):
        a = draw_channels(3, 64, derived_rng(2, "det"))
        b = draw_channels(3, 64, derived_rng(2, "det"))
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            draw_channels(0, 10, derived_rng(0))


class TestAlignRho0:
    def test_single_device_hits_power_budget_bound(self):
        # Alone, the device transmits at full budget: rho0 equals the
        # per-distance maximum p0 / (m r^alpha E1(g_th)).
        r = 42.0
        rho0 = align_rho0([r], PARAMS)
        bound = PARAMS.p0 / (PARAMS.m * r**PARAMS.alpha * exp_integral(PARAMS.g_th))
        assert rho0 == pytest.approx(bound, rel=1e-12)

    def test_furthest_device_at_equality_near_at_margin(self):
        # Two devices: the near one backs off, the far one averages to its
        # full budget (checked over many channel draws).
        radii = np.array([30.0, 90.0])
        rho0 = align_rho0(radii, PARAMS)
        rng = derived_rng(3, "audit")
        gains = rng.exponential(1.0, size=(2, 100000))
        per_entry = np.where(
            gains >= PARAMS.g_th, rho0 * radii[:, None] ** PARAMS.alpha / gains, 0.0
        )
        avg_power = PARAMS.m * per_entry.mean(axis=1)
        assert avg_power[0] < PARAMS.p0
        assert avg_power[1] == pytest.approx(PARAMS.p0, rel=0.02)

    def test_interior_restriction_raises_rho0(self):
        radii = np.array([20.0, 50.0, 95.0])
        all_in = align_rho0(radii, PARAMS)
        interior = align_rho0(radii[:2], PARAMS)
        assert interior > all_in

    # rho0 depends on the furthest device alone, so a bad distance beside a
    # valid furthest one is caught by align_rho0's own check.
    @pytest.mark.parametrize("bad", [0.0, -0.0, -5.0])
    def test_nonpositive_distance_rejected(self, bad):
        with pytest.raises(ValueError, match="distances must be positive"):
            align_rho0([10.0, bad], PARAMS)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            align_rho0([], PARAMS)


class TestBaaRound:
    def test_noiseless_unfaded_equals_plain_mean(self):
        rng = derived_rng(5, "updates")
        updates = rng.normal(0.0, 1.0, size=(7, 2500))
        radii = np.linspace(20.0, 90.0, 7)
        aggregate, diag = baa_round(
            updates, radii, PARAMS, derived_rng(5, "round"), fading=False, noise=False
        )
        oracle = masked_mean_oracle(updates, np.ones_like(updates, dtype=bool), 7)
        assert np.max(np.abs(aggregate - oracle)) < 1e-12
        assert np.all(diag.truncation_fraction == 0.0)

    # q = 2500 leaves the last OFDM symbol partly unused (M = 1000).
    @pytest.mark.parametrize("k, q", [(5, 3000), (5, 2500), (1, 2500)])
    def test_noiseless_masked_equals_bruteforce_exactly(self, k, q):
        rng = derived_rng(6, "updates")
        updates = rng.normal(0.0, 1.0, size=(k, q))
        radii = np.linspace(25.0, 95.0, k)
        aggregate, diag = baa_round(updates, radii, PARAMS, derived_rng(6, "round"), noise=False)
        oracle = masked_mean_oracle(updates, diag.truncation_mask, k)
        assert np.array_equal(aggregate, oracle)

    def test_truncation_fraction_tracks_cutoff_law(self):
        # Law of large numbers at q = 1e5: per-device mask fraction within
        # one percentage point of 1 - exp(-g_th).
        updates = np.zeros((3, 100000))
        radii = np.array([30.0, 60.0, 90.0])
        _, diag = baa_round(updates, radii, PARAMS, derived_rng(8, "lln"), noise=False)
        expected = truncation_ratio(PARAMS.g_th)
        assert np.all(np.abs(diag.truncation_fraction - expected) < 0.01)

    def test_power_audit_within_budget(self):
        updates = np.zeros((4, 100000))
        radii = np.array([25.0, 50.0, 75.0, 100.0])
        _, diag = baa_round(updates, radii, PARAMS, derived_rng(9, "power"), noise=False)
        assert np.all(diag.tx_power <= PARAMS.p0 * 1.02)
        assert diag.tx_power[-1] == pytest.approx(PARAMS.p0, rel=0.02)

    def test_latency_matches_closed_form(self):
        updates = np.zeros((2, 2500))
        _, diag = baa_round(updates, [40.0, 80.0], PARAMS, derived_rng(10, "lat"), noise=False)
        assert diag.latency_s == analytics.latency_baa(2500, PARAMS)

    def test_noise_scale(self):
        # With zero updates the aggregate is pure noise of variance
        # n0 / (2 rho0 K^2) per entry.
        k, q = 5, 200000
        updates = np.zeros((k, q))
        radii = np.linspace(30.0, 90.0, k)
        aggregate, diag = baa_round(updates, radii, PARAMS, derived_rng(11, "noise"), fading=False)
        expected_std = math.sqrt(PARAMS.n0 / 2.0 / diag.rho0) / k
        assert aggregate.std() == pytest.approx(expected_std, rel=0.02)

    # The aggregate-error law.  For i.i.d. N(0, 1) symbols, truncation
    # drops each term with probability zeta = 1 - e^-g_th and the server
    # divides by K, so e = K (a_hat - a_bar) is minus a sum of K
    # Bernoulli(zeta)-masked symbols plus noise of variance
    # s2 = n0 / (2 rho0).  Hence E[e^2] = K zeta + s2, and from the fourth
    # moments Var[e^2] = 3 K zeta (1 - zeta) + 2 (K zeta + s2)^2.  Entries
    # draw independent gains, so the mean over q entries has standard error
    # sqrt(Var[e^2] / q) / K^2.
    @pytest.mark.parametrize(
        "k, g_th, noise_dbm, alpha",
        [(10, 0.2, -80.0, 3.0), (50, 1.0, -60.0, 3.0), (4, 0.05, -50.0, 4.0)],
    )
    def test_aggregate_error_follows_the_truncation_and_noise_law(self, k, g_th, noise_dbm, alpha):
        q = 100_000
        params = replace(PARAMS, g_th=g_th, n0=dbm_to_watts(noise_dbm), alpha=alpha)
        updates = derived_rng(12, "law", "updates", k).standard_normal((k, q))
        radii = sample_radii(k, params.r_cell, derived_rng(12, "law", "radii", k))
        aggregate, diag = baa_round(updates, radii, params, derived_rng(12, "law", "round", k))
        mse = float(np.mean(np.square(aggregate - updates.mean(axis=0))))
        zeta = truncation_ratio(g_th)
        s2 = params.n0 / (2.0 * diag.rho0)
        expected = (k * zeta + s2) / k**2
        variance = 3.0 * k * zeta * (1.0 - zeta) + 2.0 * (k * zeta + s2) ** 2
        assert abs(mse - expected) <= 5.0 * math.sqrt(variance / q) / k**2

    # q spans a partial first symbol, whole symbols and ragged last symbols.
    # The examples pin one-entry symbols, which numpy would sum pairwise
    # rather than in device order.
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 40),
        q=st.integers(1, 3 * PARAMS.m + 17),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=40, q=1, seed=0)
    @example(k=40, q=PARAMS.m + 1, seed=0)
    def test_streamed_round_invariants(self, k, q, seed):
        updates = derived_rng(seed, "updates").normal(0.0, 1.0, size=(k, q))
        radii = np.linspace(25.0, 95.0, k)

        plain, _ = baa_round(
            updates, radii, PARAMS, derived_rng(seed, "round"), fading=False, noise=False
        )
        assert np.max(np.abs(plain - updates.mean(axis=0))) < 1e-12

        aggregate, diag = baa_round(updates, radii, PARAMS, derived_rng(seed, "round"), noise=False)
        mask = diag.truncation_mask
        assert mask.shape == (k, q)
        assert np.array_equal(diag.contributor_counts, mask.sum(axis=0))
        assert np.array_equal(diag.truncation_fraction, 1.0 - mask.mean(axis=1))
        assert np.array_equal(aggregate, masked_mean_oracle(updates, mask, k))

    # q = 1, q < M, q = M + 1 and several symbols, some ragged; signed zeros
    # check that a truncated entry adds +0.0 whatever its sign, as np.where
    # gives, and that a sent -0.0 stays -0.0 when noise is off.
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 40),
        q=st.integers(1, 3 * PARAMS.m + 17),
        seed=st.integers(0, 2**32 - 1),
        fading=st.booleans(),
        noise=st.booleans(),
        zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @example(k=1, q=1, seed=0, fading=True, noise=False, zero_frac=1.0)
    @example(k=40, q=1, seed=1, fading=True, noise=True, zero_frac=0.3)
    @example(k=3, q=PARAMS.m // 2, seed=2, fading=False, noise=False, zero_frac=1.0)
    @example(k=7, q=PARAMS.m + 1, seed=3, fading=True, noise=False, zero_frac=1.0)
    @example(k=2, q=3 * PARAMS.m, seed=4, fading=True, noise=False, zero_frac=0.3)
    def test_in_place_round_equals_allocating_round_bytewise(self, k, q, seed, fading, noise, zero_frac):
        rng = derived_rng(seed, "updates")
        updates = rng.normal(0.0, 1.0, size=(k, q))
        zeroed = rng.random((k, q)) < zero_frac
        updates[zeroed] = np.copysign(0.0, updates[zeroed])
        radii = np.linspace(25.0, 95.0, k)
        aggregate, diag = baa_round(
            updates, radii, PARAMS, derived_rng(seed, "round"), fading=fading, noise=noise
        )
        got = (
            aggregate,
            diag.tx_power,
            diag.truncation_fraction,
            diag.contributor_counts,
            diag.truncation_mask,
        )
        expected = allocating_baa_round(
            updates, radii, PARAMS, derived_rng(seed, "round"), fading, noise
        )
        for actual, oracle in zip(got, expected):
            assert actual.dtype == oracle.dtype and actual.shape == oracle.shape
            assert actual.tobytes() == oracle.tobytes()

    # M not a multiple of 8 pads each packed symbol to ceil(M/8) bytes; q
    # below M, at one symbol plus one entry and with a ragged last symbol.
    @pytest.mark.parametrize("m", [5, 7])
    @pytest.mark.parametrize("q_of_m", [lambda m: m - 2, lambda m: m + 1, lambda m: 3 * m + 2])
    @pytest.mark.parametrize("fading", [True, False])
    def test_round_with_m_not_a_multiple_of_8_equals_allocating_round_bytewise(self, m, q_of_m, fading):
        params = replace(PARAMS, m=m)
        k, q = 6, q_of_m(m)
        updates = derived_rng(26, "updates").normal(0.0, 1.0, size=(k, q))
        radii = np.linspace(25.0, 95.0, k)
        aggregate, diag = baa_round(updates, radii, params, derived_rng(26, "round"), fading=fading)
        got = (
            aggregate,
            diag.tx_power,
            diag.truncation_fraction,
            diag.contributor_counts,
            diag.truncation_mask,
        )
        expected = allocating_baa_round(updates, radii, params, derived_rng(26, "round"), fading, True)
        for actual, oracle in zip(got, expected):
            assert actual.dtype == oracle.dtype and actual.shape == oracle.shape
            assert actual.tobytes() == oracle.tobytes()

    def test_truncated_entry_adds_nothing_whatever_it_holds(self):
        # A truncated device sends nothing, so an inf it holds reaches the
        # aggregate only where it was sent.
        updates = derived_rng(24, "updates").normal(0.0, 1.0, size=(3, 2500))
        updates[0] = np.inf
        radii = np.array([30.0, 60.0, 90.0])
        aggregate, diag = baa_round(updates, radii, PARAMS, derived_rng(24, "round"), noise=False)
        expected = allocating_baa_round(updates, radii, PARAMS, derived_rng(24, "round"), True, False)
        assert aggregate.tobytes() == expected[0].tobytes()
        assert np.array_equal(np.isinf(aggregate), diag.truncation_mask[0])

    def test_working_memory_below_one_float_matrix(self):
        # The round streams one OFDM symbol at a time: its traced peak stays
        # below the bytes of one float64 (K, q) array.
        k, q = 50, 20000
        updates = derived_rng(23, "updates").normal(0.0, 1.0, size=(k, q))
        radii = np.linspace(25.0, 95.0, k)
        assert traced_peak(baa_round, updates, radii, PARAMS, derived_rng(23, "round")) < 8 * k * q

    def test_working_memory_is_the_packed_mask_plus_symbol_blocks(self):
        # 40 OFDM symbols of 200 devices: a bool (K, q) mask would take 8 MB,
        # more than all else the round allocates.  Packed, it takes K q / 8
        # bytes; beside it the round holds a few float64 (K, M) blocks and
        # q-vectors.
        k, q, m = 200, 40_000, PARAMS.m
        updates = derived_rng(25, "updates").normal(0.0, 1.0, size=(k, q))
        radii = np.linspace(25.0, 95.0, k)
        bound = k * q // 8 + 3 * 8 * k * m + 6 * 8 * q
        assert traced_peak(baa_round, updates, radii, PARAMS, derived_rng(25, "round")) < bound

    @pytest.mark.parametrize("aggregation", ["baa", "digital"])
    def test_dimension_mismatch_rejected(self, aggregation):
        def run(updates, radii):
            if aggregation == "baa":
                return baa_round(updates, radii, PARAMS, derived_rng(0))
            scenario = ScenarioParams(k_devices=2, r_in=50.0, q_dim=4)
            return digital_round(updates, radii, PARAMS, scenario, derived_rng(0))

        with pytest.raises(ValueError):
            run([np.zeros(4), np.zeros(5)], [10.0, 20.0])
        with pytest.raises(ValueError, match=r"radii must have shape \(2,\), got \(1,\)"):
            run(np.zeros((2, 4)), [10.0])
        # An update with no entries, before any 0 / 0 in the power audit.
        with pytest.raises(ValueError, match=r"nonempty \(k, q\) matrix"):
            run(np.zeros((3, 0)), [10.0, 20.0, 30.0])


class TestGainPrefetch:
    """Rounds whose OFDM symbols carry at least ``BLOCK_ENTRIES // 2`` gains
    draw the next symbol's gains on a worker thread."""

    # The fewest devices whose M-wide symbols reach the threshold.
    K_THREADED = BLOCK_ENTRIES // 2 // PARAMS.m + 1

    @staticmethod
    def round_bytes(k, q, params, seed, fading=True, noise=True):
        updates = derived_rng(seed, "updates").normal(0.0, 1.0, size=(k, q))
        radii = np.linspace(25.0, 95.0, k)
        aggregate, diag = baa_round(
            updates, radii, params, derived_rng(seed, "round"), fading=fading, noise=noise
        )
        arrays = (aggregate, diag.tx_power, diag.truncation_fraction, diag.contributor_counts, diag.sent_bits)
        return b"".join(a.tobytes() for a in arrays)

    def test_concurrent_rounds_return_their_serial_bytes(self):
        # Three callers, each with its own Generator, run pipelined rounds at
        # the same time, with the interpreter switching threads as often as
        # it can: each gets the bytes its round gives alone.  A draw into a
        # buffer the caller still reads, or out of stream order, changes them.
        k, q = self.K_THREADED, 5 * PARAMS.m + 17
        alone = {seed: self.round_bytes(k, q, PARAMS, seed) for seed in (31, 32, 33)}
        barrier = threading.Barrier(len(alone))
        got = {seed: [] for seed in alone}

        def run(seed):
            barrier.wait()
            for _ in range(3):
                got[seed].append(self.round_bytes(k, q, PARAMS, seed))

        callers = [threading.Thread(target=run, args=(seed,)) for seed in alone]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == {seed: [alone[seed]] * 3 for seed in alone}

    @pytest.mark.parametrize("failing_call", [2, 4])
    def test_draw_error_reaches_the_caller_and_stops_the_worker(self, monkeypatch, failing_call):
        # Call 1 draws symbol 0 on the caller; later calls run on the worker.
        real_draw, calls = phy.draw_channels, []

        def draw_failing_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing_call:
                raise RuntimeError("draw failed")
            return real_draw(*args, **kwargs)

        monkeypatch.setattr(phy, "draw_channels", draw_failing_once)
        k, q = self.K_THREADED, 6 * PARAMS.m
        updates = derived_rng(33, "updates").normal(0.0, 1.0, size=(k, q))
        radii = np.linspace(25.0, 95.0, k)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            baa_round(updates, radii, PARAMS, derived_rng(33, "round"))
        assert threading.active_count() == threads_before
        assert len(calls) == failing_call
        # The same stream runs clean through the patched draw next time.
        aggregate, diag = baa_round(updates, radii, PARAMS, derived_rng(33, "round"))
        expected = allocating_baa_round(updates, radii, PARAMS, derived_rng(33, "round"), True, True)
        assert aggregate.tobytes() == expected[0].tobytes()
        assert diag.truncation_mask.tobytes() == expected[4].tobytes()

    def test_caller_error_stops_the_worker(self):
        # inf and -inf sent on one sub-channel sum to nan, which the
        # caller's errstate turns into an error mid-round.
        k, q = self.K_THREADED, 6 * PARAMS.m
        updates = derived_rng(34, "updates").normal(0.0, 1.0, size=(k, q))
        updates[: k // 2, 3 * PARAMS.m] = np.inf
        updates[k // 2 :, 3 * PARAMS.m] = -np.inf
        threads_before = threading.active_count()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            baa_round(updates, np.linspace(25.0, 95.0, k), PARAMS, derived_rng(34, "round"))
        assert threading.active_count() == threads_before

    def test_rounds_below_the_threshold_start_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        # Many symbols of 50 gains; one fl-desk-sized symbol; and no fading.
        self.round_bytes(10, 170, replace(PARAMS, m=5), 35)
        self.round_bytes(200, 170, PARAMS, 35)
        self.round_bytes(self.K_THREADED, 3 * PARAMS.m, PARAMS, 35, fading=False)
        with pytest.raises(AssertionError, match="a thread was started"):
            self.round_bytes(self.K_THREADED, 3 * PARAMS.m, PARAMS, 35)


class TestNormalization:
    def test_roundtrip(self):
        rng = derived_rng(12, "norm")
        values = rng.normal(3.0, 2.5, size=1000)
        spec = normalization_from_values(values)
        assert np.max(np.abs(denormalize(normalize_updates(values, spec), spec, 1) - values)) < 1e-10

    def test_constant_vector_gets_unit_std(self):
        constant = np.full(64, 2.5)
        spec = normalization_from_values(constant)
        assert spec.std == 1.0
        assert np.all(normalize_updates(constant, spec) == 0.0)
        assert np.all(denormalize(normalize_updates(constant, spec), spec, 1) == constant)

    def test_shared_spec_is_deterministic(self):
        rng = derived_rng(13, "spec")
        model = rng.normal(0.0, 1.0, size=128)
        assert normalization_from_values(model) == normalization_from_values(model)

    def test_sum_space_count(self):
        spec = NormalizationSpec(mean=1.5, std=2.0)
        vectors = np.array([[2.0, 4.0], [6.0, 8.0]])
        summed = normalize_updates(vectors, spec).sum(axis=0)
        assert np.allclose(denormalize(summed, spec, 2), vectors.sum(axis=0), atol=1e-12)

    def test_end_to_end_composition(self):
        # Noiseless unfaded channel on normalized symbols, then denormalize:
        # recovers the plain model average.
        rng = derived_rng(14, "compose")
        models = rng.normal(0.3, 1.7, size=(6, 500))
        spec = normalization_from_values(models[0])
        symbols = normalize_updates(models, spec)
        aggregate, _ = baa_round(
            symbols, np.linspace(20, 80, 6), PARAMS, derived_rng(14, "round"),
            fading=False, noise=False,
        )
        assert np.max(np.abs(denormalize(aggregate, spec, 1) - models.mean(axis=0))) < 1e-9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NormalizationSpec(mean=0.0, std=0.0)
        with pytest.raises(ValueError):
            NormalizationSpec(mean=0.0, std=math.inf)
        with pytest.raises(ValueError):
            NormalizationSpec(mean=math.nan, std=1.0)

    @pytest.mark.parametrize("model", [[1.0, math.inf], [math.nan, 1.0], [1e200, -1e200]])
    def test_non_finite_model_is_an_error(self, model):
        # An infinite or nan entry makes the mean non-finite; entries whose
        # squares overflow make the std infinite.
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="must be finite"):
            normalization_from_values(np.array(model))

    @pytest.mark.parametrize(
        "model", [[1.0, math.inf], [-math.inf, 1.0], [math.nan, 1.0], [math.inf, -math.inf]]
    )
    def test_non_finite_entry_is_an_error_without_errstate(self, model):
        # The nan that numpy forms from an inf entry raises no warning, so the
        # spec's ValueError is what the caller sees.
        with pytest.raises(ValueError, match="must be finite"):
            normalization_from_values(np.array(model))

    def test_overflow_follows_the_callers_errstate(self):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            normalization_from_values(np.array([1e200, -1e200]))


class TestDigitalRound:
    def test_update_dimension_must_match_the_scenario(self):
        scenario = ScenarioParams(k_devices=2, r_in=50.0, q_dim=4)
        with pytest.raises(ValueError, match="updates have dimension 5, scenario expects 4"):
            digital_round(np.zeros((2, 5)), [10.0, 20.0], PARAMS, scenario, derived_rng(0))

    @pytest.mark.parametrize(
        "prob, valid", [(-0.5, False), (math.nan, False), (1.5, False), (0.0, True), (1.0, True)]
    )
    def test_bit_flip_prob_must_be_a_probability(self, prob, valid):
        scenario = ScenarioParams(k_devices=2, r_in=50.0, q_dim=4)
        args = (np.zeros((2, 4)), [10.0, 20.0], PARAMS, scenario, derived_rng(0))
        if valid:
            digital_round(*args, bit_flip_prob=prob)
        else:
            with pytest.raises(ValueError, match=r"bit_flip_prob must lie in \[0, 1\]"):
                digital_round(*args, bit_flip_prob=prob)

    def test_fine_quantization_recovers_mean(self):
        rng = derived_rng(15, "dig")
        updates = rng.normal(0.0, 1.0, size=(6, 4000))
        radii = np.linspace(20.0, 95.0, 6)
        params = SystemParams(q_bits=32, g_th=0.5)
        scenario = ScenarioParams(k_devices=6, r_in=50.0, q_dim=4000)
        result = digital_round(updates, radii, params, scenario, derived_rng(15, "round"))
        exact = updates.mean(axis=0)
        scale = np.abs(exact).max()
        assert np.max(np.abs(result.aggregate - exact)) / scale < 1e-5

    def test_round_latency_matches_closed_form(self):
        rng = derived_rng(16, "dig")
        k, q = 8, 3000
        updates = rng.normal(0.0, 1.0, size=(k, q))
        radii = np.linspace(20.0, 95.0, k)
        scenario = ScenarioParams(k_devices=k, r_in=50.0, q_dim=q)
        result = digital_round(updates, radii, PARAMS, scenario, derived_rng(16, "round"))
        closed = analytics.latency_digital(PARAMS, scenario, float(radii.max()))
        assert abs(result.round_latency_s - closed) / closed < 1e-9

    def test_round_latency_equals_closed_form_exactly(self):
        # The straggler's bits / rate and latency_digital at the furthest
        # radius are one expression, so they agree bit for bit.
        k, q = 200, 4
        updates = derived_rng(20, "dig").normal(0.0, 1.0, size=(k, q))
        scenario = ScenarioParams(k_devices=k, r_in=50.0, q_dim=q)
        for draw in range(120):
            radii = 100.0 * np.sqrt(derived_rng(20, "radii", draw).random(k))
            result = digital_round(updates, radii, PARAMS, scenario, derived_rng(20, "round", draw))
            assert result.round_latency_s == analytics.latency_digital(PARAMS, scenario, radii.max())

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(2.0, 4.0),
        g_th=st.floats(0.0, 3.0, exclude_min=True),
        ber=st.floats(1e-6, 0.1),
        radii=st.lists(st.floats(0.0, PARAMS.r_cell, exclude_min=True), min_size=1, max_size=300),
    )
    def test_rate_over_radius_vector_equals_scalar_calls(self, alpha, g_th, ber, radii):
        # g_th spans both exp_integral branches (below and above 1).  Radii
        # near 0 give an infinite SNR, which raises ValueError: the vector
        # call raises exactly when some scalar call does.
        params = replace(PARAMS, alpha=alpha, g_th=g_th, ber=ber)
        k, q = len(radii), 2
        scenario = ScenarioParams(k_devices=k, r_in=50.0, q_dim=q)
        vector = np.array(radii)
        scalar = []
        for r in radii:
            try:
                scalar.append(analytics.rate_digital_expected(params, k, r))
            except ValueError:
                with pytest.raises(ValueError, match="not a positive, finite, normal float"):
                    analytics.rate_digital_expected(params, k, vector)
                with pytest.raises(ValueError, match="not a positive, finite, normal float"):
                    digital_round(np.zeros((k, q)), vector, params, scenario, derived_rng(22, "round"))
                return
        rates = analytics.rate_digital_expected(params, k, vector)
        result = digital_round(np.zeros((k, q)), vector, params, scenario, derived_rng(22, "round"))
        closed = analytics.latency_digital(params, scenario, max(radii))
        assert np.array_equal(rates, scalar)
        assert result.round_latency_s == closed

    def test_widest_quantizer_within_one_step(self):
        rng = derived_rng(21, "dig")
        updates = rng.normal(0.0, 1.0, size=(4, 2000))
        params = SystemParams(q_bits=63, g_th=0.5)
        scenario = ScenarioParams(k_devices=4, r_in=50.0, q_dim=2000)
        radii = np.linspace(30.0, 90.0, 4)
        result = digital_round(updates, radii, params, scenario, derived_rng(21, "round"))
        span = updates.max() - updates.min()
        # The 63-bit step lies below double precision, so the bound adds the
        # dequantizer's own rounding (a few ulps of the span).
        bound = span / ((1 << 63) - 1) + 4 * np.finfo(float).eps * span
        assert np.max(np.abs(result.aggregate - updates.mean(axis=0))) <= bound

    def test_latency_monotone_in_distance(self):
        rng = derived_rng(17, "dig")
        k = 5
        updates = rng.normal(0.0, 1.0, size=(k, 100))
        radii = np.array([20.0, 35.0, 50.0, 70.0, 95.0])
        scenario = ScenarioParams(k_devices=k, r_in=50.0, q_dim=100)
        result = digital_round(updates, radii, PARAMS, scenario, derived_rng(17, "round"))
        assert np.all(np.diff(result.per_device_latency_s) > 0)
        assert result.round_latency_s == result.per_device_latency_s[-1]

    def test_bit_flips_perturb_aggregate(self):
        rng = derived_rng(18, "dig")
        updates = rng.normal(0.0, 1.0, size=(4, 500))
        radii = np.linspace(30.0, 90.0, 4)
        scenario = ScenarioParams(k_devices=4, r_in=50.0, q_dim=500)
        clean = digital_round(updates, radii, PARAMS, scenario, derived_rng(18, "round"))
        noisy = digital_round(
            updates, radii, PARAMS, scenario, derived_rng(18, "round"), bit_flip_prob=0.01
        )
        assert not np.array_equal(clean.aggregate, noisy.aggregate)
        assert np.array_equal(clean.per_device_latency_s, noisy.per_device_latency_s)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 40),
        m=st.integers(1, 64),
        q_frac=st.floats(0.0, 1.0),
        q_bits=st.integers(1, 63),
        spread=st.sampled_from([0.0, 1e-9, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=40, m=64, q_frac=64 / 208, q_bits=16, spread=1.0, seed=0)  # q = m + 1
    @example(k=40, m=64, q_frac=62 / 208, q_bits=16, spread=1.0, seed=0)  # q < m
    @example(k=40, m=1000, q_frac=1000 / 3016, q_bits=63, spread=1.0, seed=0)  # q = M + 1
    def test_blockwise_aggregate_equals_full_matrix_quantizer(self, k, m, q_frac, q_bits, spread, seed):
        # q spans [1, 3 m + 17]: one column, short final blocks of every
        # width (a single column included), constant and near-constant input.
        q = 1 + round(q_frac * (3 * m + 16))
        mat = 0.1 + spread * derived_rng(seed, "dig").normal(0.0, 1.0, size=(k, q))
        params = replace(PARAMS, m=m, q_bits=q_bits)
        scenario = ScenarioParams(k_devices=k, r_in=50.0, q_dim=q)
        result = digital_round(mat, np.linspace(20.0, 95.0, k), params, scenario, derived_rng(seed, "round"))
        lo, hi = mat.min(), mat.max()
        if hi == lo:
            dequantized = np.full_like(mat, lo)
        else:
            levels = (1 << q_bits) - 1
            codes = np.rint((mat - lo) / (hi - lo) * levels).astype(np.uint64)
            dequantized = lo + codes.astype(float) / levels * (hi - lo)
        assert np.array_equal(result.aggregate, dequantized.mean(axis=0))

    def test_working_memory_below_one_float_matrix(self):
        # Quantization runs one block of M columns at a time: the traced peak
        # stays below the bytes of one float64 (K, q) array.
        k, q = 50, 20000
        updates = derived_rng(24, "updates").normal(0.0, 1.0, size=(k, q))
        radii = np.linspace(25.0, 95.0, k)
        scenario = ScenarioParams(k_devices=k, r_in=50.0, q_dim=q)
        peak = traced_peak(digital_round, updates, radii, PARAMS, scenario, derived_rng(24, "round"))
        assert peak < 8 * k * q

    def test_device_snr_sets_the_latencies(self):
        k, q = 6, 40
        radii = np.linspace(20.0, 95.0, k)
        scenario = ScenarioParams(k_devices=k, r_in=50.0, q_dim=q)
        result = digital_round(np.zeros((k, q)), radii, PARAMS, scenario, derived_rng(25, "round"))
        rates = analytics.rate_digital_expected(PARAMS, k, radii)
        assert np.array_equal(result.per_device_latency_s, q * PARAMS.q_bits / rates)

    def test_constant_updates_quantize_exactly(self):
        updates = np.full((3, 50), 1.25)
        radii = np.array([30.0, 60.0, 90.0])
        scenario = ScenarioParams(k_devices=3, r_in=50.0, q_dim=50)
        result = digital_round(updates, radii, PARAMS, scenario, derived_rng(19, "round"))
        assert np.all(result.aggregate == 1.25)
