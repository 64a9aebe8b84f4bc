"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every stochastic check uses frozen seeds; tolerances are stated
inline next to each assertion.
"""

import math
import time

import numpy as np
import pytest

from airfed import analytics, cli, extensions, learning, network, phy
from airfed.analytics import ScenarioParams, SystemParams
from airfed.datasets import synth_gaussian_mixture
from airfed.learning import PartitionSpec, TrainConfig, federated_train
from airfed.network import SchedulingScheme
from airfed.rng import derived_rng

ROOT_SEED = 20260808
R_CELL = 100.0

REFERENCE = SystemParams(p0=0.1, m=1000, b=1e6, alpha=3.0, r_cell=R_CELL, g_th=0.2, n0=1e-11)


def report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_01_distribution_validation():
    """Interior-count histogram and furthest-distance mean vs closed forms."""
    start = time.monotonic()
    trials = 100000
    for k in (5, 20):
        for ratio in (0.3, 0.5, 0.8):
            radii = network.sample_radii(
                k, R_CELL, derived_rng(ROOT_SEED, "c1", k, ratio), size=trials
            )
            counts = (radii <= ratio * R_CELL).sum(axis=1)
            hist = np.bincount(counts, minlength=k + 1) / trials
            pmf = np.array(
                [analytics.k_in_pmf(k, ratio * R_CELL, R_CELL, j) for j in range(k + 1)]
            )
            tv = 0.5 * float(np.abs(hist - pmf).sum())
            assert tv < 0.01, (k, ratio, tv)

        _, expected_max = analytics.max_distance_moments(k, R_CELL)
        radii = network.sample_radii(k, R_CELL, derived_rng(ROOT_SEED, "c1max", k), size=trials)
        observed = float(radii.max(axis=1).mean())
        assert abs(observed - expected_max) / expected_max < 0.005, (k, observed)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
    report(1, f"interior-count TV < 0.01 and E[r_max] within 0.5% ({elapsed:.1f}s)")


def test_criterion_02_expected_snr_validation():
    """Monte Carlo receive-SNR means vs the closed forms, plus the c-factor band."""
    start = time.monotonic()
    trials = 1000000

    # All-inclusive scheduling, 2% tolerance.
    for k in (10, 20):
        radii = network.sample_radii(k, R_CELL, derived_rng(ROOT_SEED, "c2all", k), size=trials)
        snr = analytics.receive_snr(REFERENCE, 1.0) * radii.max(axis=1) ** (-3.0)
        expected = analytics.expected_snr_all_inclusive(REFERENCE, k)
        deviation = abs(float(snr.mean()) - expected) / expected
        assert deviation < 0.02, (k, deviation)

    # Cell-interior scheduling conditioned on >= 2 interior devices, 3%.
    # The closed form drops 0/1-device rounds, so the conditional mean runs
    # systematically high by 1/P(K_in >= 2) - 1 (2.5% at K=20, ratio 0.5).
    for k, ratio in ((20, 0.5), (10, 0.8), (20, 0.8)):
        scenario = ScenarioParams(k_devices=k, r_in=ratio * R_CELL, q_dim=1)
        expected, _ = analytics.expected_snr_cell_interior(REFERENCE, scenario)
        radii = network.sample_radii(
            k, R_CELL, derived_rng(ROOT_SEED, "c2int", k, ratio), size=trials
        )
        interior = radii <= scenario.r_in
        usable = interior.sum(axis=1) >= 2
        r_max_in = np.where(interior, radii, 0.0).max(axis=1)[usable]
        observed = float((analytics.receive_snr(REFERENCE, 1.0) * r_max_in ** (-3.0)).mean())
        deviation = abs(observed - expected) / expected
        assert deviation < 0.03, (k, ratio, deviation)

    # c(R_in) in [1, 4] over the regime where the bound's large-count
    # precondition holds (small expected interior counts sink below 1 by
    # the documented 0/1-device truncation of the sum).
    grid = (
        [(200, 0.1 * i) for i in range(1, 10)] + [(200, 1.0)]
        + [(20, 0.1 * i) for i in range(3, 10)] + [(20, 1.0)]
        + [(10, 0.1 * i) for i in range(5, 10)] + [(10, 1.0)]
    )
    for k, ratio in grid:
        scenario = ScenarioParams(k_devices=k, r_in=ratio * R_CELL, q_dim=1)
        _, c = analytics.expected_snr_cell_interior(REFERENCE, scenario)
        assert 1.0 <= c <= 4.0, (k, ratio, c)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"
    report(2, f"expected SNR within 2%/3% of Monte Carlo, c in [1,4] ({elapsed:.1f}s)")


def test_criterion_03_truncation_law():
    """Per-device truncated fraction at q = 1e5 vs 1 - exp(-g_th).

    'Within 0.5%' is read as 0.005 absolute (the quantity is itself a
    fraction); the binomial standard error at q = 1e5 is ~0.0015.
    """
    q = 100000
    updates = np.zeros((2, q))
    radii = np.array([40.0, 90.0])
    for g_th in (0.2, 0.5, 1.0):
        params = SystemParams(p0=0.1, m=1000, b=1e6, alpha=3.0, r_cell=R_CELL, g_th=g_th, n0=1e-11)
        _, diag = phy.baa_round(
            updates, radii, params, derived_rng(ROOT_SEED, "c3", g_th), noise=False
        )
        expected = analytics.truncation_ratio(g_th)
        assert np.all(np.abs(diag.truncation_fraction - expected) < 0.005), (
            g_th,
            diag.truncation_fraction,
        )
    report(3, "empirical truncation fraction within 0.005 of 1 - exp(-g_th)")


def test_criterion_04_power_constraint_audit():
    """Time-averaged transmit power <= budget; furthest device at equality."""
    q = 100000
    k = 4
    updates = np.zeros((k, q))
    radii = np.array([25.0, 50.0, 75.0, 100.0])
    params = SystemParams(p0=0.1, m=1000, b=1e6, alpha=3.0, r_cell=R_CELL, g_th=0.5, n0=1e-11)
    _, diag = phy.baa_round(updates, radii, params, derived_rng(ROOT_SEED, "c4"), noise=False)
    assert np.all(diag.tx_power <= params.p0 * 1.02), diag.tx_power
    furthest = diag.tx_power[-1]
    assert abs(furthest - params.p0) / params.p0 < 0.02, furthest
    assert np.all(diag.tx_power[:-1] < furthest)
    report(4, "per-device power within budget, furthest at equality (2%)")


def test_criterion_05_aggregation_oracle():
    """Analog aggregate vs brute-force masked summation."""
    rng = derived_rng(ROOT_SEED, "c5", "data")
    k, q = 6, 3000
    updates = rng.normal(0.0, 1.0, size=(k, q))
    radii = np.linspace(20.0, 95.0, k)
    params = SystemParams(p0=0.1, m=1000, b=1e6, alpha=3.0, r_cell=R_CELL, g_th=0.5, n0=1e-11)

    # Unmasked, noiseless: plain mean to 1e-12.
    aggregate, _ = phy.baa_round(
        updates, radii, params, derived_rng(ROOT_SEED, "c5", "clean"), fading=False, noise=False
    )
    reference = np.zeros(q)
    for i in range(k):
        reference += updates[i]
    assert np.max(np.abs(aggregate - reference / k)) < 1e-12

    # Masked, noiseless: identical to the mask-aware reference, bit for bit.
    aggregate, diag = phy.baa_round(
        updates, radii, params, derived_rng(ROOT_SEED, "c5", "masked"), noise=False
    )
    masked = np.zeros(q)
    for i in range(k):
        masked += updates[i] * diag.truncation_mask[i]
    assert np.array_equal(aggregate, masked / k)
    report(5, "noiseless aggregates equal brute-force references (1e-12 / exact)")


def test_criterion_06_latency_formulas():
    """Simulated latencies vs closed forms; scaling law; reported band."""
    start = time.monotonic()
    params = REFERENCE

    # Simulated analog round latency == closed form, and constant in K.
    analog_latencies = set()
    for k in (2, 10):
        updates = np.zeros((k, 2500))
        radii = np.linspace(20.0, 90.0, k)
        _, diag = phy.baa_round(
            updates, radii, params, derived_rng(ROOT_SEED, "c6", k), noise=False
        )
        assert diag.latency_s == analytics.latency_baa(2500, params)
        analog_latencies.add(diag.latency_s)
    assert len(analog_latencies) == 1

    # Simulated digital round latency == closed form to 1e-9.
    rng = derived_rng(ROOT_SEED, "c6", "digital")
    k, q = 8, 3000
    updates = rng.normal(0.0, 1.0, size=(k, q))
    radii = np.linspace(20.0, 95.0, k)
    scenario = ScenarioParams(k_devices=k, r_in=50.0, q_dim=q)
    result = phy.digital_round(updates, radii, params, scenario, rng)
    closed = analytics.latency_digital(params, scenario, float(radii.max()))
    assert abs(result.round_latency_s - closed) / closed < 1e-9

    # gamma * log2(K)/K within a 25% band over K = 64, 256, 1024.
    values = []
    for k in (64, 256, 1024):
        scen = ScenarioParams(k_devices=k, r_in=50.0, q_dim=582026)
        gamma = analytics.latency_reduction_ratio(SystemParams(g_th=0.1), scen, 100.0)
        values.append(gamma * math.log2(k) / k)
    assert (max(values) - min(values)) / min(values) < 0.25

    # Reference parameters (K = 200, Q = 16, BER = 1e-3, M = 1000,
    # P0 = 0.1 W, -80 dBm, alpha = 3, r_max = 50): ratio in the 10x-1000x band.
    scen = ScenarioParams(k_devices=200, r_in=50.0, q_dim=582026)
    gamma = analytics.latency_reduction_ratio(REFERENCE, scen, 50.0)
    assert 10.0 <= gamma <= 1000.0, gamma

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"
    report(6, f"latency closed forms, scaling band, and 10x-1000x ratio ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def corpus():
    train = synth_gaussian_mixture(10, 16, 2000, seed=101, separation=6.0)
    test = synth_gaussian_mixture(10, 16, 5000, seed=102, separation=6.0)
    return train, test


class TestCriterion07LearningDeskScale:
    """Desk-scale training phenomena (K = 20, softmax regression, synthetic)."""

    NONIID = PartitionSpec(mode="noniid-shards", shard_size=50, shards_per_device=2)
    SEEDS = (11, 22, 33, 44, 55)

    def test_a_interior_maximum(self, corpus):
        # Low power at alpha = 3.5, non-IID shards, one fixed deployment:
        # accuracy over the interior-radius sweep rises then falls.
        start = time.monotonic()
        train, test = corpus
        fracs = (0.2, 0.4, 0.6, 0.8, 1.0)
        medians = []
        for frac in fracs:
            finals = []
            for seed in self.SEEDS:
                params = SystemParams(p0=3e-4, alpha=3.5, g_th=0.2)
                scen = ScenarioParams(k_devices=20, r_in=frac * R_CELL, q_dim=1)
                cfg = TrainConfig(eta=0.3, tau=1, n_cr=60, batch_size=None, aggregation="baa")
                result = federated_train(
                    train, self.NONIID, cfg, params, scen,
                    SchedulingScheme.cell_interior(frac * R_CELL), seed, test,
                    topology_seed=2026,
                )
                finals.append(float(result.accuracy_trace[-10:].mean()))
            medians.append(float(np.median(finals)))
        peak = int(np.argmax(medians))
        assert 0 < peak < len(fracs) - 1, medians
        assert medians[peak] > medians[0] + 0.05, medians
        assert medians[peak] > medians[-1] + 0.05, medians
        report(7, f"(a) interior maximum at r_in/R = {fracs[peak]} "
                  f"(medians {['%.2f' % m for m in medians]}, {time.monotonic()-start:.0f}s)")

    def test_b_analog_close_to_digital(self, corpus):
        # Moderate SNR, matched settings: final accuracies within 3 points.
        train, test = corpus
        params = SystemParams(p0=0.1, alpha=3.0, g_th=0.05)
        scen = ScenarioParams(k_devices=20, r_in=50.0, q_dim=1)
        gaps = []
        for seed in (11, 22, 33):
            finals = {}
            for aggregation in ("baa", "digital"):
                cfg = TrainConfig(eta=0.5, tau=1, n_cr=40, batch_size=None, aggregation=aggregation)
                result = federated_train(
                    train, PartitionSpec(mode="iid"), cfg, params, scen,
                    SchedulingScheme.cell_interior(50.0), seed, test,
                )
                finals[aggregation] = result.final_accuracy
            gaps.append(abs(finals["digital"] - finals["baa"]))
        assert float(np.median(gaps)) < 0.03, gaps
        report(7, f"(b) analog within 3 points of digital (median gap {np.median(gaps):.3f})")

    def test_c_alternating_beats_interior_when_static(self, corpus):
        # Static non-IID scenario: alternating scheduling recovers the
        # cell-edge data that pure interior scheduling never sees.
        train, test = corpus
        params = SystemParams(p0=0.1, alpha=3.0, g_th=0.2)
        scen = ScenarioParams(k_devices=20, r_in=50.0, q_dim=1)
        cfg = TrainConfig(eta=0.5, tau=1, n_cr=40, batch_size=None, aggregation="baa")
        interior, alternating = [], []
        for seed in self.SEEDS:
            r_int = federated_train(
                train, self.NONIID, cfg, params, scen,
                SchedulingScheme.cell_interior(50.0), seed, test,
            )
            r_alt = federated_train(
                train, self.NONIID, cfg, params, scen,
                SchedulingScheme.alternating(50.0, 1), seed, test,
            )
            interior.append(r_int.final_accuracy)
            alternating.append(r_alt.final_accuracy)
        med_int = float(np.median(interior))
        med_alt = float(np.median(alternating))
        assert med_alt >= med_int, (med_alt, med_int)
        report(7, f"(c) alternating ({med_alt:.3f}) >= interior ({med_int:.3f}), median of 5 seeds")


def test_criterion_08_gradient_correctness():
    """Analytic gradient vs central differences on 20 random probes."""
    rng = derived_rng(ROOT_SEED, "c8")
    data = synth_gaussian_mixture(3, 5, 12, seed=303, separation=4.0)
    q = learning.model_dim(5, 3)
    h = 1e-6
    for _ in range(20):
        weights = rng.normal(0.0, 1.0, q)
        direction = rng.normal(0.0, 1.0, q)
        direction /= np.linalg.norm(direction)
        grad = learning.loss_gradient(weights, data.features, data.labels, 3)
        analytic = float(grad @ direction)
        numeric = (
            learning.local_loss(weights + h * direction, data)
            - learning.local_loss(weights - h * direction, data)
        ) / (2 * h)
        assert abs(numeric - analytic) <= 1e-5 * max(abs(analytic), 1e-3)
    report(8, "gradient matches central differences (rel < 1e-5, 20 probes)")


def test_criterion_09_extensions():
    """Spread-spectrum exactness and suppression; beamformer oracles."""
    # Round trip exact for the power-of-two spreading factors in use.
    for gamma in (4, 16):
        code = extensions.pn_code(gamma, derived_rng(ROOT_SEED, "c9code", gamma))
        x = derived_rng(ROOT_SEED, "c9sym", gamma).normal(0.0, 1.0, 1000)
        assert np.array_equal(extensions.despread(extensions.spread(x, code), code), x)

    # Adversary suppression within 20% of gamma over 1e4 trials.
    for gamma in (4, 16):
        rng = derived_rng(ROOT_SEED, "c9adv", gamma)
        raw_total = 0.0
        residual_total = 0.0
        for _ in range(10000):
            code = extensions.pn_code(gamma, rng)
            interference = rng.normal(0.0, 1.0, 64 * gamma)
            residual = extensions.despread(interference, code)
            raw_total += float(np.mean(interference**2))
            residual_total += float(np.mean(residual**2))
        measured = raw_total / residual_total
        assert abs(measured - gamma) / gamma < 0.20, (gamma, measured)

    # Sum-SNR beams vs a dense eigendecomposition, 1e-8.
    rng = derived_rng(ROOT_SEED, "c9beam")
    h = (rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))) / np.sqrt(2)
    problem = extensions.BeamProblem(h_matrix=h, weak_set=(0, 1, 2), n0=1e-2)
    agg = extensions.aggregation_beamformer(problem)
    oracle = float(np.linalg.eigvalsh(h @ h.conj().T)[-1] / problem.n0)
    assert abs(agg.objective - oracle) / oracle < 1e-8

    # Zero-forcing residuals below 1e-10 with enough antennas; structured
    # infeasibility without.
    square = extensions.BeamProblem(h_matrix=h[:, :2], weak_set=(0, 1), n0=1e-2)
    sdma = extensions.sdma_beamformer(square)
    assert sdma.feasible
    for user, other in ((0, 1), (1, 0)):
        assert abs(np.vdot(sdma.beams[:, user], square.h_matrix[:, other])) < 1e-10
    tall = extensions.BeamProblem(h_matrix=h[:2, :], weak_set=(0, 1, 2), n0=1e-2)
    infeasible = extensions.sdma_beamformer(tall)
    assert not infeasible.feasible
    assert infeasible.infeasible_users == (0, 1, 2)
    report(9, "spread-spectrum round trip/suppression and beamforming oracles")


def test_criterion_10_determinism(tmp_path):
    """Re-running any experiment with the same config/seed is byte-identical."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "k_devices = 4\nn_rounds = 3\ntrain_samples = 200\ntest_samples = 200\n"
        "feature_dim = 6\nclasses = 4\nseed = 77\ntrials = 2000\n"
        "scheme = all-inclusive\nf_dat_grid = 0.5,1.0\n"
    )
    snapshots = []
    for label in ("first", "second"):
        for command in ("tradeoff", "compare"):
            out = tmp_path / label / command
            assert cli.main([command, "--config", str(cfg_path),
                             "--out", str(out), "--format", "csv"]) == 0
        snapshots.append(
            {
                p.relative_to(tmp_path / label).as_posix(): p.read_bytes()
                for p in sorted((tmp_path / label).rglob("*"))
                if p.is_file()
            }
        )
    assert snapshots[0].keys() == snapshots[1].keys()
    for name in snapshots[0]:
        assert snapshots[0][name] == snapshots[1][name], name
    report(10, "byte-identical outputs across reruns")
