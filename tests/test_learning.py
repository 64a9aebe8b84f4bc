"""Training loop, model math, and partitioning against direct oracles.

The gradient is checked by central finite differences; the one-step SGD
update against a from-scratch probability computation; partition modes by
exact accounting; channel substitutability by running the same seeds
through all three aggregation paths.
"""

import struct

import numpy as np
import pytest

from airfed import learning, network, phy
from airfed.analytics import ScenarioParams, SystemParams
from airfed.datasets import LabeledDataset, load_mnist_idx, synth_gaussian_mixture
from airfed.learning import (
    PartitionSpec,
    TrainConfig,
    accuracy,
    federated_train,
    global_average,
    global_loss,
    init_weights,
    local_loss,
    local_sgd,
    loss_gradient,
    model_dim,
    partition,
    trace_csv,
)
from airfed.network import SchedulingScheme
from airfed.rng import derived_rng
from conftest import write_idx_pair

PARAMS = SystemParams(p0=0.1, m=1000, b=1e6, alpha=3.0, r_cell=100.0, g_th=0.2, n0=1e-11)


def toy_dataset(n=40, classes=4, dim=6, seed=0):
    return synth_gaussian_mixture(classes, dim, n, seed=seed, separation=4.0)


def reference_probabilities(weights, features, n_classes):
    """Independent softmax computation, one sample at a time."""
    d = features.shape[1]
    w = weights[: d * n_classes].reshape(d, n_classes)
    b = weights[d * n_classes :]
    out = np.zeros((features.shape[0], n_classes))
    for i, x in enumerate(features):
        logits = np.array([float(x @ w[:, c] + b[c]) for c in range(n_classes)])
        exp = np.exp(logits - logits.max())
        out[i] = exp / exp.sum()
    return out


class TestLossAndGradient:
    def test_uniform_model_loss_is_log_classes(self):
        data = toy_dataset()
        zeros = np.zeros(model_dim(data.n_features, data.n_classes))
        assert local_loss(zeros, data) == pytest.approx(np.log(data.n_classes), rel=1e-12)

    def test_global_loss_is_mean_of_local(self):
        data = toy_dataset(n=60)
        rows = partition(data, PartitionSpec(mode="iid"), 6, derived_rng(1, "p"))
        weights = init_weights(data.n_features, data.n_classes, derived_rng(1, "w"))
        mean_local = np.mean([local_loss(weights, data.subset(row)) for row in rows])
        features = data.features[rows]
        labels = data.labels[rows]
        assert global_loss(weights, features, labels, data.n_classes) == pytest.approx(mean_local, abs=1e-12)

    def test_gradient_matches_central_differences(self):
        # 20 random (model, sample-batch) probes, relative error < 1e-5.
        rng = derived_rng(2, "fd")
        data = toy_dataset(n=12, classes=3, dim=5, seed=3)
        q = model_dim(5, 3)
        h = 1e-6
        for _ in range(20):
            weights = rng.normal(0.0, 1.0, q)
            grad = loss_gradient(weights, data.features, data.labels, 3)
            direction = rng.normal(0.0, 1.0, q)
            direction /= np.linalg.norm(direction)
            shard = data
            f_plus = local_loss(weights + h * direction, shard)
            f_minus = local_loss(weights - h * direction, shard)
            numeric = (f_plus - f_minus) / (2 * h)
            analytic = float(grad @ direction)
            assert abs(numeric - analytic) <= 1e-5 * max(abs(analytic), 1e-3)

    def test_empty_shard_rejected(self):
        empty = LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), n_classes=2)
        with pytest.raises(ValueError):
            local_loss(np.zeros(model_dim(3, 2)), empty)


# The row-major evaluation formulas that the class-major ones replaced,
# kept verbatim as the bit-for-bit reference.
def row_major_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def row_major_local_loss(weights, shard):
    w, b = learning._unpack(weights, shard.n_features, shard.n_classes)
    log_p = row_major_log_softmax(shard.features @ w + b)
    return float(-log_p[np.arange(len(shard)), shard.labels].mean())


def row_major_accuracy(weights, dataset):
    w, b = learning._unpack(weights, dataset.n_features, dataset.n_classes)
    predicted = (dataset.features @ w + b).argmax(axis=1)
    return float((predicted == dataset.labels).mean())


def assert_same_bits(value, reference):
    assert value == reference or (np.isnan(value) and np.isnan(reference))


class TestClassMajorEvaluation:
    """``accuracy`` and ``local_loss`` evaluate class-major logits and must
    return exactly what the row-major formulas return."""

    @staticmethod
    def random_dataset(n, classes, dim, seed):
        rng = derived_rng(seed, "eval", n, classes)
        return LabeledDataset(rng.normal(0.0, 1.0, (n, dim)), rng.integers(0, classes, n), classes)

    @pytest.mark.parametrize("classes", [2, 3, 7, 8, 9, 10, 16, 17, 64])
    def test_random_weights_match_row_major(self, classes):
        dim = 5
        for n in (1, 2, 3, 8, 31, 257, 2000):
            data = self.random_dataset(n, classes, dim, seed=4)
            rng = derived_rng(4, "weights", n, classes)
            for scale in (1e-3, 0.1, 1.0, 10.0, 300.0):
                weights = rng.normal(0.0, scale, model_dim(dim, classes))
                assert accuracy(weights, data) == row_major_accuracy(weights, data)
                assert local_loss(weights, data) == row_major_local_loss(weights, data)

    @pytest.mark.parametrize("classes", [2, 3, 10, 17])
    def test_zero_weights_predict_class_zero(self, classes):
        # Every logit ties, so argmax picks class 0 for every sample.
        data = self.random_dataset(500, classes, 4, seed=5)
        zeros = np.zeros(model_dim(4, classes))
        assert accuracy(zeros, data) == float((data.labels == 0).mean())
        assert accuracy(zeros, data) == row_major_accuracy(zeros, data)
        assert local_loss(zeros, data) == row_major_local_loss(zeros, data)

    @pytest.mark.parametrize(
        "bias, predicted",
        [
            ([0.0, 2.0, 2.0, 1.0], 1),  # tied maxima: the lowest class wins
            ([1.0, np.nan, 5.0, np.nan], 1),  # a NaN beats every number; the first NaN wins
            ([-np.inf, -np.inf, -np.inf, -np.inf], 0),
            ([-np.inf, np.inf, 0.0, np.inf], 1),
            ([-0.0, 0.0, -1.0, 0.0], 0),  # -0.0 == 0.0
        ],
    )
    def test_ties_and_nan_follow_argmax(self, bias, predicted):
        dim, classes = 3, 4
        weights = np.concatenate([np.zeros(dim * classes), bias])
        for label in range(classes):
            data = LabeledDataset(np.ones((6, dim)), np.full(6, label), classes)
            with np.errstate(invalid="ignore"):
                assert accuracy(weights, data) == float(label == predicted)
                assert_same_bits(local_loss(weights, data), row_major_local_loss(weights, data))

    @pytest.mark.parametrize("classes", [3, 10, 17])
    def test_inf_and_nan_logits_match_row_major(self, classes):
        # Non-finite features give each sample its own mix of finite, +-inf
        # and NaN logits.
        dim, n = 4, 400
        data = self.random_dataset(n, classes, dim, seed=6)
        rng = derived_rng(6, "non-finite")
        features = data.features.copy()
        cells = rng.integers(0, n * dim, n // 2)
        features.reshape(-1)[cells] = rng.choice([np.inf, -np.inf, np.nan], cells.size)
        data = LabeledDataset(features, data.labels, classes)
        weights = rng.normal(0.0, 1.0, model_dim(dim, classes))
        weights[rng.integers(0, weights.size, 3)] = 0.0  # inf * 0 gives NaN
        with np.errstate(invalid="ignore", over="ignore"):
            assert accuracy(weights, data) == row_major_accuracy(weights, data)
            assert_same_bits(local_loss(weights, data), row_major_local_loss(weights, data))
            logits = data.features @ learning._unpack(weights, dim, classes)[0]
        assert np.isnan(logits).any() and np.isinf(logits).any()

    def test_class_sum_adds_in_numpy_row_order(self):
        # The loss column depends on the class sum adding its terms in the
        # order numpy's pairwise reduction adds one contiguous row.  A numpy
        # release that changes that order fails here.
        rng = derived_rng(7, "class-sum")
        mismatched = []
        for classes in range(2, 131):
            for n in (1, 5, 300):
                row_major = np.exp(rng.normal(0.0, 20.0, (n, classes)))
                expected = row_major.sum(axis=-1)
                got = learning._class_sum(np.ascontiguousarray(row_major.T))
                if got.tobytes() != expected.tobytes():
                    mismatched.append((classes, n))
        assert mismatched == []


class TestLocalSgd:
    def test_zero_step_size_is_identity(self):
        data = toy_dataset()
        w0 = init_weights(data.n_features, data.n_classes, derived_rng(3, "w"))
        with pytest.raises(ValueError):
            TrainConfig(eta=0.0)
        out = local_sgd(
            w0, data.features, data.labels, data.n_classes,
            eta=1e-300, tau=3, batch_size=None, rng=derived_rng(3, "s"),
        )
        assert np.allclose(out, w0, atol=1e-290)

    def test_single_full_batch_step_matches_reference(self):
        # Four samples, hand-traceable: w1 = w0 - eta * X^T (P - Y) / n.
        features = np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]]
        )
        labels = np.array([0, 1, 0, 1])
        data = LabeledDataset(features, labels, n_classes=2)
        w0 = np.array([0.3, -0.2, 0.1, 0.4, 0.05, -0.05])
        eta = 0.7
        probs = reference_probabilities(w0, features, 2)
        residual = probs.copy()
        residual[np.arange(4), labels] -= 1.0
        grad_w = features.T @ residual / 4.0
        grad_b = residual.mean(axis=0)
        expected = w0 - eta * np.concatenate([grad_w.ravel(), grad_b])
        stepped = local_sgd(
            w0, data.features, data.labels, data.n_classes,
            eta=eta, tau=1, batch_size=None, rng=derived_rng(4, "s"),
        )
        assert np.allclose(stepped, expected, atol=1e-12)

    def test_full_batch_descent_on_convex_loss(self):
        data = toy_dataset(n=100, seed=9)
        w = init_weights(data.n_features, data.n_classes, derived_rng(5, "w"))
        losses = [local_loss(w, data)]
        for _ in range(10):
            w = local_sgd(
                w, data.features, data.labels, data.n_classes,
                eta=0.1, tau=1, batch_size=None, rng=derived_rng(5, "s"),
            )
            losses.append(local_loss(w, data))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("devices", [None, 3], ids=["shard", "stack"])
    def test_minibatch_deterministic_given_seed(self, devices):
        data = toy_dataset(n=50, seed=11)
        features, labels = data.features, data.labels
        if devices is not None:
            shards = [toy_dataset(n=50, seed=11 + i) for i in range(devices)]
            features = np.stack([shard.features for shard in shards])
            labels = np.stack([shard.labels for shard in shards])
        w0 = init_weights(data.n_features, data.n_classes, derived_rng(6, "w"))
        a = local_sgd(
            w0, features, labels, data.n_classes,
            eta=0.2, tau=5, batch_size=8, rng=derived_rng(6, "s"),
        )
        b = local_sgd(
            w0, features, labels, data.n_classes,
            eta=0.2, tau=5, batch_size=8, rng=derived_rng(6, "s"),
        )
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("tau", [1, 3])
    @pytest.mark.parametrize("devices", [1, 7, 50])
    def test_device_axis_equals_per_device_calls(self, devices, tau):
        # A (K, n, d) shard stack gives each device exactly its own 2-D result.
        rng = derived_rng(7, "stack", devices)
        features = rng.normal(0.0, 1.0, size=(devices, 12, 5))
        labels = rng.integers(0, 3, size=(devices, 12))
        w0 = init_weights(5, 3, derived_rng(7, "w"))
        stacked = local_sgd(w0, features, labels, 3, 0.3, tau, None, derived_rng(7, "s"))
        per_device = [
            local_sgd(w0, features[i], labels[i], 3, 0.3, tau, None, derived_rng(7, "s"))
            for i in range(devices)
        ]
        assert np.array_equal(stacked, np.stack(per_device))
        models = rng.normal(0.0, 1.0, size=(devices, model_dim(5, 3)))
        gradients = [loss_gradient(models[i], features[i], labels[i], 3) for i in range(devices)]
        assert np.array_equal(loss_gradient(models, features, labels, 3), np.stack(gradients))


    def test_full_batch_builds_no_generator(self):
        # Full-batch steps draw nothing, so they need no stream and give
        # the same model with rng=None as with a Generator.
        data = toy_dataset()
        w0 = init_weights(data.n_features, data.n_classes, derived_rng(3, "w"))
        expected = local_sgd(
            w0, data.features, data.labels, data.n_classes,
            eta=0.5, tau=2, batch_size=None, rng=derived_rng(3, "s"),
        )
        for batch_size in (None, len(data)):
            stepped = local_sgd(
                w0, data.features, data.labels, data.n_classes,
                eta=0.5, tau=2, batch_size=batch_size, rng=None,
            )
            assert np.array_equal(stepped, expected)


class TestGlobalAverage:
    def test_identical_inputs_fixed_point(self):
        w = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(global_average([w, w, w]), w)

    def test_two_models_midpoint(self):
        a, b = np.array([0.0, 2.0]), np.array([4.0, 0.0])
        assert np.array_equal(global_average([a, b]), np.array([2.0, 1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            global_average([])

    def test_matches_noiseless_channel_after_denormalization(self):
        rng = derived_rng(7, "models")
        models = rng.normal(0.2, 1.3, size=(5, 200))
        spec = phy.normalization_from_values(models[0])
        symbols = phy.normalize_updates(models, spec)
        aggregate, _ = phy.baa_round(
            symbols, np.linspace(30, 90, 5), PARAMS, derived_rng(7, "round"),
            fading=False, noise=False,
        )
        assert np.max(np.abs(phy.denormalize(aggregate, spec, 1) - global_average(models))) < 1e-9


class TestPartition:
    def test_noniid_limits_distinct_labels(self):
        # 2000 samples, 10 balanced classes, 40 shards of 50: shards align
        # with class boundaries, so two shards mean at most two labels.
        data = synth_gaussian_mixture(10, 12, 2000, seed=21)
        spec = PartitionSpec(mode="noniid-shards", shard_size=50, shards_per_device=2)
        rows = partition(data, spec, 20, derived_rng(8, "p"))
        assert rows.shape == (20, 100)
        for row in rows:
            assert len(np.unique(data.labels[row])) <= 2

    def test_noniid_runs_are_cut_from_the_whole_corpus(self):
        # 200 devices x 2 runs of 3 samples take 1,200 of the 2,000 sorted
        # samples; dealing runs from the whole corpus reaches every class.
        data = synth_gaussian_mixture(10, 4, 2000, seed=27)
        spec = PartitionSpec(mode="noniid-shards", shard_size=3, shards_per_device=2)
        rows = partition(data, spec, 200, derived_rng(14, "p"))
        assert rows.shape == (200, 6)
        assert len(np.unique(rows)) == rows.size
        assert set(np.unique(data.labels[rows])) == set(range(10))

    def test_iid_label_histogram_concentrates(self):
        data = synth_gaussian_mixture(10, 8, 2000, seed=22)
        rows = partition(data, PartitionSpec(mode="iid"), 20, derived_rng(9, "p"))
        n_per = rows.shape[1]
        for row in rows:
            hist = np.bincount(data.labels[row], minlength=10) / n_per
            # 3 sigma for a multinomial cell at p = 0.1.
            sigma = np.sqrt(0.1 * 0.9 / n_per)
            assert np.all(np.abs(hist - 0.1) <= 3 * sigma + 1e-9)

    def test_union_covers_selection_exactly(self):
        data = synth_gaussian_mixture(10, 8, 2000, seed=23)
        spec = PartitionSpec(mode="noniid-shards", shard_size=50, shards_per_device=2)
        rows = partition(data, spec, 20, derived_rng(10, "p"))
        all_features = np.vstack([data.subset(row).features for row in rows])
        assert all_features.shape[0] == 2000
        # No duplication: feature rows are distinct with probability one.
        assert len(np.unique(all_features, axis=0)) == 2000

    def test_equal_shard_sizes(self):
        data = synth_gaussian_mixture(10, 8, 1995, seed=24)
        rows = partition(data, PartitionSpec(mode="iid"), 20, derived_rng(11, "p"))
        sizes = {len(data.subset(row)) for row in rows}
        assert sizes == {1995 // 20}

    def test_insufficient_samples_rejected(self):
        data = synth_gaussian_mixture(10, 8, 100, seed=25)
        spec = PartitionSpec(mode="noniid-shards", shard_size=50, shards_per_device=2)
        with pytest.raises(ValueError):
            partition(data, spec, 20, derived_rng(12, "p"))

    def test_partition_spec_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec(mode="noniid-shards")
        with pytest.raises(ValueError):
            PartitionSpec(mode="striped")

    @pytest.mark.parametrize(
        "mode, shard_size, shards_per_device, n, k, expected",
        [
            ("iid", None, None, 1995, 20, 99),
            ("iid", 10, 3, 2000, 37, 30),
            ("noniid-shards", None, 3, 2000, 7, 285),
            ("noniid-shards", 50, 2, 2000, 20, 100),
        ],
    )
    def test_per_device_sizes(self, mode, shard_size, shards_per_device, n, k, expected):
        spec = PartitionSpec(mode, shard_size, shards_per_device)
        assert spec.per_device(n, k) == expected
        data = synth_gaussian_mixture(10, 4, n, seed=26)
        assert partition(data, spec, k, derived_rng(13, "p")).shape == (k, expected)

    @pytest.mark.parametrize(
        "mode, shard_size, shards_per_device, n",
        [("iid", 100, 2, 2000), ("iid", None, 2, 150), ("noniid-shards", None, 11, 2000)],
        ids=["shards-overflow", "fewer-samples-than-devices", "shards-below-one-sample"],
    )
    def test_per_device_rejects_a_partition_that_does_not_fit(self, mode, shard_size, shards_per_device, n):
        spec = PartitionSpec(mode, shard_size, shards_per_device)
        with pytest.raises(ValueError, match=f"from {n} .*shard_size = .*shards_per_device = "):
            spec.per_device(n, 200)


class TestFederatedTrain:
    def scenario(self, k):
        return ScenarioParams(k_devices=k, r_in=50.0, q_dim=1)

    # Static devices never move and full-batch SGD never samples, so neither
    # derives its stream; a round that draws from one still derives it.
    @pytest.mark.parametrize(
        "mobility, batch_size, unused",
        [
            ("static", None, {"mobility", "sgd"}),
            ("iid-resample", None, {"sgd"}),
            ("static", 5, {"mobility"}),
            ("iid-resample", 5, set()),
        ],
    )
    def test_derives_only_the_streams_a_round_draws_from(self, monkeypatch, mobility, batch_size, unused):
        derived = []

        def recording_rng(seed, *labels):
            derived.append(labels[0])
            return derived_rng(seed, *labels)

        monkeypatch.setattr(learning, "derived_rng", recording_rng)
        data = toy_dataset(n=40, seed=36)
        cfg = TrainConfig(eta=0.3, tau=1, n_cr=4, batch_size=batch_size, aggregation="baa")
        federated_train(
            data, PartitionSpec(mode="iid"), cfg, PARAMS, self.scenario(4),
            SchedulingScheme.all_inclusive(), 67, data, mobility=mobility,
        )
        assert unused.isdisjoint(derived)
        assert {"mobility", "sgd"} - unused <= set(derived)

    # Only the over-the-air steps draw from the channel stream, and only in
    # rounds that schedule someone.
    @pytest.mark.parametrize("aggregation", ["ideal", "baa", "digital"])
    @pytest.mark.parametrize(
        "scheme, scheduled_rounds",
        [(SchedulingScheme.all_inclusive(), 4), (SchedulingScheme.cell_interior(1e-6), 0)],
        ids=["all-inclusive", "all-empty"],
    )
    def test_derives_the_channel_stream_once_per_over_the_air_round(
        self, monkeypatch, aggregation, scheme, scheduled_rounds
    ):
        derived = []

        def recording_rng(seed, *labels):
            derived.append(labels)
            return derived_rng(seed, *labels)

        monkeypatch.setattr(learning, "derived_rng", recording_rng)
        data = toy_dataset(n=40, seed=36)
        cfg = TrainConfig(eta=0.3, tau=1, n_cr=4, batch_size=None, aggregation=aggregation)
        federated_train(
            data, PartitionSpec(mode="iid"), cfg, PARAMS, self.scenario(4), scheme, 67, data,
        )
        channel = [labels for labels in derived if labels[0] == "channel"]
        expected = [] if aggregation == "ideal" else [("channel", rnd) for rnd in range(scheduled_rounds)]
        assert channel == expected

    def test_unknown_mobility_rejected(self):
        data = toy_dataset(n=40, seed=36)
        with pytest.raises(ValueError, match="mobility must be one of .*got 'walk'"):
            federated_train(
                data, PartitionSpec(mode="iid"), TrainConfig(n_cr=1), PARAMS, self.scenario(4),
                SchedulingScheme.all_inclusive(), 67, data, mobility="walk",
            )

    def test_single_device_ideal_equals_centralized(self):
        data = toy_dataset(n=50, seed=31)
        cfg = TrainConfig(eta=0.3, tau=2, n_cr=8, batch_size=16, aggregation="ideal")
        seed = 99
        result = federated_train(
            data, PartitionSpec(mode="iid"), cfg, PARAMS, self.scenario(1),
            SchedulingScheme.all_inclusive(), seed, data,
        )
        # Centralized replay with the same derived streams.
        rows = partition(data, PartitionSpec(mode="iid"), 1, derived_rng(seed, "partition"))
        shard = data.subset(rows[0])
        w = init_weights(data.n_features, data.n_classes, derived_rng(seed, "init"))
        for rnd in range(8):
            w = local_sgd(
                w, shard.features, shard.labels, shard.n_classes,
                0.3, 2, 16, derived_rng(seed, "sgd", rnd),
            )
        assert np.array_equal(result.final_weights, w)

    def test_channel_substitutability(self):
        # Ideal, near-noiseless analog, and 32-bit digital produce models
        # within 1e-5 of each other on a fixed-seed 10-round run.
        data = toy_dataset(n=100, classes=4, dim=6, seed=32)
        quiet = SystemParams(
            p0=0.1, m=1000, b=1e6, alpha=3.0, r_cell=100.0,
            g_th=1e-12, n0=1e-300, q_bits=32,
        )
        finals = {}
        for aggregation in ("ideal", "baa", "digital"):
            cfg = TrainConfig(eta=0.3, tau=1, n_cr=10, batch_size=None, aggregation=aggregation)
            result = federated_train(
                data, PartitionSpec(mode="iid"), cfg, quiet, self.scenario(5),
                SchedulingScheme.all_inclusive(), 777, data,
            )
            finals[aggregation] = result.final_weights
        for name in ("baa", "digital"):
            assert np.max(np.abs(finals[name] - finals["ideal"])) < 1e-5, name

    def test_deterministic_traces(self):
        data = toy_dataset(n=60, seed=33)
        cfg = TrainConfig(eta=0.4, tau=1, n_cr=6, batch_size=None, aggregation="baa")
        runs = [
            federated_train(
                data, PartitionSpec(mode="iid"), cfg, PARAMS, self.scenario(4),
                SchedulingScheme.cell_interior(70.0), 1234, data, mobility="iid-resample",
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].accuracy_trace, runs[1].accuracy_trace)
        assert np.array_equal(runs[0].final_weights, runs[1].final_weights)
        assert trace_csv(runs[0]) == trace_csv(runs[1])

    def test_empty_rounds_leave_model_unchanged(self):
        data = toy_dataset(n=40, seed=34)
        cfg = TrainConfig(eta=0.3, tau=1, n_cr=4, batch_size=None, aggregation="ideal")
        # Interior radius so small that no device qualifies.
        result = federated_train(
            data, PartitionSpec(mode="iid"), cfg, PARAMS, self.scenario(4),
            SchedulingScheme.cell_interior(1e-6), 55, data,
        )
        assert all(r.k_scheduled == 0 for r in result.records)
        assert all(r.latency_s == 0.0 for r in result.records)
        accs = result.accuracy_trace
        assert np.all(accs == accs[0])

    def test_desk_scale_ideal_baseline_golden_trace(self):
        # Fixed-seed regression baseline: 20 devices, ideal aggregation,
        # 50 rounds on the 2000-sample synthetic mixture.  Accuracy values
        # frozen from the recorded run.
        train = synth_gaussian_mixture(10, 16, 2000, seed=101, separation=6.0)
        test = synth_gaussian_mixture(10, 16, 5000, seed=102, separation=6.0)
        cfg = TrainConfig(eta=0.5, tau=1, n_cr=50, batch_size=None, aggregation="ideal")
        scen = ScenarioParams(k_devices=20, r_in=50.0, q_dim=1)
        result = federated_train(
            train, PartitionSpec(mode="iid"), cfg, PARAMS, scen,
            SchedulingScheme.all_inclusive(), 424242, test,
        )
        assert result.final_accuracy > 0.85
        trace = result.accuracy_trace
        golden = {0: 0.9862, 9: 0.9888, 24: 0.9886, 49: 0.9886}
        for rnd, value in golden.items():
            assert trace[rnd] == pytest.approx(value, abs=1e-9)
        assert result.records[-1].loss == pytest.approx(0.10092623807905192, abs=1e-9)

    def test_noniid_alternating_mobile_minibatch_golden_trace(self):
        # Fixed-seed regression baseline for the non-default path: label
        # shards, alternating scheduling, i.i.d. mobility and minibatches.
        train = synth_gaussian_mixture(10, 16, 2000, seed=101)
        test = synth_gaussian_mixture(10, 16, 5000, seed=102)
        cfg = TrainConfig(eta=0.5, tau=2, n_cr=12, batch_size=16, aggregation="ideal")
        scen = ScenarioParams(k_devices=20, r_in=50.0, q_dim=1)
        result = federated_train(
            train, PartitionSpec(mode="noniid-shards", shard_size=50, shards_per_device=2),
            cfg, PARAMS, scen, SchedulingScheme.alternating(50.0, 1), 7, test,
            mobility="iid-resample",
        )
        golden = {0: (0.4032, 2), 5: (0.9722, 20), 11: (0.989, 20)}
        for rnd, (acc, k_scheduled) in golden.items():
            assert result.records[rnd].accuracy == pytest.approx(acc, abs=1e-9)
            assert result.records[rnd].k_scheduled == k_scheduled
        assert result.records[-1].loss == pytest.approx(0.19534096851497157, abs=1e-9)

    # Per round: (latency_s, rho0_db, truncation_frac, k_scheduled).
    CHANNEL_GOLDEN = {
        "baa": (
            [
                (0.001, 26.778641368275387, 0.14117647058823535, 1),
                (0.0, np.nan, np.nan, 0),
                (0.001, 21.54919484450444, 0.22941176470588232, 1),
                (0.001, 25.507375451127388, 0.1941176470588235, 1),
                (0.001, 32.61207145185207, 0.24705882352941178, 1),
                (0.001, 39.20959358917011, 0.1352941176470588, 1),
                (0.001, 23.81140113767902, 0.18823529411764706, 3),
                (0.001, 29.384986655716418, 0.1352941176470588, 1),
            ],
            0.6861651624296828,
        ),
        "digital": (
            [
                (0.00046885801986551456, 26.778641368275387, np.nan, 1),
                (0.0, np.nan, np.nan, 0),
                (0.0006182991986142897, 21.54919484450444, np.nan, 1),
                (0.0004983027750173596, 25.507375451127388, np.nan, 1),
                (0.00036849167704079683, 32.61207145185207, np.nan, 1),
                (0.0002964891395114487, 39.20959358917011, np.nan, 1),
                (0.0012975018333562915, 28.582613684875643, np.nan, 3),
                (0.0004180586614653556, 29.384986655716418, np.nan, 1),
            ],
            0.24142450752688696,
        ),
    }

    @pytest.mark.parametrize("aggregation", ["baa", "digital"])
    def test_over_the_air_golden_channel_columns(self, aggregation):
        # Fixed-seed regression baseline for the trace's channel columns:
        # 7 mobile devices, a cell interior that leaves round 1 empty, and
        # minibatch SGD.  Values frozen from the recorded run.
        train = synth_gaussian_mixture(10, 16, 2000, seed=101)
        test = synth_gaussian_mixture(10, 16, 5000, seed=102)
        cfg = TrainConfig(eta=0.5, tau=2, n_cr=8, batch_size=16, aggregation=aggregation)
        scen = ScenarioParams(k_devices=7, r_in=40.0, q_dim=1)
        result = federated_train(
            train, PartitionSpec(mode="iid"), cfg, PARAMS, scen,
            SchedulingScheme.cell_interior(40.0), 11, test, mobility="iid-resample",
        )
        golden, final_loss = self.CHANNEL_GOLDEN[aggregation]
        assert len(result.records) == len(golden)
        for record, row in zip(result.records, golden):
            columns = (record.latency_s, record.rho0_db, record.truncation_frac, record.k_scheduled)
            assert columns == pytest.approx(row, abs=1e-9, nan_ok=True), record.round
        assert result.records[-1].loss == pytest.approx(final_loss, abs=1e-9)

    def test_trace_schema(self):
        data = toy_dataset(n=40, seed=35)
        cfg = TrainConfig(eta=0.3, tau=1, n_cr=3, batch_size=None, aggregation="baa")
        result = federated_train(
            data, PartitionSpec(mode="iid"), cfg, PARAMS, self.scenario(4),
            SchedulingScheme.all_inclusive(), 66, data,
        )
        text = trace_csv(result)
        header = text.splitlines()[0]
        assert header == "round,accuracy,loss,latency_s,rho0_db,truncation_frac,k_scheduled"
        assert len(text.splitlines()) == 4
        assert result.records[0].latency_s > 0


class TestDatasets:
    def test_idx_pair_loads(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(100, 4, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=100, dtype=np.uint8)
        img_path = write_idx_pair(tmp_path, images, labels)
        data = load_mnist_idx(tmp_path)
        assert len(data) == 100
        assert data.n_features == 12
        assert np.array_equal(data.labels, labels)
        assert np.allclose(data.features, images.reshape(100, -1) / 255.0)
        # Loading via the images file directly works too.
        again = load_mnist_idx(img_path)
        assert np.array_equal(again.features, data.features)

    def test_standard_train_header_shape(self, tmp_path):
        # Standard training corpus header: 60000 samples of 28 x 28 pixels.
        img = tmp_path / "train-images-idx3-ubyte"
        lbl = tmp_path / "train-labels-idx1-ubyte"
        img.write_bytes(struct.pack(">iiii", 0x803, 60000, 28, 28) + bytes(60000 * 28 * 28))
        lbl.write_bytes(struct.pack(">ii", 0x801, 60000) + bytes(60000))
        data = load_mnist_idx(tmp_path)
        assert len(data) == 60000
        assert data.n_features == 28 * 28

    def test_bad_magic_reports_offset(self, tmp_path):
        img = tmp_path / "train-images-idx3-ubyte"
        lbl = tmp_path / "train-labels-idx1-ubyte"
        img.write_bytes(struct.pack(">iiii", 0x804, 1, 2, 2) + bytes(4))
        lbl.write_bytes(struct.pack(">ii", 0x801, 1) + bytes(1))
        with pytest.raises(ValueError, match="offset 0"):
            load_mnist_idx(tmp_path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        img = tmp_path / "train-images-idx3-ubyte"
        lbl = tmp_path / "train-labels-idx1-ubyte"
        img.write_bytes(struct.pack(">iiii", 0x803, 2, 2, 2) + bytes(7))
        lbl.write_bytes(struct.pack(">ii", 0x801, 2) + bytes(2))
        with pytest.raises(ValueError, match="offset"):
            load_mnist_idx(tmp_path)

    def test_zero_separation_is_chance_level(self):
        data = synth_gaussian_mixture(5, 8, 3000, seed=41, separation=0.0)
        test = synth_gaussian_mixture(5, 8, 3000, seed=42, separation=0.0)
        w = init_weights(8, 5, derived_rng(41, "w"))
        for _ in range(30):
            w = local_sgd(
                w, data.features, data.labels, data.n_classes,
                eta=0.5, tau=1, batch_size=None, rng=derived_rng(41, "s"),
            )
        assert abs(accuracy(w, test) - 0.2) < 0.05

    def test_wide_separation_tracks_bayes_oracle(self):
        # At 6 sigma mean separation with 10 orthogonal classes the Bayes
        # error is itself about 1% (9 competitors at pairwise Q(3)), so the
        # trained linear model is checked against the nearest-mean oracle.
        data = synth_gaussian_mixture(10, 16, 2000, seed=43, separation=6.0)
        test = synth_gaussian_mixture(10, 16, 2000, seed=44, separation=6.0)
        scale = 6.0 / np.sqrt(2.0)
        means = np.zeros((10, 16))
        means[np.arange(10), np.arange(10)] = scale
        distances = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        bayes = (distances.argmin(axis=1) == test.labels).mean()
        w = init_weights(16, 10, derived_rng(43, "w"))
        for _ in range(100):
            w = local_sgd(
                w, data.features, data.labels, data.n_classes,
                eta=0.5, tau=1, batch_size=None, rng=derived_rng(43, "s"),
            )
        trained = accuracy(w, test)
        assert bayes > 0.985
        assert trained > bayes - 0.005

    def test_very_wide_separation_exceeds_99_percent(self):
        data = synth_gaussian_mixture(10, 16, 2000, seed=43, separation=7.0)
        test = synth_gaussian_mixture(10, 16, 2000, seed=44, separation=7.0)
        w = init_weights(16, 10, derived_rng(43, "w"))
        for _ in range(100):
            w = local_sgd(
                w, data.features, data.labels, data.n_classes,
                eta=0.5, tau=1, batch_size=None, rng=derived_rng(43, "s"),
            )
        assert accuracy(w, test) > 0.99

    def test_balanced_labels(self):
        data = synth_gaussian_mixture(10, 4, 2000, seed=45)
        assert np.all(np.bincount(data.labels) == 200)

    def test_determinism(self):
        a = synth_gaussian_mixture(3, 4, 50, seed=46)
        b = synth_gaussian_mixture(3, 4, 50, seed=46)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
