"""Training loop, model math, and partitioning against direct oracles.

The gradient is checked by central finite differences; the one-step SGD
update against a from-scratch probability computation; partition modes by
exact accounting; channel substitutability by running the same seeds
through all three aggregation paths.
"""

import functools
import math
import struct
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from airfed import learning, network, phy
from airfed.analytics import ScenarioParams, SystemParams
from airfed.datasets import LabeledDataset, load_mnist_idx, synth_gaussian_mixture
from airfed.learning import (
    AGGREGATIONS,
    MOBILITY_MODES,
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
from conftest import traced_peak, write_idx_pair

PARAMS = SystemParams(p0=0.1, m=1000, b=1e6, alpha=3.0, r_cell=100.0, g_th=0.2, n0=1e-11)


def toy_dataset(n=40, classes=4, dim=6, seed=0):
    return synth_gaussian_mixture(classes, dim, n, seed=seed, separation=4.0)


def dataset_caches():
    """Names of the arrays each :class:`LabeledDataset` forms once and keeps."""
    return [name for name, attr in vars(LabeledDataset).items() if isinstance(attr, functools.cached_property)]


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
        pooled = data.subset(rows.reshape(-1))
        assert global_loss(weights, pooled) == pytest.approx(mean_local, abs=1e-12)

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

    def test_accuracy_of_an_empty_dataset_rejected(self):
        # Like the loss, not a nan with numpy's "Mean of empty slice" warning.
        empty = LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), n_classes=2)
        with pytest.raises(ValueError, match="empty"):
            accuracy(np.zeros(model_dim(3, 2)), empty)


# The row-major formulas that the class-major ones replaced, kept verbatim
# as the reference: the gradient keeps their bits on finite inputs, and the
# loss lies within a few ulps of theirs.
def row_major_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def row_major_local_loss(weights, shard):
    w, b = learning._unpack(weights, shard.n_features, shard.n_classes)
    log_p = row_major_log_softmax(shard.features @ w + b)
    return float(-log_p[np.arange(len(shard)), shard.labels].mean())


def row_major_loss_gradient(weights, features, labels, n_classes):
    n, d = features.shape[-2:]
    w, b = learning._unpack(weights, d, n_classes)
    p = np.exp(row_major_log_softmax(features @ w + b[..., None, :]))
    p -= labels[..., None] == np.arange(n_classes)
    grad_w = np.swapaxes(features, -1, -2) @ p / n
    grad_b = p.mean(axis=-2)
    return np.concatenate([grad_w.reshape(*grad_w.shape[:-2], d * n_classes), grad_b], axis=-1)


def row_major_accuracy(weights, dataset):
    w, b = learning._unpack(weights, dataset.n_features, dataset.n_classes)
    predicted = (dataset.features @ w + b).argmax(axis=1)
    return float((predicted == dataset.labels).mean())


def assert_same_bits(value, reference):
    assert value == reference or (np.isnan(value) and np.isnan(reference))


# The class-major loss sums its exp terms in another order than the
# row-major one; a few ulps bound what that moves.
LOSS_RTOL = 4 * np.finfo(float).eps


class TestClassMajorEvaluation:
    """``accuracy`` and ``local_loss`` evaluate class-major logits: the
    accuracy must be exactly the row-major formula's, and the loss within
    ``LOSS_RTOL`` of it (both NaN where it is NaN)."""

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
                expected = row_major_local_loss(weights, data)
                assert local_loss(weights, data) == pytest.approx(expected, rel=LOSS_RTOL, abs=0.0)

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


class TestClassMajorGradient:
    """``loss_gradient`` forms its softmax on class-major logits and must
    return exactly the bytes of the row-major formula on finite features.
    On non-finite ones only a NaN's payload may differ: NaN, +inf and -inf
    lie in the same entries, and every other entry keeps its bytes."""

    # Leading axes of the weights and of the features: none, one and two
    # device axes, one model broadcast over a device axis, and G models on
    # the same samples, alone or each over a device axis.
    @pytest.mark.parametrize(
        "weights_lead, features_lead",
        [((), ()), ((3,), (3,)), ((2, 3), (2, 3)), ((), (3,)), ((4,), ()), ((4, 3), (3,))],
    )
    @pytest.mark.parametrize("classes", [2, 3, 7, 8, 9, 10, 16, 17, 64, 129])
    def test_gradient_matches_row_major_bytes(self, classes, weights_lead, features_lead):
        dim = 5
        rng = derived_rng(8, "gradient", classes, len(weights_lead), len(features_lead))
        for n in (1, 2, 3, 8, 31):
            features = rng.normal(0.0, 1.0, features_lead + (n, dim))
            labels = rng.integers(0, classes, features_lead + (n,))
            non_finite = features.copy()
            cells = rng.integers(0, non_finite.size, max(1, non_finite.size // 5))
            non_finite.reshape(-1)[cells] = rng.choice([np.inf, -np.inf, np.nan], cells.size)
            for scale in (1e-3, 0.1, 1.0, 10.0, 300.0):
                weights = rng.normal(0.0, scale, weights_lead + (model_dim(dim, classes),))
                for x in (features, non_finite):
                    with np.errstate(all="ignore"):
                        got = loss_gradient(weights, x, labels, classes)
                        expected = row_major_loss_gradient(weights, x, labels, classes)
                    assert got.shape == expected.shape
                    nan = np.isnan(expected)
                    assert np.array_equal(np.isnan(got), nan), (n, scale)
                    assert got[~nan].tobytes() == expected[~nan].tobytes(), (n, scale)
                    if np.isfinite(x).all():
                        assert got.tobytes() == expected.tobytes(), (n, scale)
                    if len(weights_lead) > len(features_lead):
                        # G models on the same samples: each gets the bytes of its own call.
                        for g in range(weights_lead[0]):
                            with np.errstate(all="ignore"):
                                alone = loss_gradient(weights[g], x, labels, classes)
                            assert got[g].tobytes() == alone.tobytes(), (n, scale, g)


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
    @pytest.mark.parametrize(
        "devices, n, dim, classes",
        [
            pytest.param(1, 12, 5, 3, id="1"),
            pytest.param(7, 12, 5, 3, id="7"),
            pytest.param(50, 12, 5, 3, id="50"),
            # Single-sample shards: numpy sums a lone (C, 1) column pairwise
            # but a (C, K) block row by row, so a class sum down the columns
            # of the pooled logits would break the equality here.
            pytest.param(4, 1, 5, 8, id="4x1-C8"),
            pytest.param(4, 1, 5, 10, id="4x1-C10"),
            # The desk benchmark's shards: 48 devices of 10 samples.
            pytest.param(48, 10, 16, 10, id="48x10-d16-C10"),
        ],
    )
    def test_device_axis_equals_per_device_calls(self, devices, n, dim, classes, tau):
        # A (K, n, d) shard stack gives each device exactly its own 2-D result.
        rng = derived_rng(7, "stack", devices)
        features = rng.normal(0.0, 1.0, size=(devices, n, dim))
        labels = rng.integers(0, classes, size=(devices, n))
        w0 = init_weights(dim, classes, derived_rng(7, "w"))
        stacked = local_sgd(w0, features, labels, classes, 0.3, tau, None, derived_rng(7, "s"))
        per_device = [
            local_sgd(w0, features[i], labels[i], classes, 0.3, tau, None, derived_rng(7, "s"))
            for i in range(devices)
        ]
        assert np.array_equal(stacked, np.stack(per_device))
        models = rng.normal(0.0, 1.0, size=(devices, model_dim(dim, classes)))
        gradients = [loss_gradient(models[i], features[i], labels[i], classes) for i in range(devices)]
        assert np.array_equal(loss_gradient(models, features, labels, classes), np.stack(gradients))


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


class TestAggregateStep:
    # 20 OFDM symbols of M = 1000 sub-channels.
    K, Q = 50, 20_000
    SCENARIO = ScenarioParams(k_devices=K, r_in=100.0, q_dim=Q)

    def inputs(self):
        weights = derived_rng(8, "weights").normal(0.0, 0.1, self.Q)
        locals_ = weights + derived_rng(8, "locals").normal(0.0, 0.01, (self.K, self.Q))
        return weights, locals_, np.linspace(25.0, 95.0, self.K)

    def test_baa_step_equals_normalize_round_denormalize_bytewise(self):
        weights, locals_, radii = self.inputs()
        spec = phy.normalization_from_values(weights)
        aggregate, _ = phy.baa_round(
            phy.normalize_updates(locals_, spec), radii, PARAMS, derived_rng(8, "channel", 3)
        )
        expected = phy.denormalize(aggregate, spec, 1)
        got, _ = learning._aggregate("baa", weights, locals_, radii, PARAMS, self.SCENARIO, 8, 3)
        assert got.tobytes() == expected.tobytes()

    def test_baa_step_allocates_less_than_one_float_matrix(self):
        # The step normalizes the local models in place and the round
        # streams them, so no second float64 (K, q) array is made.
        weights, locals_, radii = self.inputs()
        peak = traced_peak(learning._aggregate, "baa", weights, locals_, radii, PARAMS, self.SCENARIO, 8, 3)
        assert peak < 8 * self.K * self.Q


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

    # Only the analog step draws from the channel stream, and only in rounds
    # that schedule someone: the digital step flips no bits in training.
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
        expected = [("channel", rnd) for rnd in range(scheduled_rounds)] if aggregation == "baa" else []
        assert channel == expected

    def test_data_only_arrays_stay_out_of_the_round_loop(self, monkeypatch):
        # The pooled training set and each dataset's cached arrays depend on
        # the data alone, so a longer run forms no more of them.  Each of the
        # two evaluated datasets, the test set and the pooled training set,
        # forms its transposed features exactly once.
        counts = Counter()
        formed_by = {name: [] for name in dataset_caches()}
        post_init = LabeledDataset.__post_init__

        def counting_post_init(dataset):
            counts["LabeledDataset"] += 1
            post_init(dataset)

        monkeypatch.setattr(LabeledDataset, "__post_init__", counting_post_init)
        for name in formed_by:
            form = LabeledDataset.__dict__[name].func

            def counting_form(dataset, form=form, name=name):
                counts[name] += 1
                formed_by[name].append(dataset)
                return form(dataset)

            prop = functools.cached_property(counting_form)
            prop.__set_name__(LabeledDataset, name)
            monkeypatch.setattr(LabeledDataset, name, prop)

        per_run = []
        for n_cr in (2, 8):
            train, test = toy_dataset(n=40, seed=36), toy_dataset(n=30, seed=37)
            counts.clear()
            for datasets in formed_by.values():
                datasets.clear()
            cfg = TrainConfig(eta=0.3, tau=1, n_cr=n_cr, batch_size=None, aggregation="ideal")
            federated_train(
                train, PartitionSpec(mode="iid"), cfg, PARAMS, self.scenario(4),
                SchedulingScheme.all_inclusive(), 67, test,
            )
            per_run.append(dict(counts))
            transposed = formed_by["transposed_features"]
            assert sorted(map(len, transposed)) == [30, 40]
            assert any(dataset is test for dataset in transposed)
        assert per_run[0] == per_run[1]
        assert per_run[0]["LabeledDataset"] >= 1 and per_run[0]["label_index"] >= 2

    SCHEMES = {
        "all-inclusive": SchedulingScheme.all_inclusive(),
        "cell-interior": SchedulingScheme.cell_interior(55.0),
        "alternating": SchedulingScheme.alternating(55.0),
    }

    def counted_run(self, monkeypatch, aggregation, scheme, mobility, n_cr):
        """How often one run formed each part of a scheduled set's link
        budget and gathered its shard stack, with every memo emptied first;
        and the sets of devices scheduled, one per round that scheduled
        someone, in round order."""
        for memo in (phy._memo_rho0, phy._memo_digital_budget):
            memo.cache_clear()
        counts = Counter()
        for module, name in (
            (phy, "align_rho0"),
            (phy, "latency_digital"),
            (phy, "digital_device_snr"),
            (learning, "_gather_shards"),
        ):
            form = getattr(module, name)

            def counted(*args, _name=name, _form=form):
                counts[_name] += 1
                return _form(*args)

            monkeypatch.setattr(module, name, counted)
        scheduled = []
        schedule = network.schedule

        def recorded_schedule(*args):
            ids = schedule(*args)
            if ids.size:
                scheduled.append(ids.tobytes())
            return ids

        monkeypatch.setattr(network, "schedule", recorded_schedule)
        data = toy_dataset(n=40, seed=36)
        cfg = TrainConfig(eta=0.3, tau=1, n_cr=n_cr, batch_size=None, aggregation=aggregation)
        result = federated_train(
            data, PartitionSpec(mode="iid"), cfg, PARAMS, self.scenario(4), self.SCHEMES[scheme], 67, data,
            mobility=mobility,
        )
        return dict(counts), scheduled

    @staticmethod
    def stacks_gathered(scheduled):
        """How many shard stacks a run that keeps those of its last two
        scheduled sets gathers over the sets ``scheduled``."""
        kept, gathered = [], 0
        for ids in scheduled:
            if ids in kept:
                kept.remove(ids)
            else:
                gathered += 1
            kept = [*kept, ids][-2:]
        return gathered

    @staticmethod
    def expected_forms(aggregation, times, stacks):
        forms = {"_gather_shards": stacks}
        if aggregation == "baa":
            forms["align_rho0"] = times
        if aggregation == "digital":
            forms["latency_digital"] = forms["digital_device_snr"] = times
        return forms

    # Static devices schedule one set every round (two under alternating),
    # so a longer run forms no more link budgets and gathers no more shard
    # stacks; moving devices make a new set every round.  An all-inclusive
    # run schedules the same devices every round, so it gathers their
    # stack once even where they move.  A per_run of None stands for once
    # a round; a stacks_per_run of None, for once a round unless the round
    # schedules the devices of one of the last two sets again.
    @pytest.mark.parametrize("aggregation", ["ideal", "baa", "digital"])
    @pytest.mark.parametrize(
        "scheme, mobility, per_run, stacks_per_run",
        [
            ("all-inclusive", "static", 1, 1),
            ("cell-interior", "static", 1, 1),
            ("alternating", "static", 2, 2),
            ("all-inclusive", "iid-resample", None, 1),
            ("cell-interior", "iid-resample", None, None),
        ],
    )
    def test_forms_each_scheduled_sets_link_budget_once(
        self, monkeypatch, aggregation, scheme, mobility, per_run, stacks_per_run
    ):
        for n_cr in (2, 8):
            counts, scheduled = self.counted_run(monkeypatch, aggregation, scheme, mobility, n_cr)
            assert len(scheduled) >= min(n_cr, 2)
            expected = self.expected_forms(
                aggregation, per_run or len(scheduled), stacks_per_run or self.stacks_gathered(scheduled)
            )
            assert counts == expected, (n_cr, counts)

    @staticmethod
    def bypass_memos(monkeypatch):
        """Form every round's link budget and shard stack anew."""
        for name in ("_memo_rho0", "_memo_digital_budget"):
            monkeypatch.setattr(phy, name, getattr(phy, name).__wrapped__)
        monkeypatch.setattr(learning, "_SETS_KEPT", 0)

    @pytest.mark.parametrize("mobility", MOBILITY_MODES)
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_memos_keep_every_byte(self, monkeypatch, scheme, mobility):
        rounds = []
        real_round = phy.digital_round

        def recorded_round(*args, **kwargs):
            result = real_round(*args, **kwargs)
            rounds.append(result.per_device_latency_s.tobytes() + struct.pack("<d", result.round_latency_s))
            return result

        monkeypatch.setattr(phy, "digital_round", recorded_round)
        data, test = toy_dataset(n=40, seed=36), toy_dataset(n=30, seed=37)

        gathers = []
        gather = learning._gather_shards

        def counted_gather(*args):
            gathers.append(args[0])
            return gather(*args)

        monkeypatch.setattr(learning, "_gather_shards", counted_gather)

        def runs():
            out, scheduled_rounds = [], 0
            for aggregation in AGGREGATIONS:
                cfg = TrainConfig(eta=0.3, tau=1, n_cr=6, batch_size=5, aggregation=aggregation)
                result = federated_train(
                    data, PartitionSpec(mode="iid"), cfg, PARAMS, self.scenario(4), self.SCHEMES[scheme],
                    67, test, mobility=mobility,
                )
                out.append((trace_csv(result), result.final_weights.tobytes()))
                scheduled_rounds += sum(record.k_scheduled > 0 for record in result.records)
            return out, rounds[:], scheduled_rounds

        kept = runs()
        rounds.clear()
        gathers.clear()
        self.bypass_memos(monkeypatch)
        bypassed = runs()
        assert bypassed == kept
        assert kept[1]
        # The bypass reaches the run's shard-stack cache: one gather per
        # round that schedules someone.
        assert len(gathers) == bypassed[2] > 0

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

    def test_a_round_that_schedules_nobody_is_the_default_row(self):
        assert repr(learning.RoundRecord(3, 0.5, 1.2)) == (
            "RoundRecord(round=3, accuracy=0.5, loss=1.2, latency_s=0.0, rho0_db=nan, "
            "truncation_frac=nan, k_scheduled=0, max_tx_power_ratio=nan, min_contributors=nan)"
        )
        data = toy_dataset(n=40, seed=34)
        cfg = TrainConfig(eta=0.3, tau=1, n_cr=4, batch_size=None, aggregation="baa")
        # Interior radius so small that no device qualifies.
        result = federated_train(
            data, PartitionSpec(mode="iid"), cfg, PARAMS, self.scenario(4),
            SchedulingScheme.cell_interior(1e-6), 55, data,
        )
        for record in result.records:
            assert repr(record) == repr(learning.RoundRecord(record.round, record.accuracy, record.loss))

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
        assert header == (
            "round,accuracy,loss,latency_s,rho0_db,truncation_frac,k_scheduled,max_tx_power_ratio,min_contributors"
        )
        assert len(text.splitlines()) == 4
        assert result.records[0].latency_s > 0

    def audit_columns(self, aggregation, params):
        data = toy_dataset(n=40, seed=37)
        cfg = TrainConfig(eta=0.3, tau=1, n_cr=3, batch_size=None, aggregation=aggregation)
        result = federated_train(
            data, PartitionSpec(mode="iid"), cfg, params, self.scenario(4),
            SchedulingScheme.all_inclusive(), 68, data,
        )
        return [(r.max_tx_power_ratio, r.min_contributors, r.k_scheduled) for r in result.records]

    def test_analog_rounds_record_their_power_and_contributor_audits(self):
        for ratio, contributors, k_scheduled in self.audit_columns("baa", PARAMS):
            assert math.isfinite(ratio) and ratio > 0
            assert type(ratio) is float and type(contributors) is int
            assert contributors <= k_scheduled
        # At g_th = 1e-9 no gain falls below the cutoff, so every entry is sent by all.
        for _, contributors, k_scheduled in self.audit_columns("baa", replace(PARAMS, g_th=1e-9)):
            assert contributors == k_scheduled == 4

    @pytest.mark.parametrize("aggregation", ["ideal", "digital"])
    def test_other_rounds_leave_the_audits_unset(self, aggregation):
        for ratio, contributors, _ in self.audit_columns(aggregation, PARAMS):
            assert math.isnan(ratio) and math.isnan(contributors)


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

    def test_cached_arrays_are_read_only(self):
        data = toy_dataset(n=50, classes=5, dim=3, seed=47)
        weights = init_weights(3, 5, derived_rng(47, "w"))
        before = accuracy(weights, data), local_loss(weights, data)
        names = dataset_caches()
        assert {"label_index", "below_label", "transposed_features"} <= set(names)
        for name in names:
            array = getattr(data, name)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array
        assert (accuracy(weights, data), local_loss(weights, data)) == before
        # The checked arrays are read-only views; the caller's stay writeable.
        features, labels = data.features.copy(), data.labels.copy()
        viewed = LabeledDataset(features, labels, data.n_classes)
        for array, own in ((viewed.features, features), (viewed.labels, labels)):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0
            assert own.flags.writeable
        assert (accuracy(weights, viewed), local_loss(weights, viewed)) == before

    def test_transposed_features_are_c_contiguous(self):
        for n, dim in ((1, 4), (7, 1), (40, 6)):
            data = toy_dataset(n=n, classes=3, dim=dim, seed=48)
            transposed = data.transposed_features
            assert transposed.flags.c_contiguous
            assert np.array_equal(transposed, data.features.T)

    def test_balanced_labels(self):
        data = synth_gaussian_mixture(10, 4, 2000, seed=45)
        assert np.all(np.bincount(data.labels) == 200)

    def test_determinism(self):
        a = synth_gaussian_mixture(3, 4, 50, seed=46)
        b = synth_gaussian_mixture(3, 4, 50, seed=46)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
