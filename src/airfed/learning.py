"""Federated averaging whose rounds differ only in the aggregation step.

The trainable model is multinomial logistic regression on flat weight
vectors (d * C weights plus C biases), which keeps every update a plain
q-vector as the channel layer expects.  Each round schedules devices, runs
local minibatch SGD from the broadcast model on every scheduled device,
takes one aggregation step (``ideal``, ``baa`` or ``digital``) that returns
the new model and the trace's channel columns, and evaluates on a held-out
set.  Only ``baa`` and ``digital`` derive the round's ``channel`` stream; a
round that schedules nobody skips the step and keeps the model.

Evaluation (``accuracy`` and ``local_loss``) runs on class-major (C, n)
logits, so every step after the matmul loops over the n samples rather
than over the C classes.  It returns the same bits as the row-major
formulas on (n, C) logits: the class sum adds its terms in numpy's
row-sum order, and the accuracy test follows ``ndarray.argmax`` on ties
and NaN.

The topology is the array of device distances.  Mobility is one of the two
analyzed extremes: ``static`` keeps the first drop for every round, and
``iid-resample`` redrops every device each round.  Each draw takes a
Generator derived from the root seed, so everything is deterministic
given that seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import network, phy
from .analytics import ScenarioParams, SystemParams
from .datasets import LabeledDataset
from .rng import derived_rng
from .tables import Table

logger = logging.getLogger(__name__)

AGGREGATIONS = ("ideal", "baa", "digital")
PARTITION_MODES = ("iid", "noniid-shards")
MOBILITY_MODES = ("static", "iid-resample")


@dataclass(frozen=True)
class PartitionSpec:
    """How the training corpus is split across devices.

    Every device gets the same number of samples, :meth:`per_device`.
    ``iid`` deals a random subset of the corpus; ``noniid-shards`` sorts it
    by label, cuts the whole of it into runs of
    ``per_device // shards_per_device`` samples, and deals
    ``shards_per_device`` runs drawn at random to each device.
    """

    mode: str = "iid"
    shard_size: int | None = None
    shards_per_device: int | None = None

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"mode must be one of {PARTITION_MODES}, got {self.mode!r}")
        for name in ("shard_size", "shards_per_device"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.mode == "noniid-shards" and self.shards_per_device is None:
            raise ValueError("noniid-shards partitioning needs shards_per_device")

    def per_device(self, n_samples: int, k_devices: int) -> int:
        """Samples each of ``k_devices`` devices gets from a corpus of
        ``n_samples``: ``shard_size * shards_per_device`` when both are set,
        else the corpus split evenly (into whole runs under
        ``noniid-shards``).  Raises ValueError unless every device gets at
        least one sample and all of them fit in the corpus."""
        spd = self.shards_per_device
        if self.shard_size is not None and spd is not None:
            per = self.shard_size * spd
        elif self.mode == "iid":
            per = n_samples // k_devices
        else:
            per = n_samples // (k_devices * spd) * spd
        if per < 1 or per * k_devices > n_samples:
            raise ValueError(
                f"cannot give {k_devices} devices {per} samples each from {n_samples} "
                f"(shard_size = {self.shard_size or 'unset'}, shards_per_device = {spd})"
            )
        return per


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 0.5
    tau: int = 1
    n_cr: int = 50
    batch_size: int | None = None
    aggregation: str = "ideal"

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.n_cr < 1:
            raise ValueError(f"n_cr must be >= 1, got {self.n_cr}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}")


class RoundRecord(NamedTuple):
    """One round's trace row; its fields are the trace columns, in order."""

    round: int
    accuracy: float
    loss: float
    latency_s: float
    rho0_db: float
    truncation_frac: float
    k_scheduled: int


TRACE_COLUMNS = RoundRecord._fields


@dataclass(frozen=True)
class TrainResult:
    records: tuple
    final_weights: np.ndarray

    @property
    def accuracy_trace(self) -> np.ndarray:
        return np.array([r.accuracy for r in self.records])

    @property
    def latency_trace(self) -> np.ndarray:
        return np.array([r.latency_s for r in self.records])

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].accuracy if self.records else float("nan")

    @property
    def total_latency_s(self) -> float:
        return float(sum(r.latency_s for r in self.records))


# ---------------------------------------------------------------------------
# Softmax-regression model on flat weight vectors
# ---------------------------------------------------------------------------

def model_dim(n_features: int, n_classes: int) -> int:
    return n_features * n_classes + n_classes


def init_weights(n_features: int, n_classes: int, rng) -> np.ndarray:
    """Small N(0, 0.01^2) init; keeps the broadcast normalization non-degenerate."""
    return rng.normal(0.0, 1e-2, size=model_dim(n_features, n_classes))


def _unpack(weights: np.ndarray, n_features: int, n_classes: int):
    expected = model_dim(n_features, n_classes)
    if weights.shape[-1:] != (expected,):
        raise ValueError(f"weights must have shape (..., {expected}), got {weights.shape}")
    w = weights[..., : n_features * n_classes].reshape(*weights.shape[:-1], n_features, n_classes)
    b = weights[..., n_features * n_classes :]
    return w, b


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _class_major_logits(weights: np.ndarray, dataset: LabeledDataset) -> np.ndarray:
    """The (C, n) logits, C-contiguous: ``features @ w`` as the row-major
    formulas compute it, one transposed copy, then the bias in place.  Each
    entry has the bits of ``features @ w + b``; only the layout differs."""
    w, b = _unpack(weights, dataset.n_features, dataset.n_classes)
    logits = (dataset.features @ w).T.copy()
    logits += b[:, None]
    return logits


def _at_labels(class_major: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``class_major[labels[i], i]`` for every sample i, as one flat take."""
    n = labels.size
    return np.take(class_major, labels * n + np.arange(n))


def _class_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of class-major ``terms`` (C, n) with the bits of
    ``row_major.sum(axis=-1)``, row_major being the same terms as a
    C-contiguous (n, C) array.

    numpy adds one contiguous row of C < 8 terms in sequence, which is how
    it reduces the outer axis of ``terms`` too, and up to 128 terms into
    eight strided partial sums that it combines pairwise before adding the
    tail.  Each step here is that addition, done for all n samples at once.
    Longer rows, which numpy splits recursively, take the row-major sum.
    numpy also adds the row's sum to a starting 0.0, which changes only a
    sum of -0.0; the terms here are exp values, never -0.0.
    """
    c = terms.shape[0]
    if c > 128:
        return np.ascontiguousarray(terms.T).sum(axis=-1)
    if c < 8:
        return terms.sum(axis=0)
    acc = terms[:8].copy()
    tail = c - c % 8
    for start in range(8, tail, 8):
        acc += terms[start : start + 8]
    acc[::2] += acc[1::2]
    acc[::4] += acc[2::4]
    acc[0] += acc[4]
    for row in terms[tail:]:
        acc[0] += row
    return acc[0]


def local_loss(weights: np.ndarray, shard: LabeledDataset) -> float:
    """Mean cross-entropy of the model on one device's shard."""
    if len(shard) == 0:
        raise ValueError("cannot evaluate the loss of an empty shard")
    shifted = _class_major_logits(weights, shard)
    shifted -= shifted.max(axis=0)
    label_logit = _at_labels(shifted, shard.labels)
    # exp overwrites the shifted logits, which nothing reads afterwards.
    log_norm = np.log(_class_sum(np.exp(shifted, out=shifted)))
    return float(-(label_logit - log_norm).mean())


def global_loss(weights: np.ndarray, features: np.ndarray, labels: np.ndarray, n_classes: int) -> float:
    """Mean of the per-device losses over equal-sized shards stacked as
    features ``(K, n, d)`` and labels ``(K, n)``: one loss over the pooled
    samples, which a contiguous stack reshapes to without a copy."""
    pooled = LabeledDataset(features.reshape(-1, features.shape[-1]), labels.reshape(-1), n_classes)
    return local_loss(weights, pooled)


def loss_gradient(weights: np.ndarray, features: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy, flattened like weights.

    Weights ``(..., q)``, features ``(..., n, d)`` and labels ``(..., n)``
    share their leading (device) axes; each leading index is one model on
    its own samples.
    """
    n, d = features.shape[-2:]
    w, b = _unpack(weights, d, n_classes)
    p = np.exp(_log_softmax(features @ w + b[..., None, :]))
    p -= labels[..., None] == np.arange(n_classes)
    grad_w = np.swapaxes(features, -1, -2) @ p / n
    grad_b = p.mean(axis=-2)
    return np.concatenate([grad_w.reshape(*grad_w.shape[:-2], d * n_classes), grad_b], axis=-1)


def accuracy(weights: np.ndarray, dataset: LabeledDataset) -> float:
    """Share of samples whose label is the predicted class.

    The prediction is ``ndarray.argmax`` over the class logits: among tied
    maxima the lowest class wins, and a NaN logit counts as the maximum, so
    the first NaN wins.  On class-major logits that reads: the label is
    predicted iff its logit is a column maximum (or a NaN, where the
    column's maximum is NaN) and no lower class's logit is.
    """
    logits = _class_major_logits(weights, dataset)
    top = (logits == logits.max(axis=0)) | np.isnan(logits)
    labels = dataset.labels
    lower = np.arange(dataset.n_classes)[:, None] < labels
    predicted = _at_labels(top, labels) & ~(top & lower).any(axis=0)
    return float(predicted.mean())


def local_sgd(
    weights: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    eta: float,
    tau: int,
    batch_size: int | None,
    rng,
) -> np.ndarray:
    """tau minibatch gradient steps from the broadcast model.

    Features ``(..., n, d)`` and labels ``(..., n)`` stack one shard per
    leading index; the ``(q,)`` model is broadcast over those axes and the
    result has shape ``(..., q)``.  Each step draws every shard's minibatch
    without replacement in one call; full-batch steps draw nothing, so
    ``rng`` is then unused and may be None.
    """
    n = features.shape[-2]
    if n == 0:
        raise ValueError("cannot train on an empty shard")
    lead = features.shape[:-2]
    w = np.broadcast_to(weights, lead + weights.shape).copy()
    full_batch = batch_size is None or batch_size >= n
    for _ in range(tau):
        if full_batch:
            batch_x, batch_y = features, labels
        else:
            idx = rng.permuted(np.broadcast_to(np.arange(n), lead + (n,)), axis=-1)[..., :batch_size]
            batch_x = np.take_along_axis(features, idx[..., None], axis=-2)
            batch_y = np.take_along_axis(labels, idx, axis=-1)
        w -= eta * loss_gradient(w, batch_x, batch_y, n_classes)
    return w


def global_average(local_models) -> np.ndarray:
    """Coordinate-wise mean of equal-dimension local models."""
    mat = np.asarray(local_models, dtype=float)
    if mat.size == 0:
        raise ValueError("cannot average an empty model list")
    return mat.mean(axis=0)


# ---------------------------------------------------------------------------
# Data partitioning
# ---------------------------------------------------------------------------

def partition(dataset: LabeledDataset, spec: PartitionSpec, k_devices: int, rng) -> np.ndarray:
    """Split the corpus into k equal-sized device shards.

    Returns the (k, n) matrix of sample indices, one row per device, so
    ``dataset.features[rows]`` stacks every shard in one gather.
    """
    n = len(dataset)
    per_device = spec.per_device(n, k_devices)
    if spec.mode == "iid":
        return rng.permutation(n)[: per_device * k_devices].reshape(k_devices, per_device)

    # noniid-shards: the whole label-sorted corpus cut into equal runs, of
    # which K * shards_per_device are dealt at random
    run = per_device // spec.shards_per_device
    n_runs = n // run
    runs = np.argsort(dataset.labels, kind="stable")[: n_runs * run].reshape(n_runs, run)
    dealt = rng.permutation(n_runs)[: k_devices * spec.shards_per_device]
    return runs[dealt].reshape(k_devices, -1)


# ---------------------------------------------------------------------------
# Federated training loop
# ---------------------------------------------------------------------------

def _snr_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


# The trace's channel columns (latency_s, rho0_db, truncation_frac) of a
# round that sends nothing over the air: ideal averaging or an empty round.
_NO_CHANNEL = (0.0, float("nan"), float("nan"))


def _aggregate(aggregation, weights, locals_, scheduled, params, scenario, seed, rnd):
    """One round's aggregation step: the new global model from the local
    models of the devices at distances ``scheduled``, and the round's
    channel columns.  Only ``baa`` and ``digital`` derive the round's
    ``channel`` stream."""
    if aggregation == "ideal":
        return global_average(locals_), _NO_CHANNEL
    channel = derived_rng(seed, "channel", rnd)
    if aggregation == "baa":
        norm_spec = phy.normalization_from_values(weights)
        symbols = phy.normalize_updates(locals_, norm_spec)
        aggregate, diag = phy.baa_round(symbols, scheduled, params, channel)
        columns = (diag.latency_s, _snr_db(diag.rho0 / params.n0), float(diag.truncation_fraction.mean()))
        return phy.denormalize(aggregate, norm_spec, 1), columns
    result = phy.digital_round(locals_, scheduled, params, scenario, channel)
    columns = (result.round_latency_s, _snr_db(result.per_device_snr[scheduled.argmax()]), float("nan"))
    return result.aggregate, columns


def federated_train(
    dataset: LabeledDataset,
    partition_spec: PartitionSpec,
    train_cfg: TrainConfig,
    params: SystemParams,
    scenario: ScenarioParams,
    scheme: network.SchedulingScheme,
    seed: int,
    test_set: LabeledDataset,
    mobility: str = "static",
    topology_seed: int | None = None,
) -> TrainResult:
    """Run the full per-round loop and return traces plus the final model.

    Rounds whose scheduled set is empty leave the model untouched and are
    recorded with zero latency.  The scenario's model dimension is replaced
    by the actual model size derived from the data.  ``mobility`` is one of
    ``MOBILITY_MODES``.  ``topology_seed`` pins the first drop independently
    of the training randomness, for sweeps that hold one deployment fixed.
    A round whose arithmetic overflows or yields a NaN raises ValueError
    naming the round: the model has diverged, as it does within a few
    rounds when the receive SNR is so low that the aggregate is noise.
    """
    if mobility not in MOBILITY_MODES:
        raise ValueError(f"mobility must be one of {MOBILITY_MODES}, got {mobility!r}")
    k = scenario.k_devices
    rows = partition(dataset, partition_spec, k, derived_rng(seed, "partition"))
    features = dataset.features[rows]
    labels = dataset.labels[rows]
    d, n_classes = dataset.n_features, dataset.n_classes
    q = model_dim(d, n_classes)
    scenario = replace(scenario, q_dim=q)

    weights = init_weights(d, n_classes, derived_rng(seed, "init"))
    radii = network.sample_topology(
        k, params.r_cell, derived_rng(seed if topology_seed is None else topology_seed, "topology")
    )

    # Derive only the streams a round draws from: static devices never
    # move and full-batch SGD never samples.
    static = mobility == "static"
    minibatch = train_cfg.batch_size is not None and train_cfg.batch_size < features.shape[1]
    records = []
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for rnd in range(train_cfg.n_cr):
                if rnd > 0:
                    radii = network.advance_round(
                        radii, params.r_cell, None if static else derived_rng(seed, "mobility", rnd)
                    )
                ids = network.schedule(radii, scheme, rnd)
                if ids.size == 0:
                    logger.info("round %d: no device inside r_in, skipping aggregation", rnd)
                    channel = _NO_CHANNEL
                else:
                    locals_ = local_sgd(
                        weights,
                        features[ids],
                        labels[ids],
                        n_classes,
                        train_cfg.eta,
                        train_cfg.tau,
                        train_cfg.batch_size,
                        derived_rng(seed, "sgd", rnd) if minibatch else None,
                    )
                    weights, channel = _aggregate(
                        train_cfg.aggregation, weights, locals_, radii[ids], params, scenario, seed, rnd
                    )
                evaluation = accuracy(weights, test_set), global_loss(weights, features, labels, n_classes)
                records.append(RoundRecord(rnd, *evaluation, *channel, ids.size))
    except FloatingPointError as exc:
        raise ValueError(
            f"round {rnd} of {train_cfg.aggregation} training: the model left the float range ({exc})"
        ) from exc
    return TrainResult(records=tuple(records), final_weights=weights)


def trace_table(result: TrainResult) -> Table:
    """Per-round trace as a table with the standard column schema."""
    return Table(TRACE_COLUMNS, list(result.records))


def trace_csv(result: TrainResult) -> str:
    """Per-round trace as CSV text with the standard column schema."""
    return trace_table(result).render("csv")
