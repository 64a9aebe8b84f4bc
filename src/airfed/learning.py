"""Federated averaging with a pluggable aggregation channel.

The trainable model is multinomial logistic regression on flat weight
vectors (d * C weights plus C biases), which keeps every update a plain
q-vector as the channel layer expects.  Each round: broadcast the global
model, schedule devices, run local minibatch SGD, aggregate through one of
{ideal, baa, digital}, and evaluate on a held-out set.  Everything is
deterministic given the root seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import network, phy
from .analytics import ScenarioParams, SystemParams
from .datasets import LabeledDataset
from .rng import as_rng, derived_rng
from .tables import Table

logger = logging.getLogger(__name__)

AGGREGATIONS = ("ideal", "baa", "digital")
PARTITION_MODES = ("iid", "noniid-shards")

TRACE_COLUMNS = ("round", "accuracy", "loss", "latency_s", "rho0_db", "truncation_frac", "k_scheduled")


@dataclass(frozen=True)
class PartitionSpec:
    """How the training corpus is split across devices.

    ``iid`` ignores the shard fields unless given (they then fix the
    per-device size); ``noniid-shards`` sorts by label, cuts the head of
    the corpus into K * ``shards_per_device`` runs of ``shard_size``
    samples, K being the device count, and deals ``shards_per_device``
    runs to each device.
    """

    mode: str = "iid"
    shard_size: int | None = None
    shards_per_device: int | None = None

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"mode must be one of {PARTITION_MODES}, got {self.mode!r}")
        if self.mode == "noniid-shards":
            if None in (self.shard_size, self.shards_per_device):
                raise ValueError("noniid-shards partitioning needs both shard fields")
        for name in ("shard_size", "shards_per_device"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


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
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    accuracy: float
    loss: float
    latency_s: float
    rho0_db: float
    truncation_frac: float
    k_scheduled: int


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
    rng = as_rng(rng)
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


def local_loss(weights: np.ndarray, shard: LabeledDataset) -> float:
    """Mean cross-entropy of the model on one device's shard."""
    if len(shard) == 0:
        raise ValueError("cannot evaluate the loss of an empty shard")
    w, b = _unpack(weights, shard.n_features, shard.n_classes)
    log_p = _log_softmax(shard.features @ w + b)
    return float(-log_p[np.arange(len(shard)), shard.labels].mean())


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
    w, b = _unpack(weights, dataset.n_features, dataset.n_classes)
    predicted = (dataset.features @ w + b).argmax(axis=1)
    return float((predicted == dataset.labels).mean())


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
    without replacement in one call.
    """
    n = features.shape[-2]
    if n == 0:
        raise ValueError("cannot train on an empty shard")
    rng = as_rng(rng)
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
    rng = as_rng(rng)
    n = len(dataset)
    if spec.mode == "iid":
        if spec.shard_size is not None and spec.shards_per_device is not None:
            per_device = spec.shard_size * spec.shards_per_device
        else:
            per_device = n // k_devices
        if per_device < 1 or per_device * k_devices > n:
            raise ValueError(
                f"cannot give {k_devices} devices {per_device} samples each from {n}"
            )
        return rng.permutation(n)[: per_device * k_devices].reshape(k_devices, per_device)

    # noniid-shards: label-sorted corpus cut into equal runs, dealt at random
    shard_size = spec.shard_size
    shards_total = k_devices * spec.shards_per_device
    if shards_total * shard_size > n:
        raise ValueError(
            f"{shards_total} shards of {shard_size} need {shards_total * shard_size} samples, have {n}"
        )
    by_label = np.argsort(dataset.labels, kind="stable")[: shards_total * shard_size]
    shard_indices = by_label.reshape(shards_total, shard_size)
    dealt = rng.permutation(shards_total).reshape(k_devices, spec.shards_per_device)
    return shard_indices[dealt].reshape(k_devices, -1)


# ---------------------------------------------------------------------------
# Federated training loop
# ---------------------------------------------------------------------------

def _snr_db(linear: float) -> float:
    return 10.0 * math.log10(linear) if linear > 0 else float("nan")


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
    by the actual model size derived from the data.  ``topology_seed`` pins
    the network realization independently of the training randomness, for
    sweeps that hold one deployment fixed.
    """
    k = scenario.k_devices
    rows = partition(dataset, partition_spec, k, derived_rng(seed, "partition"))
    features = dataset.features[rows]
    labels = dataset.labels[rows]
    d, n_classes = dataset.n_features, dataset.n_classes
    q = model_dim(d, n_classes)
    scenario = replace(scenario, q_dim=q)

    weights = init_weights(d, n_classes, derived_rng(seed, "init"))
    net = network.sample_topology(
        k, params.r_cell, derived_rng(seed if topology_seed is None else topology_seed, "topology")
    )
    net = replace(net, mobility=mobility)

    records = []
    for rnd in range(train_cfg.n_cr):
        if rnd > 0:
            net = network.advance_round(net, derived_rng(seed, "mobility", rnd))
        ids = network.schedule(net, scheme, rnd)
        latency_s = 0.0
        rho0_db = float("nan")
        truncation_frac = float("nan")

        if ids.size == 0:
            logger.info("round %d: no device inside r_in, skipping aggregation", rnd)
        else:
            radii = net.radii[ids]
            locals_ = local_sgd(
                weights,
                features[ids],
                labels[ids],
                n_classes,
                train_cfg.eta,
                train_cfg.tau,
                train_cfg.batch_size,
                derived_rng(seed, "sgd", rnd),
            )
            if train_cfg.aggregation == "ideal":
                weights = global_average(locals_)
            elif train_cfg.aggregation == "baa":
                norm_spec = phy.normalization_from_values(weights)
                symbols = phy.normalize_updates(locals_, norm_spec)
                aggregate, diag = phy.baa_round(
                    symbols, radii, params, derived_rng(seed, "channel", rnd)
                )
                weights = phy.denormalize(aggregate, norm_spec, 1)
                latency_s = diag.latency_s
                rho0_db = _snr_db(diag.rho0 / params.n0)
                truncation_frac = float(diag.truncation_fraction.mean())
            else:  # digital
                result = phy.digital_round(
                    locals_, radii, params, scenario, derived_rng(seed, "channel", rnd)
                )
                weights = result.aggregate
                latency_s = result.round_latency_s
                rho0_db = _snr_db(result.per_device_snr[radii.argmax()])

        records.append(
            RoundRecord(
                round=rnd,
                accuracy=accuracy(weights, test_set),
                loss=global_loss(weights, features, labels, n_classes),
                latency_s=latency_s,
                rho0_db=rho0_db,
                truncation_frac=truncation_frac,
                k_scheduled=ids.size,
            )
        )
    return TrainResult(records=tuple(records), final_weights=weights)


def trace_table(result: TrainResult) -> Table:
    """Per-round trace as a table with the standard column schema."""
    rows = [tuple(getattr(r, name) for name in TRACE_COLUMNS) for r in result.records]
    return Table(TRACE_COLUMNS, rows)


def trace_csv(result: TrainResult) -> str:
    """Per-round trace as CSV text with the standard column schema."""
    return trace_table(result).render("csv")
