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
from .analytics import ScenarioParams, SystemParams, digital_device_snr
from .datasets import LabeledDataset
from .rng import as_rng, derived_rng
from .tables import Table

logger = logging.getLogger(__name__)

AGGREGATIONS = ("ideal", "baa", "digital")
PARTITION_MODES = ("iid", "noniid-shards")

TRACE_COLUMNS = ("round", "accuracy", "loss", "latency_s", "rho0_db", "truncation_frac")


@dataclass(frozen=True)
class PartitionSpec:
    """How the training corpus is split across devices.

    ``iid`` ignores the shard fields unless given (they then fix the
    per-device size); ``noniid-shards`` sorts by label, cuts the corpus
    into ``shards_total`` runs of ``shard_size`` samples and deals
    ``shards_per_device`` runs to each device.
    """

    mode: str = "iid"
    shards_total: int | None = None
    shard_size: int | None = None
    shards_per_device: int | None = None

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"mode must be one of {PARTITION_MODES}, got {self.mode!r}")
        if self.mode == "noniid-shards":
            if None in (self.shards_total, self.shard_size, self.shards_per_device):
                raise ValueError("noniid-shards partitioning needs all three shard fields")
        for name in ("shards_total", "shard_size", "shards_per_device"):
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


def init_weights(n_features: int, n_classes: int, rng, scale: float = 1e-2) -> np.ndarray:
    """Small random init; keeps the broadcast normalization non-degenerate."""
    rng = as_rng(rng)
    return rng.normal(0.0, scale, size=model_dim(n_features, n_classes))


def _unpack(weights: np.ndarray, n_features: int, n_classes: int):
    expected = model_dim(n_features, n_classes)
    if weights.shape != (expected,):
        raise ValueError(f"weights must have shape ({expected},), got {weights.shape}")
    w = weights[: n_features * n_classes].reshape(n_features, n_classes)
    b = weights[n_features * n_classes :]
    return w, b


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def predict_proba(weights: np.ndarray, features: np.ndarray, n_classes: int) -> np.ndarray:
    w, b = _unpack(weights, features.shape[1], n_classes)
    return np.exp(_log_softmax(features @ w + b))


def local_loss(weights: np.ndarray, shard: LabeledDataset) -> float:
    """Mean cross-entropy of the model on one device's shard."""
    if len(shard) == 0:
        raise ValueError("cannot evaluate the loss of an empty shard")
    w, b = _unpack(weights, shard.n_features, shard.n_classes)
    log_p = _log_softmax(shard.features @ w + b)
    return float(-log_p[np.arange(len(shard)), shard.labels].mean())


def global_loss(weights: np.ndarray, shards) -> float:
    """Mean of the per-device losses (valid because shards are equal-sized)."""
    if not shards:
        raise ValueError("need at least one shard")
    return float(np.mean([local_loss(weights, shard) for shard in shards]))


def loss_gradient(weights: np.ndarray, features: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy, flattened like weights."""
    n = features.shape[0]
    w, b = _unpack(weights, features.shape[1], n_classes)
    p = np.exp(_log_softmax(features @ w + b))
    p[np.arange(n), labels] -= 1.0
    grad_w = features.T @ p / n
    grad_b = p.mean(axis=0)
    return np.concatenate([grad_w.ravel(), grad_b])


def accuracy(weights: np.ndarray, dataset: LabeledDataset) -> float:
    w, b = _unpack(weights, dataset.n_features, dataset.n_classes)
    predicted = (dataset.features @ w + b).argmax(axis=1)
    return float((predicted == dataset.labels).mean())


def local_sgd(
    weights: np.ndarray,
    shard: LabeledDataset,
    eta: float,
    tau: int,
    batch_size: int | None,
    rng,
) -> np.ndarray:
    """tau minibatch gradient steps from the broadcast model."""
    if len(shard) == 0:
        raise ValueError("cannot train on an empty shard")
    rng = as_rng(rng)
    n = len(shard)
    w = weights.copy()
    full_batch = batch_size is None or batch_size >= n
    for _ in range(tau):
        if full_batch:
            batch_x, batch_y = shard.features, shard.labels
        else:
            idx = rng.choice(n, size=batch_size, replace=False)
            batch_x, batch_y = shard.features[idx], shard.labels[idx]
        w -= eta * loss_gradient(w, batch_x, batch_y, shard.n_classes)
    return w


def global_average(local_models) -> np.ndarray:
    """Coordinate-wise mean of equal-dimension local models."""
    models = list(local_models)
    if not models:
        raise ValueError("cannot average an empty model list")
    mat = np.stack([np.asarray(m, dtype=float) for m in models])
    return mat.mean(axis=0)


# ---------------------------------------------------------------------------
# Data partitioning
# ---------------------------------------------------------------------------

def partition(dataset: LabeledDataset, spec: PartitionSpec, k_devices: int, rng):
    """Split the corpus into k equal-sized device shards."""
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
        order = rng.permutation(n)[: per_device * k_devices]
        chunks = order.reshape(k_devices, per_device)
        return [dataset.subset(chunk) for chunk in chunks]

    # noniid-shards: label-sorted corpus cut into equal runs, dealt at random
    shards_total, shard_size = spec.shards_total, spec.shard_size
    per_device_shards = spec.shards_per_device
    if shards_total * shard_size > n:
        raise ValueError(
            f"{shards_total} shards of {shard_size} need {shards_total * shard_size} samples, have {n}"
        )
    if k_devices * per_device_shards > shards_total:
        raise ValueError(
            f"{k_devices} devices x {per_device_shards} shards exceed the {shards_total} available"
        )
    by_label = np.argsort(dataset.labels, kind="stable")[: shards_total * shard_size]
    shard_indices = by_label.reshape(shards_total, shard_size)
    dealt = rng.permutation(shards_total)[: k_devices * per_device_shards]
    dealt = dealt.reshape(k_devices, per_device_shards)
    return [dataset.subset(np.concatenate(shard_indices[rows])) for rows in dealt]


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
    shards = partition(dataset, partition_spec, k, derived_rng(seed, "partition"))
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
        decision = network.schedule(net, scheme, rnd)
        latency_s = 0.0
        rho0_db = float("nan")
        truncation_frac = float("nan")

        if decision.empty:
            logger.info("round %d: no device inside r_in, skipping aggregation", rnd)
        else:
            ids = list(decision.scheduled_ids)
            radii = net.radii[ids]
            locals_ = np.stack(
                [
                    local_sgd(
                        weights,
                        shards[i],
                        train_cfg.eta,
                        train_cfg.tau,
                        train_cfg.batch_size,
                        derived_rng(seed, "sgd", rnd, i),
                    )
                    for i in ids
                ]
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
                rho0_db = _snr_db(digital_device_snr(params, len(ids), decision.r_max_scheduled))

        records.append(
            RoundRecord(
                round=rnd,
                accuracy=accuracy(weights, test_set),
                loss=global_loss(weights, shards),
                latency_s=latency_s,
                rho0_db=rho0_db,
                truncation_frac=truncation_frac,
                k_scheduled=len(decision.scheduled_ids),
            )
        )
    return TrainResult(records=tuple(records), final_weights=weights)


def trace_table(result: TrainResult) -> Table:
    """Per-round trace as a table with the standard column schema."""
    rows = [
        (r.round, r.accuracy, r.loss, r.latency_s, r.rho0_db, r.truncation_frac)
        for r in result.records
    ]
    return Table(TRACE_COLUMNS, rows)


def trace_csv(result: TrainResult) -> str:
    """Per-round trace as CSV text with the standard column schema."""
    return trace_table(result).render("csv")
