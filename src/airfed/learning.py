"""Federated averaging whose rounds differ only in the aggregation step.

The trainable model is multinomial logistic regression on flat weight
vectors (d * C weights plus C biases), which keeps every update a plain
q-vector as the channel layer expects.  Each round schedules devices, runs
local minibatch SGD from the broadcast model on every scheduled device,
takes one aggregation step (``ideal``, ``baa`` or ``digital``) that returns
the new model and the trace's channel columns, and evaluates on a held-out
set.  Only ``baa`` derives the round's ``channel`` stream: the digital
round flips no bits in training, so it draws nothing.  A round that
schedules nobody skips the step and keeps the model.

Evaluation (``accuracy`` and ``local_loss``) and the local SGD gradient
run their softmax on class-major (C, n) logits, so every step after the
matmul loops over the n samples rather than over the C classes.
Evaluation forms them in one (C, d) @ (d, n) product from the dataset's
C-contiguous (d, n) copy of its features, and its accuracy test follows
``ndarray.argmax`` on ties and NaN.  The gradient forms ``features @ w``
plus the bias and takes the samples of every device into one class-major
(C, K n) copy, sums each sample's terms as one contiguous row and turns
its probabilities back to the row-major layout for its matmul, so each
device of a (K, n, d) stack gets exactly the bits of its own 2-D call.
Evaluation rejects an empty dataset.  What depends on the data alone is
formed once: the training loop pools its shards once per run, and each
:class:`LabeledDataset` keeps its label index, lower-class mask and
transposed features.  The training loop also keeps the shard stacks of
its last two scheduled sets in a per-run ``functools.lru_cache``, keyed
by the scheduled devices, so a set whose devices it schedules again is
gathered once.  Each round's link budget (rho0, or the digital latencies
and straggler SNR) comes from the channel layer, which forms it once per
set of distances; this module only writes it to the trace in dB.

The topology is the array of device distances.  Mobility is one of the two
analyzed extremes: ``static`` keeps the first drop for every round, and
``iid-resample`` redrops every device each round.  Each draw takes a
Generator derived from the root seed, so everything is deterministic
given that seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import network, phy
from .analytics import ScenarioParams, SystemParams
from .datasets import LabeledDataset
from .rng import derived_rng
from .tables import Table

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
    """One round's trace row; its fields are the trace columns, in order.

    The defaults describe a round that sends nothing over the air: ideal
    averaging, or a round that schedules nobody.  The last two are the
    analog round's audits, set by ``baa`` alone: the largest per-device
    transmit power over p0, and the fewest devices sent on any entry."""

    round: int
    accuracy: float
    loss: float
    latency_s: float = 0.0
    rho0_db: float = float("nan")
    truncation_frac: float = float("nan")
    k_scheduled: int = 0
    max_tx_power_ratio: float = float("nan")
    min_contributors: int | float = float("nan")


@dataclass(frozen=True)
class TrainResult:
    records: tuple
    final_weights: np.ndarray

    @property
    def accuracy_trace(self) -> np.ndarray:
        return np.array([r.accuracy for r in self.records])

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


def _evaluation_logits(weights: np.ndarray, dataset: LabeledDataset) -> np.ndarray:
    """The model's class-major (C, n) logits on the nonempty ``dataset``:
    one ``w.T @ X.T`` product, which writes them C-contiguous, then the bias
    in place.  ``X.T`` is the dataset's C-contiguous transposed copy: at
    desk shapes BLAS multiplies by it about twice as fast as by the
    F-ordered ``features.T`` view, with the same bits."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate a model on an empty dataset")
    w, b = _unpack(weights, dataset.n_features, dataset.n_classes)
    logits = w.T @ dataset.transposed_features
    logits += b[:, None]
    return logits


def local_loss(weights: np.ndarray, shard: LabeledDataset) -> float:
    """Mean cross-entropy of the model on one device's shard."""
    shifted = _evaluation_logits(weights, shard)
    shifted -= shifted.max(axis=0)
    label_logit = np.take(shifted, shard.label_index)
    # exp overwrites the shifted logits, which nothing reads afterwards.
    label_logit -= np.log(np.exp(shifted, out=shifted).sum(axis=0))
    # numpy's mean without its Python wrapper: the same sum and division.
    return float(-(np.add.reduce(label_logit) / len(shard)))


def global_loss(weights: np.ndarray, pooled: LabeledDataset) -> float:
    """Mean of the per-device losses over equal-sized shards pooled into one
    dataset: one loss over all their samples.  The training loop pools its
    shards once per run."""
    return local_loss(weights, pooled)


def loss_gradient(weights: np.ndarray, features: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy, flattened like weights.

    Weights ``(..., q)``, features ``(..., n, d)`` and labels ``(..., n)``
    share their leading (device) axes; each leading index is one model on
    its own samples.  The logits are ``features @ w`` plus the bias, which
    gives each device of a (K, n, d) stack the bits of its own 2-D call
    (unlike evaluation's single product).  The bias is added before the one
    class-major copy of every sample's logits, over which the softmax runs
    once; the probabilities then return to the row-major ``(..., n, C)``
    layout for the matmul and the bias mean.
    """
    n, d = features.shape[-2:]
    w, b = _unpack(weights, d, n_classes)
    logits = features @ w
    logits += b[..., None, :]
    lead_n = logits.shape[:-1]
    shifted = logits.reshape(-1, n_classes).T.copy()
    shifted -= shifted.max(axis=0)
    terms = np.exp(shifted)
    # One contiguous row per sample, as in its own 2-D call: a (C, K n) block
    # summed down its columns adds in another order than a lone (C, 1) one.
    shifted -= np.log(np.ascontiguousarray(terms.T).sum(axis=-1))
    p = np.exp(shifted, out=terms)
    # Subtract the one-hot labels at their flat class-major index.
    n_samples = p.shape[1]
    p.reshape(-1)[labels * n_samples + np.arange(n_samples).reshape(lead_n)] -= 1.0
    residual = np.ascontiguousarray(p.T).reshape(*lead_n, n_classes)
    grad = np.empty(lead_n[:-1] + (model_dim(d, n_classes),))
    grad_w, grad_b = _unpack(grad, d, n_classes)
    np.divide(np.swapaxes(features, -1, -2) @ residual, n, out=grad_w)
    # numpy's mean without its Python wrapper: the same sum and division.
    np.add.reduce(residual, axis=-2, out=grad_b)
    grad_b /= n
    return grad


def accuracy(weights: np.ndarray, dataset: LabeledDataset) -> float:
    """Share of samples whose label is the predicted class.

    The prediction is ``ndarray.argmax`` over the class logits: among tied
    maxima the lowest class wins, and a NaN logit counts as the maximum, so
    the first NaN wins.  On class-major logits that reads: the label is
    predicted iff its logit is a column maximum (or a NaN, where the
    column's maximum is NaN) and no lower class's logit is.  The lower
    classes are looked at only where some column has tied maxima.
    """
    logits = _evaluation_logits(weights, dataset)
    column_max = logits.max(axis=0)
    top = logits == column_max
    if np.isnan(column_max).any():
        top |= np.isnan(logits)
    predicted = np.take(top, dataset.label_index)
    # Every column holds a top entry; more than n of them means tied maxima.
    if np.count_nonzero(top) > len(dataset):
        top &= dataset.below_label
        predicted &= ~top.any(axis=0)
    return np.count_nonzero(predicted) / len(dataset)


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
    full_batch = batch_size is None or batch_size >= n
    w = weights
    for _ in range(tau):
        if full_batch:
            batch_x, batch_y = features, labels
        else:
            idx = rng.permuted(np.broadcast_to(np.arange(n), lead + (n,)), axis=-1)[..., :batch_size]
            batch_x = np.take_along_axis(features, idx[..., None], axis=-2)
            batch_y = np.take_along_axis(labels, idx, axis=-1)
        # The first step broadcasts the (q,) model over the leading axes.
        w = w - eta * loss_gradient(w, batch_x, batch_y, n_classes)
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


def _gather_shards(ids, features, labels) -> tuple:
    """The stacked shards of the devices ``ids``, made read-only: the
    rounds that schedule the same devices share them."""
    gathered = features[ids], labels[ids]
    for array in gathered:
        array.flags.writeable = False
    return gathered


# The scheduled sets whose shard stacks a run keeps: both of an alternating
# schedule's.  Each run reads it when it starts.
_SETS_KEPT = 2


def _aggregate(aggregation, weights, locals_, scheduled, params, scenario, seed, rnd):
    """One round's aggregation step: the new global model from the local
    models of the devices at distances ``scheduled``, and the
    :class:`RoundRecord` channel columns it forms, by field name.  Only
    ``baa`` derives the round's ``channel`` stream; ``digital`` flips no
    bits, so it draws nothing.  ``baa`` normalizes the float64 (k, q)
    ``locals_`` into symbols in place, so it allocates no second (k, q)
    array; the caller reads ``locals_`` no more."""
    if aggregation == "ideal":
        return global_average(locals_), {}
    if aggregation == "baa":
        # normalize_updates in place: the same IEEE operations in the same
        # order.
        norm_spec = phy.normalization_from_values(weights)
        locals_ -= norm_spec.mean
        locals_ /= norm_spec.std
        channel = derived_rng(seed, "channel", rnd)
        aggregate, diag = phy.baa_round(locals_, scheduled, params, channel)
        columns = {
            "latency_s": diag.latency_s,
            "rho0_db": _snr_db(diag.rho0 / params.n0),
            "truncation_frac": float(diag.truncation_fraction.mean()),
            "max_tx_power_ratio": float(diag.tx_power.max() / params.p0),
            "min_contributors": int(diag.contributor_counts.min()),
        }
        return phy.denormalize(aggregate, norm_spec), columns
    result = phy.digital_round(locals_, scheduled, params, scenario, None)
    return result.aggregate, {"latency_s": result.round_latency_s, "rho0_db": _snr_db(result.straggler_snr)}


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
    recorded with the :class:`RoundRecord` defaults: zero latency and no
    device scheduled.  The device count K is ``scenario.k_devices``; each
    round's channel step takes its k and q from the local models it sends.
    ``mobility`` is one of ``MOBILITY_MODES``.  ``topology_seed`` pins the
    first drop independently of the training randomness, for sweeps that
    hold one deployment fixed.
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
    # The contiguous stack reshapes to the pooled samples without a copy.
    pooled = LabeledDataset(features.reshape(-1, d), labels.reshape(-1), n_classes)

    weights = init_weights(d, n_classes, derived_rng(seed, "init"))
    radii = network.sample_topology(
        k, params.r_cell, derived_rng(seed if topology_seed is None else topology_seed, "topology")
    )

    # Derive only the streams a round draws from: static devices never
    # move and full-batch SGD never samples.
    static = mobility == "static"
    minibatch = train_cfg.batch_size is not None and train_cfg.batch_size < features.shape[1]

    # The shard stacks of the last _SETS_KEPT scheduled sets, by the bytes
    # of their device indices.
    @functools.lru_cache(maxsize=_SETS_KEPT)
    def shards_of(key):
        return _gather_shards(np.frombuffer(key, dtype=np.intp), features, labels)

    records = []
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for rnd in range(train_cfg.n_cr):
                if rnd > 0:
                    radii = network.advance_round(
                        radii, params.r_cell, None if static else derived_rng(seed, "mobility", rnd)
                    )
                ids = network.schedule(radii, scheme, rnd)
                channel = {}
                if ids.size > 0:
                    shard_features, shard_labels = shards_of(ids.tobytes())
                    locals_ = local_sgd(
                        weights,
                        shard_features,
                        shard_labels,
                        n_classes,
                        train_cfg.eta,
                        train_cfg.tau,
                        train_cfg.batch_size,
                        derived_rng(seed, "sgd", rnd) if minibatch else None,
                    )
                    weights, channel = _aggregate(
                        train_cfg.aggregation, weights, locals_, radii[ids], params, scenario, seed, rnd
                    )
                evaluation = accuracy(weights, test_set), global_loss(weights, pooled)
                records.append(RoundRecord(rnd, *evaluation, k_scheduled=ids.size, **channel))
    except FloatingPointError as exc:
        raise ValueError(
            f"round {rnd} of {train_cfg.aggregation} training: the model left the float range ({exc})"
        ) from exc
    return TrainResult(records=tuple(records), final_weights=weights)


def trace_table(result: TrainResult) -> Table:
    """Per-round trace as a table with the standard column schema."""
    return Table(RoundRecord._fields, list(result.records))


def trace_csv(result: TrainResult) -> str:
    """Per-round trace as CSV text with the standard column schema."""
    return trace_table(result).render("csv")
