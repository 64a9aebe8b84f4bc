"""Physical-layer simulation of one aggregation round.

Covers the analog path (Rayleigh sub-channel gain draws, truncated channel
inversion with amplitude alignment, superposition with receiver noise) and
the digital OFDMA baseline (uniform quantization, per-device expected rate,
straggler-bound round latency).  The digital rate is evaluated once on the
vector of scheduled radii, not device by device.  The digital round finds
the global min/max of the update matrix, then quantizes, dequantizes and
averages one block of M columns at a time, drawing any bit flips per
block, so its working memory is O(K M) beyond the (K, q) input.

Conventions:

* Entry j of an update rides sub-channel j mod M of OFDM symbol j // M.
  Truncated inversion needs only the power gain |h|^2 of each Rayleigh
  sub-channel, so gains are drawn directly as Exp(1), i.i.d. across
  devices, sub-channels and OFDM symbols.  Only the sub-channels an update
  uses are drawn: a final OFDM symbol that the update fills in part draws
  just the gains of its occupied sub-channels.  The analog round walks the
  update matrix one OFDM symbol at a time, so its working memory is
  O(K M) beyond the (K, q) input and the boolean truncation mask.
* The analog round takes its aligned receive power rho0 from
  :func:`align_rho0`, a float, and its latency, ceil(q/M) OFDM symbols,
  from :func:`analytics.latency_baa`.
* Transmitted symbols are real amplitudes; the receiver keeps the real part
  of the complex noise, so each aggregated entry sees noise of variance
  n0 / 2 before the 1/sqrt(rho0) and 1/K scalings.
* The server divides by the scheduled count even when truncation removed
  some contributions.
* Aggregation is a fixed-order reduction over device index, so results are
  bit-reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analytics import (
    ScenarioParams,
    SystemParams,
    aligned_receive_power,
    digital_device_snr,
    latency_baa,
    rate_digital_expected,
)
from .rng import as_rng

__all__ = [
    "NormalizationSpec",
    "BaaDiagnostics",
    "DigitalRoundResult",
    "draw_channels",
    "align_rho0",
    "baa_round",
    "digital_round",
    "normalization_from_values",
    "normalize_updates",
    "denormalize",
]


@dataclass(frozen=True)
class NormalizationSpec:
    """Shared per-round symbol normalization, broadcast with the model."""

    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError(f"std must be positive, got {self.std}")


@dataclass(frozen=True)
class BaaDiagnostics:
    """Per-round bookkeeping emitted by :func:`baa_round`; ``truncation_mask``
    is the (k, q) inversion mask, True where a device's entry was sent."""

    rho0: float
    latency_s: float
    truncation_fraction: np.ndarray
    tx_power: np.ndarray
    contributor_counts: np.ndarray
    truncation_mask: np.ndarray


@dataclass(frozen=True)
class DigitalRoundResult:
    aggregate: np.ndarray
    per_device_snr: np.ndarray
    per_device_latency_s: np.ndarray
    round_latency_s: float


def draw_channels(k_devices: int, width: int, rng) -> np.ndarray:
    """I.i.d. Rayleigh power gains |h|^2 ~ Exp(1), shape (k_devices, width):
    one gain per device and sub-channel of one OFDM symbol."""
    if min(k_devices, width) < 1:
        raise ValueError("k_devices and width must both be >= 1")
    return as_rng(rng).standard_exponential((k_devices, width))


def align_rho0(distances, params: SystemParams) -> float:
    """Aligned receive power rho0 for a scheduled set of device distances.

    The furthest device transmits at its full average-power budget; everyone
    nearer backs off so all updates arrive with the same amplitude.  Every
    distance is checked here, since rho0 depends on the furthest alone.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.size == 0:
        raise ValueError("scheduled set must be nonempty")
    if np.any(distances <= 0):
        raise ValueError("distances must be positive")
    return aligned_receive_power(params, float(distances.max()))


def _as_update_matrix(updates) -> np.ndarray:
    # numpy itself raises ValueError on ragged rows.
    mat = np.asarray(updates, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise ValueError("updates must form a nonempty (k, q) matrix")
    return mat


def baa_round(
    updates,
    radii,
    params: SystemParams,
    rng,
    *,
    fading: bool = True,
    noise: bool = True,
):
    """One analog over-the-air aggregation round.

    Args:
        updates: (k, q) matrix of normalized update symbols, one row per
            scheduled device (or a list of 1-d arrays).
        radii: distances of the scheduled devices, aligned with the rows.
        params: physical-layer constants.
        rng: random stream for channel and noise draws.
        fading: with False, all sub-channel gains are 1 and nothing is
            truncated (noiseless-oracle mode keeps amplitude alignment).
        noise: with False, no receiver noise is injected.

    Returns:
        (aggregate, BaaDiagnostics): the q-vector estimate of the mean
        update, still in normalized symbol space, plus diagnostics.
    """
    rng = as_rng(rng)
    mat = _as_update_matrix(updates)
    k, q = mat.shape
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (k,):
        raise ValueError(f"radii must have shape ({k},), got {radii.shape}")
    rho0 = align_rho0(radii, params)

    m = params.m
    # Unit gains pass a zero threshold, so nothing is truncated without fading.
    g_th = params.g_th if fading else 0.0
    received = np.empty(q)
    counts = np.empty(q, dtype=np.intp)
    sent_mask = np.empty((k, q), dtype=bool)
    inverse_gain_sum = np.zeros(k)
    # numpy sums a single column pairwise, not in device order, so the terms
    # sit in rows at least two wide; columns past the last entry stay 0.
    terms = np.zeros((k, max(min(m, q), 2)))
    for lo in range(0, q, m):
        width = min(m, q - lo)
        gains = draw_channels(k, width, rng) if fading else np.ones((k, width))
        sent = gains >= g_th
        sent_mask[:, lo : lo + width] = sent
        terms[:, :width] = np.where(sent, mat[:, lo : lo + width], 0.0)
        received[lo : lo + width] = terms.sum(axis=0)[:width]
        counts[lo : lo + width] = sent.sum(axis=0)
        # Truncated entries divide 0 by at least g_th > 0, never 0 by 0.
        inverse_gain_sum += (sent / np.maximum(gains, g_th)).sum(axis=1)

    if noise:
        # Real part of CN(0, n0), then undo the sqrt(rho0) amplitude scaling.
        received += rng.normal(0.0, math.sqrt(params.n0 / 2.0), q) / math.sqrt(rho0)
    aggregate = received / k

    # Per-device audit: average per-symbol transmit power sum_m |p|^2, where
    # a sent entry costs rho0 r^alpha / g and a truncated one nothing.
    tx_power = m * rho0 * radii**params.alpha * inverse_gain_sum / q

    diag = BaaDiagnostics(
        rho0=rho0,
        latency_s=latency_baa(q, params),
        truncation_fraction=1.0 - sent_mask.mean(axis=1),
        tx_power=tx_power,
        contributor_counts=counts,
        truncation_mask=sent_mask,
    )
    return aggregate, diag


# ---------------------------------------------------------------------------
# Symbol normalization
# ---------------------------------------------------------------------------

def normalization_from_values(values) -> NormalizationSpec:
    """Mean/std spec computed from a reference vector (the broadcast model).

    Degenerate inputs (all entries equal) fall back to std = 1 so the
    round can proceed; a warning flags the fallback.
    """
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    std = float(values.std())
    if std <= 0.0 or not math.isfinite(std):
        warnings.warn(
            "degenerate normalization (zero spread); falling back to std = 1",
            RuntimeWarning,
            stacklevel=2,
        )
        std = 1.0
    return NormalizationSpec(mean=mean, std=std)


def normalize_updates(raw_updates, spec: NormalizationSpec) -> np.ndarray:
    """Map model-space updates to zero-mean unit-variance symbols."""
    raw = np.asarray(raw_updates, dtype=float)
    return (raw - spec.mean) / spec.std


def denormalize(aggregate, spec: NormalizationSpec, count: int = 1) -> np.ndarray:
    """Invert normalization on an aggregate of ``count`` summed updates."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return np.asarray(aggregate, dtype=float) * spec.std + count * spec.mean


# ---------------------------------------------------------------------------
# Digital OFDMA baseline
# ---------------------------------------------------------------------------

def _quantized_mean(mat: np.ndarray, q_bits: int, m: int, rng, bit_flip_prob: float) -> np.ndarray:
    """Device mean of ``mat`` after uniform quantization over its global
    [min, max] and dequantization, taken one block of m columns at a time."""
    k, q = mat.shape
    lo = float(mat.min())
    hi = float(mat.max())
    # numpy sums a lone column pairwise rather than in device order, so blocks
    # are at least two wide unless q is 1: each column then sums as it would
    # in a mean over the whole (k, q) matrix.
    width = min(max(m, 2), q)
    block = np.empty((k, width))
    if hi == lo:
        block.fill(lo)
        return np.full(q, block.mean(axis=0)[0])
    levels = (1 << q_bits) - 1
    aggregate = np.empty(q)
    for start in range(0, q, width):
        # A final short block fills the leading columns; the rest are stale.
        n = min(width, q - start)
        part = block[:, :n]
        np.subtract(mat[:, start : start + n], lo, out=part)
        part /= hi - lo
        part *= levels
        np.rint(part, out=part)
        if bit_flip_prob > 0.0:
            codes = part.astype(np.uint64)
            for bit in range(q_bits):
                flips = rng.random(codes.shape) < bit_flip_prob
                codes ^= flips.astype(np.uint64) << np.uint64(bit)
            part[...] = codes
        part /= levels
        part *= hi - lo
        part += lo
        aggregate[start : start + n] = block.mean(axis=0)[:n]
    return aggregate


def digital_round(
    updates,
    radii,
    params: SystemParams,
    scenario: ScenarioParams,
    rng,
    *,
    bit_flip_prob: float = 0.0,
) -> DigitalRoundResult:
    """One OFDMA aggregation round of the digital baseline.

    Updates are quantized to ``params.q_bits`` per parameter with a uniform
    quantizer spanning the round's global min/max (the two range scalars
    travel as side information and are excluded from the latency).  After
    that min/max pass, the round quantizes, dequantizes and averages one
    block of ``params.m`` columns at a time, so its working memory is
    O(K M) beyond the (k, q) input.  Delivery is error-free at the target
    BER by default; ``bit_flip_prob`` injects per-bit flips for sensitivity
    studies, drawn block by block.  The round latency is the straggler's:
    the maximum of the per-device expected latencies.  The result also
    carries each device's receive SNR, from which those latencies follow.
    """
    rng = as_rng(rng)
    mat = _as_update_matrix(updates)
    k, q = mat.shape
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (k,):
        raise ValueError(f"radii must have shape ({k},), got {radii.shape}")
    if q != scenario.q_dim:
        raise ValueError(f"updates have dimension {q}, scenario expects {scenario.q_dim}")

    aggregate = _quantized_mean(mat, params.q_bits, params.m, rng, bit_flip_prob)

    snr = digital_device_snr(params, k, radii)
    latencies = q * params.q_bits / rate_digital_expected(params, k, radii, snr=snr)
    return DigitalRoundResult(
        aggregate=aggregate,
        per_device_snr=snr,
        per_device_latency_s=latencies,
        round_latency_s=float(latencies.max()),
    )
