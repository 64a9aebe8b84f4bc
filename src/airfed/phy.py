"""Physical-layer simulation of one aggregation round.

Covers the analog path (Rayleigh sub-channel draws, truncated channel
inversion with amplitude alignment, superposition with receiver noise) and
the digital OFDMA baseline (uniform quantization, per-device expected rate,
straggler-bound round latency).

Conventions:

* Channel coefficients are unit-variance circularly-symmetric complex
  Gaussians, i.i.d. across devices, sub-channels and OFDM symbols.
* Transmitted symbols are real amplitudes; the receiver keeps the real part
  of the complex noise, so each aggregated entry sees noise of variance
  n0 / 2 before the 1/sqrt(rho0) and 1/K scalings.
* The server divides by the scheduled count even when truncation removed
  some contributions; ``genie_counts`` switches to dividing by the true
  per-entry contributor count for bias studies.
* Aggregation is a fixed-order reduction over device index, so results are
  bit-reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analytics import ScenarioParams, SystemParams, aligned_receive_power, rate_digital_expected
from .rng import as_rng

__all__ = [
    "PowerPolicy",
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
class PowerPolicy:
    """Aligned receive power and cutoff threshold for one scheduled set."""

    rho0: float
    g_th: float
    r_max: float


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
    r_max: float
    n_symbols: int
    latency_s: float
    truncation_fraction: np.ndarray
    tx_power: np.ndarray
    contributor_counts: np.ndarray
    truncation_mask: np.ndarray


@dataclass(frozen=True)
class DigitalRoundResult:
    aggregate: np.ndarray
    per_device_latency_s: np.ndarray
    round_latency_s: float


def draw_channels(k_devices: int, m: int, n_symbols: int, rng) -> np.ndarray:
    """I.i.d. CN(0, 1) sub-channel coefficients, shape (n_symbols, k, m)."""
    if min(k_devices, m, n_symbols) < 1:
        raise ValueError("k_devices, m and n_symbols must all be >= 1")
    rng = as_rng(rng)
    shape = (n_symbols, k_devices, m)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def align_rho0(distances, params: SystemParams) -> PowerPolicy:
    """Aligned receive power for a scheduled set of device distances.

    The furthest device transmits at its full average-power budget; everyone
    nearer backs off so all updates arrive with the same amplitude.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.size == 0:
        raise ValueError("scheduled set must be nonempty")
    if np.any(distances <= 0):
        raise ValueError("distances must be positive")
    if params.g_th <= 0:
        raise ValueError("align_rho0 requires g_th > 0 (inversion cost diverges at 0)")
    r_max = float(distances.max())
    return PowerPolicy(rho0=aligned_receive_power(params, r_max), g_th=params.g_th, r_max=r_max)


def _as_update_matrix(updates) -> np.ndarray:
    if isinstance(updates, np.ndarray) and updates.ndim == 2:
        mat = np.asarray(updates, dtype=float)
    else:
        rows = [np.asarray(u, dtype=float) for u in updates]
        if len({r.shape for r in rows}) != 1:
            raise ValueError("all updates must share the same dimension")
        mat = np.stack(rows).astype(float)
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
    genie_counts: bool = False,
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
        genie_counts: divide each entry by its true contributor count
            instead of the scheduled count.

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
    policy = align_rho0(radii, params)

    n_symbols = math.ceil(q / params.m)
    padded_q = n_symbols * params.m
    padded = np.zeros((k, padded_q))
    padded[:, :q] = mat

    if fading:
        h = draw_channels(k, params.m, n_symbols, rng)
        gains = np.moveaxis(np.abs(h) ** 2, 1, 0).reshape(k, padded_q)
        mask = gains >= params.g_th
    else:
        gains = np.ones((k, padded_q))
        mask = np.ones((k, padded_q), dtype=bool)

    # Fixed device-order reduction keeps results bit-reproducible.
    received = np.zeros(padded_q)
    for i in range(k):
        received += padded[i] * mask[i]
    if noise:
        # Real part of CN(0, n0), then undo the sqrt(rho0) amplitude scaling.
        received = received + rng.normal(0.0, math.sqrt(params.n0 / 2.0), padded_q) / math.sqrt(policy.rho0)

    sent = mask[:, :q]
    counts = sent.sum(axis=0)
    if genie_counts:
        divisor = np.maximum(counts, 1)
    else:
        divisor = k
    aggregate = received[:q] / divisor

    # Per-device audit: average per-symbol transmit power sum_m |p|^2,
    # evaluated over the q real (non-padding) entries.
    per_entry_power = np.where(
        sent, policy.rho0 * radii[:, None] ** params.alpha / gains[:, :q], 0.0
    )
    tx_power = params.m * per_entry_power.mean(axis=1)

    truncation_fraction = 1.0 - sent.mean(axis=1)
    diag = BaaDiagnostics(
        rho0=policy.rho0,
        r_max=policy.r_max,
        n_symbols=n_symbols,
        latency_s=n_symbols * params.t_s,
        truncation_fraction=truncation_fraction,
        tx_power=tx_power,
        contributor_counts=counts,
        truncation_mask=sent,
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

def _quantize(mat: np.ndarray, q_bits: int, rng, bit_flip_prob: float) -> np.ndarray:
    lo = float(mat.min())
    hi = float(mat.max())
    if hi == lo:
        return np.full_like(mat, lo)
    levels = (1 << q_bits) - 1
    codes = np.rint((mat - lo) / (hi - lo) * levels).astype(np.uint64)
    if bit_flip_prob > 0.0:
        for bit in range(q_bits):
            flips = rng.random(codes.shape) < bit_flip_prob
            codes ^= flips.astype(np.uint64) << np.uint64(bit)
    return lo + codes.astype(float) / levels * (hi - lo)


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
    travel as side information and are excluded from the latency).  Delivery
    is error-free at the target BER by default; ``bit_flip_prob`` injects
    per-bit flips for sensitivity studies.  The round latency is the
    straggler's: the maximum of the per-device expected latencies.
    """
    rng = as_rng(rng)
    mat = _as_update_matrix(updates)
    k, q = mat.shape
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (k,):
        raise ValueError(f"radii must have shape ({k},), got {radii.shape}")
    if q != scenario.q_dim:
        raise ValueError(f"updates have dimension {q}, scenario expects {scenario.q_dim}")

    dequantized = _quantize(mat, params.q_bits, rng, bit_flip_prob)
    aggregate = dequantized.mean(axis=0)

    bits = q * params.q_bits
    latencies = np.array([bits / rate_digital_expected(params, k, float(r)) for r in radii])
    return DigitalRoundResult(
        aggregate=aggregate,
        per_device_latency_s=latencies,
        round_latency_s=float(latencies.max()),
    )
