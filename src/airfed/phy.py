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
  K q / 8 bytes for the bit-packed truncation mask plus O(K M) beyond the
  (K, q) input.  Each symbol draws its gains, takes its truncation
  decisions and does its masking and gain inversion in (K, M) buffers
  allocated once per round.  It packs its decisions into the mask, 8 to a
  byte, and counts the contributors per entry and the sent entries per
  device while they are still in those buffers.
* The round draws from its ``rng`` in a fixed order: the gains of each
  OFDM symbol in turn, then the receiver noise.  The gains come from
  :func:`rng.drawn_blocks`, one (K, width) block per symbol in two reused
  buffers; under its one rule (several symbols, the first of at least
  ``rng.BLOCK_ENTRIES // 2`` gains) a worker thread draws symbol s + 1
  while the caller masks, sums and inverts symbol s, and the stream and
  every output are those of the serial round.  Without fading every gain
  is 1: nothing is drawn and no thread starts.
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
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from .analytics import (
    ScenarioParams,
    SystemParams,
    aligned_receive_power,
    latency_baa,
    latency_digital,
)
from .rng import drawn_blocks


@dataclass(frozen=True)
class NormalizationSpec:
    """Shared per-round symbol normalization, broadcast with the model."""

    mean: float
    std: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0 < self.std < math.inf):
            raise ValueError(f"mean and std must be finite, std positive: mean={self.mean}, std={self.std}")


@dataclass(frozen=True)
class BaaDiagnostics:
    """Per-round bookkeeping emitted by :func:`baa_round`.

    ``truncation_fraction`` and ``tx_power`` hold one value per device and
    ``contributor_counts`` the number of devices sent per entry.  The
    truncation decisions are kept bit-packed, one bit per entry:
    ``sent_bits[i, s]`` is ``np.packbits`` of device i's decisions on the
    ``symbol_width`` sub-channels of OFDM symbol s, zero-padded on a ragged
    last symbol.  :attr:`truncation_mask` unpacks them.
    """

    rho0: float
    latency_s: float
    truncation_fraction: np.ndarray
    tx_power: np.ndarray
    contributor_counts: np.ndarray
    sent_bits: np.ndarray
    symbol_width: int

    @property
    def truncation_mask(self) -> np.ndarray:
        """The (k, q) inversion mask, True where a device's entry was sent;
        unpacked from ``sent_bits`` on each access."""
        k, q = self.sent_bits.shape[0], self.contributor_counts.size
        mask = np.unpackbits(self.sent_bits, axis=2, count=self.symbol_width).view(bool)
        return mask.reshape(k, -1)[:, :q]


@dataclass(frozen=True)
class DigitalRoundResult:
    aggregate: np.ndarray
    per_device_latency_s: np.ndarray
    round_latency_s: float


def draw_channels(k_devices: int, width: int, rng, out=None) -> np.ndarray:
    """I.i.d. Rayleigh power gains |h|^2 ~ Exp(1), shape (k_devices, width):
    one gain per device and sub-channel of one OFDM symbol.  ``out``, a
    C-contiguous float64 array of that shape, receives the same draws that
    a call without it returns.  The fill raises no floating-point error, so
    :func:`baa_round` may call it on a worker thread, outside its caller's
    ``np.errstate``; an error raised there is raised again by the round."""
    if min(k_devices, width) < 1:
        raise ValueError("k_devices and width must both be >= 1")
    return rng.standard_exponential((k_devices, width), out=out)


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


def _as_update_matrix(updates, radii):
    """The scheduled set as a nonempty (k, q) update matrix and the (k,)
    radii of its devices."""
    # numpy itself raises ValueError on ragged rows.
    mat = np.asarray(updates, dtype=float)
    if mat.ndim != 2 or 0 in mat.shape:
        raise ValueError("updates must form a nonempty (k, q) matrix")
    radii = np.asarray(radii, dtype=float)
    if radii.shape != mat.shape[:1]:
        raise ValueError(f"radii must have shape ({mat.shape[0]},), got {radii.shape}")
    return mat, radii


# A float64's 64 bits, all set: ANDed with an entry, they keep it whole.
_ALL_BITS = np.uint64(np.iinfo(np.uint64).max)

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

    A large round draws the next symbol's gains on a worker thread (see the
    module docstring).  Those draws run outside the caller's
    ``np.errstate``, which they do not need: Exp(1) fills raise no
    floating-point error.  The caller's errstate governs everything else.
    An error in a draw is raised here, and no draw is still running when
    the round returns or raises.
    """
    mat, radii = _as_update_matrix(updates, radii)
    k, q = mat.shape
    rho0 = align_rho0(radii, params)

    m = params.m
    # Unit gains pass a zero threshold, so nothing is truncated without fading.
    g_th = params.g_th if fading else 0.0
    # Every OFDM symbol but a ragged last one carries symbol_width entries.
    symbol_width = min(m, q)
    received = np.empty(q)
    contributor_counts = np.empty(q, dtype=np.intp)
    sent_counts = np.zeros(k, dtype=np.intp)
    sent_bits = np.zeros((k, -(-q // m), -(-symbol_width // 8)), dtype=np.uint8)
    inverse_gain_sum = np.zeros(k)
    sent_block = np.empty((k, symbol_width), dtype=bool)
    # numpy sums a single column pairwise, not in device order, so the terms
    # sit in rows at least two wide; columns past the last entry stay 0.
    terms = np.zeros((k, max(symbol_width, 2)))
    column_sums = np.empty(terms.shape[1])
    shapes = [(k, min(m, q - lo)) for lo in range(0, q, m)]
    if fading:
        # A module global, so a tracer's rebinding times each draw too.
        symbols = drawn_blocks(shapes, lambda gains: draw_channels(k, gains.shape[1], rng, out=gains))
    else:
        symbols = (np.ones(shape) for shape in shapes)
    with closing(symbols):
        for s, gains in enumerate(symbols):
            lo = s * m
            width = gains.shape[1]
            hi = lo + width
            sent = np.greater_equal(gains, g_th, out=sent_block[:, :width])
            sent_bits[:, s, : -(-width // 8)] = np.packbits(sent, axis=1)
            # Counted while the block is in cache.  A symbol's counts are at
            # most k and M, and numpy sums a bool block into int32 about
            # twice as fast as into intp.
            contributor_counts[lo:hi] = sent.sum(axis=0, dtype=np.int32)
            sent_counts += sent.sum(axis=1, dtype=np.int32)
            # terms = np.where(sent, updates, 0.0) bit for bit, without a
            # temporary: AND each entry's bits with all ones if sent, else 0.
            # A product with the mask would turn a truncated inf or nan into
            # nan and a truncated negative entry into -0.0.
            bits = terms[:, :width].view(np.uint64)
            np.multiply(sent, _ALL_BITS, out=bits)
            np.bitwise_and(bits, mat[:, lo:hi].view(np.uint64), out=bits)
            np.sum(terms, axis=0, out=column_sums)
            received[lo:hi] = column_sums[:width]
            # Inverse gains in place; a truncated entry divides 0 by at least
            # g_th > 0, never 0 by 0.
            np.maximum(gains, g_th, out=gains)
            np.divide(sent, gains, out=gains)
            inverse_gain_sum += gains.sum(axis=1)

    if noise:
        # Real part of CN(0, n0), then undo the sqrt(rho0) amplitude scaling.
        received += rng.normal(0.0, math.sqrt(params.n0 / 2.0), q) / math.sqrt(rho0)
    received /= k

    # Per-device audit: average per-symbol transmit power sum_m |p|^2, where
    # a sent entry costs rho0 r^alpha / g and a truncated one nothing.
    tx_power = m * rho0 * radii**params.alpha * inverse_gain_sum / q

    diag = BaaDiagnostics(
        rho0=rho0,
        latency_s=latency_baa(q, params),
        truncation_fraction=1.0 - sent_counts / q,
        tx_power=tx_power,
        contributor_counts=contributor_counts,
        sent_bits=sent_bits,
        symbol_width=symbol_width,
    )
    return received, diag


# ---------------------------------------------------------------------------
# Symbol normalization
# ---------------------------------------------------------------------------

def normalization_from_values(values) -> NormalizationSpec:
    """Mean/std spec computed from a reference vector (the broadcast model).

    Zero spread (all entries equal) gives std = 1, so every symbol is 0.  A
    non-finite mean or std (a non-finite entry, or one whose square
    overflows) raises ValueError in :class:`NormalizationSpec`.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):  # an inf entry gives a nan, rejected below
        mean, std = float(values.mean()), float(values.std())
    return NormalizationSpec(mean=mean, std=std or 1.0)


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
    the maximum of the per-device expected latencies, each the
    :func:`analytics.latency_digital` of its distance among the k scheduled
    devices.
    """
    mat, radii = _as_update_matrix(updates, radii)
    k, q = mat.shape
    if q != scenario.q_dim:
        raise ValueError(f"updates have dimension {q}, scenario expects {scenario.q_dim}")
    if not 0.0 <= bit_flip_prob <= 1.0:
        raise ValueError(f"bit_flip_prob must lie in [0, 1], got {bit_flip_prob}")

    aggregate = _quantized_mean(mat, params.q_bits, params.m, rng, bit_flip_prob)

    latencies = latency_digital(params, replace(scenario, k_devices=k), radii)
    return DigitalRoundResult(
        aggregate=aggregate,
        per_device_latency_s=latencies,
        round_latency_s=float(latencies.max()),
    )
