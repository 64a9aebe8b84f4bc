"""Closed-form analytics for over-the-air model aggregation.

Deterministic evaluation of every quantity the simulator is checked
against: the upper exponential integral driving truncated channel inversion,
the receive-SNR/truncation-ratio tradeoff, scheduling statistics over a
uniform disk topology, the SNR-gain/data-fraction tradeoff of cell-interior
scheduling, and per-round latency of analog versus digital (OFDMA)
aggregation.

There is no shared mutable state and no side effect: every function
returns a value that depends on its arguments alone, and none issues a
warning.  What a closed form leaves out is a value it returns, such as
:func:`dropped_count_mass` for the cell-interior expectation.

Every receive SNR this module forms, every rate, latency and latency ratio
formed from one, and each SNR gain must be a positive, finite, normal
float: each is computed with numpy's floating-point warnings off and then
checked by :func:`_normal`, which raises ValueError where an over- or
underflow would otherwise leave inf, 0 or a subnormal in its place.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

_EULER_GAMMA = 0.5772156649015328606


@dataclass(frozen=True)
class SystemParams:
    """Physical-layer constants shared by the analytics and the simulator.

    Attributes:
        p0: per-device average transmit power budget (watts).
        m: number of OFDM sub-channels.
        b: total bandwidth (Hz); sub-carrier spacing is b/m.
        alpha: path-loss exponent (typically 2.5 to 4).
        r_cell: cell radius (meters).
        g_th: power-cutoff threshold on the sub-channel gain (dimensionless),
            positive: at 0 the expected inversion power diverges.
        n0: noise power (watts).  Set n0 = 1.0 to work in noise-normalized
            units; CLI configs ingest it from dBm.
        q_bits: quantization resolution of the digital baseline (bits/param),
            1 to 63 so every quantizer code fits a uint64.
        ber: target bit error rate of the digital baseline's MQAM, in (0, 0.2).
    """

    p0: float = 0.1
    m: int = 1000
    b: float = 1e6
    alpha: float = 3.0
    r_cell: float = 100.0
    g_th: float = 0.2
    n0: float = 1e-11
    q_bits: int = 16
    ber: float = 1e-3

    def __post_init__(self):
        if self.p0 <= 0:
            raise ValueError(f"p0 must be positive, got {self.p0}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.b <= 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.r_cell <= 0:
            raise ValueError(f"r_cell must be positive, got {self.r_cell}")
        if self.g_th <= 0:
            raise ValueError(f"g_th must be positive, got {self.g_th}")
        if self.n0 <= 0:
            raise ValueError(f"n0 must be positive, got {self.n0}")
        if not 1 <= self.q_bits <= 63:
            raise ValueError(f"q_bits must lie in [1, 63], got {self.q_bits}")
        if not 0.0 < self.ber < 0.2:
            raise ValueError(f"ber must lie in (0, 0.2), got {self.ber}")

    @property
    def t_s(self) -> float:
        """OFDM symbol duration, the inverse of the sub-carrier spacing."""
        return self.m / self.b

    @property
    def b_sub(self) -> float:
        """Sub-carrier spacing b/m (Hz)."""
        return self.b / self.m


@dataclass(frozen=True)
class ScenarioParams:
    """Deployment scenario: device count, interior radius, model dimension.

    r_in is the cell-interior radius in meters; q_dim the model dimension.
    The round count belongs to the training configuration.
    """

    k_devices: int
    r_in: float
    q_dim: int

    def __post_init__(self):
        if self.k_devices < 1:
            raise ValueError(f"k_devices must be >= 1, got {self.k_devices}")
        if self.r_in <= 0:
            raise ValueError(f"r_in must be positive, got {self.r_in}")
        if self.q_dim < 1:
            raise ValueError(f"q_dim must be >= 1, got {self.q_dim}")


def _is_normal(value):
    """Where ``value`` is a positive, finite, normal float."""
    # NaN fails both comparisons.
    return (value >= sys.float_info.min) & (value <= sys.float_info.max)


def _normal(value, what: str, params: SystemParams, r):
    """``value``, ``what`` at the distances ``r`` (a numpy scalar, or an
    array of ``r``'s shape), when every entry is a positive, finite, normal
    float.  Otherwise raises ValueError naming the first distance where it
    is not, with alpha, g_th, p0, m and n0."""
    normal = _is_normal(value)
    if normal.all():
        return value
    at = np.flatnonzero(~np.ravel(normal))[0]
    raise ValueError(
        f"{what} at distance {np.ravel(r)[at]} is {np.ravel(value)[at]}, not a positive, "
        f"finite, normal float (alpha = {params.alpha}, g_th = {params.g_th}, "
        f"p0 = {params.p0}, m = {params.m}, n0 = {params.n0})"
    )


# ---------------------------------------------------------------------------
# Special function
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def exp_integral(x: float) -> float:
    """Upper exponential integral E1(x) = int_x^inf exp(-t)/t dt.

    Power series for x < 1, modified-Lentz continued fraction for x >= 1;
    absolute error below 1e-10 on (0, inf).  A pure function of one float,
    cached per argument: callers pass the same cutoff g_th again and again.

    Raises:
        ValueError: if x <= 0 (the integral diverges at the origin).
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"exp_integral requires x > 0, got {x}")
    if x < 1.0:
        # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k * k!)
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-18 * max(abs(total), 1e-300):
                break
        return total
    # Continued fraction E1(x) = e^-x / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x)


# ---------------------------------------------------------------------------
# Truncated channel inversion: SNR / truncation tradeoff
# ---------------------------------------------------------------------------

def truncation_ratio(g_th: float) -> float:
    """Expected fraction of update entries lost to sub-channel cutoff.

    Equals the probability that a unit-mean exponential channel gain falls
    below the cutoff threshold: 1 - exp(-g_th).
    """
    if g_th < 0:
        raise ValueError(f"g_th must be >= 0, got {g_th}")
    return -math.expm1(-g_th)


def cutoff_for_ratio(zeta: float) -> float:
    """Cutoff threshold achieving truncation ratio zeta; inverse of
    :func:`truncation_ratio` on [0, 1)."""
    if not 0.0 <= zeta < 1.0:
        raise ValueError(f"zeta must lie in [0, 1), got {zeta}")
    return -math.log1p(-zeta)


def aligned_receive_power(params: SystemParams, r_max):
    """Aligned per-sub-channel receive power rho0 (watts).

    This is the common amplitude-squared at which every scheduled device's
    symbols arrive when the furthest device (distance r_max) transmits at
    its full power budget under truncated channel inversion at the cutoff
    ``params.g_th``.  ``r_max`` may be an array of distances; the result
    then has its shape.  Raises ValueError where the receive SNR rho0 / n0
    is not a positive, finite, normal float.
    """
    r_max = np.asarray(r_max, dtype=float)
    if (r_max <= 0).any():
        raise ValueError(f"r_max must be positive, got {r_max}")
    with np.errstate(all="ignore"):
        rho0 = params.p0 / (params.m * r_max**params.alpha * exp_integral(params.g_th))
        _normal(rho0 / params.n0, "the receive SNR", params, r_max)
    return rho0


def receive_snr(params: SystemParams, r_max):
    """Receive SNR (linear) of the aligned aggregation signal: rho0 / n0."""
    return aligned_receive_power(params, r_max) / params.n0


SnrTruncationRow = namedtuple("SnrTruncationRow", "alpha r_max_m zeta g_th snr_linear snr_db")


def snr_truncation_curve(params: SystemParams, alpha_grid, r_max_grid, zeta_grid) -> list:
    """Receive SNR against the truncation ratio: :class:`SnrTruncationRow`
    rows, alpha-major, then r_max.

    Each zeta in (0, 1) is mapped once through the cutoff threshold
    g_th = -ln(1 - zeta), which replaces ``params.g_th``; the SNR is
    strictly increasing in zeta.
    """
    cutoffs = []
    for zeta in zeta_grid:
        if not 0.0 < zeta < 1.0:
            raise ValueError(f"zeta grid values must lie strictly in (0, 1), got {zeta}")
        cutoffs.append(cutoff_for_ratio(zeta))
    rows = []
    for alpha in alpha_grid:
        for r_max in r_max_grid:
            for zeta, g_th in zip(zeta_grid, cutoffs):
                snr = float(receive_snr(replace(params, alpha=alpha, g_th=g_th), r_max))
                rows.append(SnrTruncationRow(alpha, r_max, zeta, g_th, snr, 10.0 * math.log10(snr)))
    return rows


# ---------------------------------------------------------------------------
# Disk-topology scheduling statistics
# ---------------------------------------------------------------------------

def fraction_exploited(r_in: float, r_cell: float) -> float:
    """Expected fraction of data used under cell-interior scheduling.

    Devices are uniform on the disk, so the interior probability, and with
    equal shards the expected data fraction, is (r_in / r_cell)^2.
    """
    if r_in <= 0:
        raise ValueError(f"r_in must be positive, got {r_in}")
    if r_in > r_cell:
        raise ValueError(f"r_in must not exceed r_cell ({r_in} > {r_cell})")
    return (r_in / r_cell) ** 2


def k_in_pmf(k_devices: int, r_in: float, r_cell: float, k: int) -> float:
    """Probability that exactly k of k_devices fall inside radius r_in.

    The interior count is Binomial(k_devices, (r_in/r_cell)^2).
    """
    if not 0 <= k <= k_devices:
        raise ValueError(f"k must lie in [0, {k_devices}], got {k}")
    p = fraction_exploited(r_in, r_cell)
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == k_devices else 0.0
    return math.exp(_log_k_in_pmf(k_devices, p, k))


def _log_k_in_pmf(k_devices: int, p: float, k: int) -> float:
    """ln P(K_in = k) for K_in ~ Binomial(k_devices, p), 0 < p < 1."""
    return (
        math.lgamma(k_devices + 1)
        - math.lgamma(k + 1)
        - math.lgamma(k_devices - k + 1)
        + k * math.log(p)
        + (k_devices - k) * math.log1p(-p)
    )


def interior_count_pmf(k_devices: int, r_in: float, r_cell: float) -> np.ndarray:
    """The law of the interior count: :func:`k_in_pmf` of j = 0..k_devices."""
    return np.array([k_in_pmf(k_devices, r_in, r_cell, j) for j in range(k_devices + 1)])


def max_distance_moments(k_devices: int, r_cell: float):
    """Distribution of the furthest device's distance from the server.

    Returns (pdf, mean): the density f(r) = 2K r^(2K-1) / R^(2K) on [0, R]
    (zero outside) and its mean 2K/(2K+1) * R.
    """
    if k_devices < 1:
        raise ValueError(f"k_devices must be >= 1, got {k_devices}")
    if r_cell <= 0:
        raise ValueError(f"r_cell must be positive, got {r_cell}")
    two_k = 2.0 * k_devices

    def pdf(r):
        r = np.asarray(r, dtype=float)
        inside = (r >= 0.0) & (r <= r_cell)
        safe_r = np.where(inside, r, 0.0)
        out = np.where(inside, two_k / r_cell * (safe_r / r_cell) ** (two_k - 1.0), 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    mean = two_k / (two_k + 1.0) * r_cell
    return pdf, mean


def furthest_snr_weight(j: int, alpha: float) -> float:
    """Mean receive SNR of the furthest of j devices dropped uniformly
    within a radius, over the SNR at that radius: 2j/(2j - alpha), or 0
    where 2j <= alpha and the mean diverges."""
    two_j = 2.0 * j
    return two_j / (two_j - alpha) if two_j > alpha else 0.0


def _all_inclusive_weight(k_devices: int, alpha: float) -> float:
    weight = furthest_snr_weight(k_devices, alpha)
    if weight == 0.0:
        raise ValueError(
            "expected receive SNR diverges: the furthest-device mean needs "
            f"2*k_devices > alpha (k_devices={k_devices}, alpha={alpha})"
        )
    return weight


def expected_snr_all_inclusive(params: SystemParams, k_devices: int) -> float:
    """Expected receive SNR when every device in the cell is scheduled:
    the :func:`furthest_snr_weight` of K devices, 2K/(2K - alpha), at the
    cell radius.  Raises ValueError where it diverges (2K <= alpha)."""
    with np.errstate(all="ignore"):
        snr = _all_inclusive_weight(k_devices, params.alpha) * receive_snr(params, params.r_cell)
    return _normal(snr, "the expected all-inclusive receive SNR", params, params.r_cell)


def count_snr_weights(k_devices: int, alpha: float) -> np.ndarray:
    """:func:`furthest_snr_weight` of each scheduled count j = 0..k_devices,
    and 0 for j < 2, since one device aggregates nothing.  A count of
    weight 0 adds no SNR term, and one of weight 0 at 2 alpha a term of
    infinite variance."""
    return np.array([furthest_snr_weight(j, alpha) if j >= 2 else 0.0 for j in range(k_devices + 1)])


def dropped_count_mass(pmf, weights) -> tuple:
    """What the count law ``pmf`` weighed by :func:`count_snr_weights` at
    alpha drops: (P(K_in < 2), P(K_in >= 2 and 2 K_in <= alpha))."""
    return float(pmf[:2].sum()), float(pmf[2:][weights[2:] == 0.0].sum())


def _interior_factor(pmf, weights) -> float:
    # Weight times probability, added in count order (np.sum adds pairwise).
    if pmf.size < 3:
        raise ValueError(f"cell-interior expectation needs k_devices >= 2 (k_devices={pmf.size - 1})")
    return float(np.cumsum(weights * pmf)[-1])


def expected_snr_cell_interior(params: SystemParams, scenario: ScenarioParams):
    """Expected receive SNR under cell-interior scheduling.

    Returns (snr, c) where snr = c * p0 / (m * r_in^alpha * E1(g_th)) / n0
    and c sums, in count order, each interior count's
    :func:`count_snr_weights` times its :func:`interior_count_pmf`.  The
    counts of weight 0, fewer than two devices or a divergent mean, add 0
    (:func:`dropped_count_mass`); for alpha = 3, 1 <= c <= 4 once the first
    are unlikely.
    """
    pmf = interior_count_pmf(scenario.k_devices, scenario.r_in, params.r_cell)
    c = _interior_factor(pmf, count_snr_weights(scenario.k_devices, params.alpha))
    with np.errstate(all="ignore"):
        snr = c * receive_snr(params, scenario.r_in)
    return _normal(snr, "the expected cell-interior receive SNR", params, scenario.r_in), c


GainRow = namedtuple("GainRow", "alpha k_devices f_dat snr_gain p_fewer_than_two p_infinite_mean")


def reliability_quantity_curve(params: SystemParams, k_devices: int, alpha_grid, f_dat_grid) -> list:
    """SNR gain versus fraction of exploited data: :class:`GainRow` rows,
    alpha-major.

    A data fraction F in (0, 1] sets r_in = r_cell * sqrt(F).  The gain,
    expected cell-interior over all-inclusive receive SNR, is
    c * (r_cell / r_in)^alpha / (2K / (2K - alpha)) with the c of
    :func:`expected_snr_cell_interior`: p0, m, n0 and E1(g_th) cancel.  It
    is 1 at F = 1; the last two columns are what c drops.  Where that
    product is not a normal float (c underflows or the power overflows,
    as at large alpha and small F), the gain is summed term by term in log
    space instead.
    """
    for f_dat in f_dat_grid:
        if not 0.0 < f_dat <= 1.0:
            raise ValueError(f"data fractions must lie in (0, 1], got {f_dat}")
    r_ins = [params.r_cell * math.sqrt(f_dat) for f_dat in f_dat_grid]
    pmfs = [interior_count_pmf(k_devices, r_in, params.r_cell) for r_in in r_ins]
    rows = []
    for alpha in alpha_grid:
        all_inclusive = _all_inclusive_weight(k_devices, alpha)
        weights = count_snr_weights(k_devices, alpha)
        for f_dat, r_in, pmf in zip(f_dat_grid, r_ins, pmfs):
            with np.errstate(all="ignore"):
                gain = _interior_factor(pmf, weights) * np.power(params.r_cell / r_in, alpha) / all_inclusive
            if not _is_normal(gain):
                gain = _log_space_gain(weights, k_devices, r_in, params.r_cell, alpha, all_inclusive)
            gain = _normal(gain, "the SNR gain", replace(params, alpha=alpha), r_in)
            rows.append(GainRow(alpha, k_devices, f_dat, float(gain), *dropped_count_mass(pmf, weights)))
    return rows


def _log_space_gain(weights, k_devices: int, r_in: float, r_cell: float, alpha: float, all_inclusive: float):
    """The gain c * (r_cell / r_in)^alpha / all_inclusive, summed in count
    order over the counts j of nonzero weight w_j as
    exp(ln w_j + ln pmf_j + alpha ln(r_cell / r_in) - ln all_inclusive), so
    that no factor leaves the float range on its own."""
    p = fraction_exploited(r_in, r_cell)
    counts = np.flatnonzero(weights)
    log_pmf = np.array([_log_k_in_pmf(k_devices, p, j) for j in counts])
    log_scale = alpha * math.log(r_cell / r_in) - math.log(all_inclusive)
    with np.errstate(over="ignore"):  # an inf gain is rejected by the caller
        return np.cumsum(np.exp(np.log(weights[counts]) + log_pmf + log_scale))[-1]


def p_all_exploited(k_devices: int, n_cr: int, p_in: float) -> float:
    """Probability that every device's data enters training at least once.

    Under i.i.d. per-round positions each device is ever-interior with
    probability 1 - (1 - p_in)^n_cr, independently of the others, so all K
    are with probability (1 - (1 - p_in)^n_cr)^K.
    """
    if not 0.0 <= p_in <= 1.0:
        raise ValueError(f"p_in must lie in [0, 1], got {p_in}")
    if n_cr < 1:
        raise ValueError(f"n_cr must be >= 1, got {n_cr}")
    if k_devices < 1:
        raise ValueError(f"k_devices must be >= 1, got {k_devices}")
    miss = (1.0 - p_in) ** n_cr
    return math.exp(k_devices * math.log1p(-miss)) if miss < 1.0 else 0.0


# ---------------------------------------------------------------------------
# Latency of analog versus digital aggregation
# ---------------------------------------------------------------------------

def latency_baa(q_dim: int, params: SystemParams) -> float:
    """Per-round latency of analog aggregation (seconds).

    One OFDM symbol carries m parameters from every device simultaneously,
    so the round takes ceil(q/m) symbols regardless of the device count and
    of the channel realizations.  Updates shorter than a whole number of
    symbols are zero-padded.
    """
    if q_dim < 1:
        raise ValueError(f"q_dim must be >= 1, got {q_dim}")
    return math.ceil(q_dim / params.m) * params.t_s


def mqam_snr_factor(ber: float) -> float:
    """SNR scaling -1.5 / ln(5 ber) of rate-adaptive MQAM at a target BER.

    The fit requires ln(5 ber) < 0, i.e. ber < 0.2.
    """
    if not 0.0 < ber < 0.2:
        raise ValueError(f"ber must lie in (0, 0.2) for the MQAM rate fit, got {ber}")
    return -1.5 / math.log(5.0 * ber)


def digital_device_snr(params: SystemParams, k_devices: int, r):
    """Per-device OFDMA receive SNR (linear): the device spends its whole
    budget on m/k sub-channels, which scales :func:`receive_snr` by k.
    ``r`` may be an array of distances."""
    with np.errstate(all="ignore"):
        snr = k_devices * receive_snr(params, r)
    return _normal(snr, "the digital device SNR", params, r)


def _bits_per_symbol(params: SystemParams, k_devices: int, r):
    # Expected MQAM bits per sub-channel use at the digital_device_snr of
    # distance r: log2(1 + factor * snr) when the sub-channel survives the
    # cutoff, which it does w.p. exp(-g_th).  Taken as log1p(x) / ln 2:
    # 1 + x rounds to 1 once x is below about 1e-16, which would make the
    # rate 0 and the latency infinite.  So would an x that underflows.
    snr = digital_device_snr(params, k_devices, r)
    with np.errstate(all="ignore"):
        bits = np.log1p(mqam_snr_factor(params.ber) * snr) / math.log(2.0) * math.exp(-params.g_th)
    return _normal(bits, "the expected MQAM bits per symbol", params, r)


def rate_digital_expected(params: SystemParams, k_devices: int, r_k):
    """Expected uplink rate (bits/s) of one device in the OFDMA baseline.

    The device holds m/k sub-channels (kept real-valued), each delivering
    log2(1 + factor * snr) bits per symbol, with snr its
    :func:`digital_device_snr`, when not cut off; the cutoff survives with
    probability exp(-g_th).  ``r_k`` may be an array of positive
    distances, one rate per entry; the cutoff integral is evaluated once.
    """
    if k_devices < 1:
        raise ValueError(f"k_devices must be >= 1, got {k_devices}")
    return _rate_of_bits(params, k_devices, _bits_per_symbol(params, k_devices, r_k))


def _rate_of_bits(params: SystemParams, k_devices: int, bits):
    return params.m / k_devices * params.b_sub * bits


def latency_digital(params: SystemParams, scenario: ScenarioParams, r_max: float) -> float:
    """Expected per-round latency of the digital OFDMA baseline (seconds).

    Aggregation waits for the slowest device, so the round is pinned by the
    furthest one: q * Q bits at that device's expected rate, which equals
    k * q * Q / (m * log2(1 + factor * snr(r_max)) * e^-g_th) OFDM symbols.
    """
    with np.errstate(all="ignore"):
        rate = rate_digital_expected(params, scenario.k_devices, r_max)
    return _latency_of_rate(params, scenario, r_max, rate)


def _latency_of_rate(params: SystemParams, scenario: ScenarioParams, r_max, rate):
    with np.errstate(all="ignore"):
        latency = scenario.q_dim * params.q_bits / rate
    return _normal(latency, "the digital round latency", params, r_max)


def latency_reduction_ratio(params: SystemParams, scenario: ScenarioParams, r_max: float) -> float:
    """Latency ratio digital/analog in closed form.

    Equals k * Q / (log2(1 + factor * snr(r_max)) * e^-g_th); matches the
    quotient of the two latency functions whenever q is a multiple of m.
    """
    k = scenario.k_devices
    return _ratio_of_bits(params, k, r_max, _bits_per_symbol(params, k, r_max))


def _ratio_of_bits(params: SystemParams, k_devices: int, r_max, bits):
    with np.errstate(all="ignore"):
        ratio = k_devices * params.q_bits / bits
    return _normal(ratio, "the latency reduction ratio", params, r_max)


LatencyRow = namedtuple(
    "LatencyRow",
    "k_devices q_bits ber r_max_m t_analog_s t_digital_s reduction_ratio ratio_x_log2k_over_k",
)


def latency_report(params: SystemParams, scenario: ScenarioParams, k_grid, q_bits_grid, ber_grid,
                   r_max_grid) -> list:
    """Analog and digital per-round latency and their closed-form ratio:
    :class:`LatencyRow` rows, K-major, then q_bits, ber and r_max.  The
    last column, the scaling-law diagnostic ratio / K * log2(K), is 0 at
    K = 1; log2(K) / K <= 0.531, so it is finite wherever the ratio is.
    Each row forms its bits per symbol once, for both the digital latency
    and the ratio, with the expressions of :func:`latency_digital` and
    :func:`latency_reduction_ratio`.
    """
    t_analog = latency_baa(scenario.q_dim, params)
    rows = []
    for k in k_grid:
        scenario_k = replace(scenario, k_devices=k)
        for q_bits in q_bits_grid:
            for ber in ber_grid:
                params_qb = replace(params, q_bits=q_bits, ber=ber)
                for r_max in r_max_grid:
                    bits = _bits_per_symbol(params_qb, k, r_max)
                    with np.errstate(all="ignore"):
                        rate = _rate_of_bits(params_qb, k, bits)
                    t_digital = _latency_of_rate(params_qb, scenario_k, r_max, rate)
                    ratio = _ratio_of_bits(params_qb, k, r_max, bits)
                    rows.append(LatencyRow(
                        k, q_bits, ber, r_max, t_analog, t_digital, ratio, float(ratio) / k * math.log2(k)
                    ))
    return rows
