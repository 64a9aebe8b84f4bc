"""Hardening extensions: spread-spectrum aggregation and receive beamforming.

Direct-sequence spreading protects the analog aggregate against a
code-unaware interferer: all legitimate devices scramble their symbols with
a common +/-1 chip sequence, and despreading at the server recovers their
sum while white interference loses a factor of the spreading gain.  A
sweep over spreading factors measures that loss with common random
numbers: the codes of the sweep despread leading chips of one shared chip
stream, so the sweep draws the chips of its widest code only.

Beamforming compares two multi-antenna strategies on a shared channel
matrix: sum-SNR maximization over the weak-user subspace (a Rayleigh
quotient solved by a Hermitian eigendecomposition) versus per-user
zero-forcing beams, which need at least as many antennas as users.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .rng import derived_rng, row_blocks

SYMBOLS_PER_TRIAL = 64
# A zero-forcing projection shorter than this share of the user's channel
# norm means the other users' channels span it: the user is infeasible.
COLINEAR_TOL = 1e-10
# With one user both beams are the same MRC beam, so the aggregation
# objective and the best SDMA SNR tie exactly and differ only by rounding.
BEAM_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SpreadingCode:
    """A +/-1 chip sequence; gamma chips carry one symbol."""

    chips: np.ndarray

    def __post_init__(self):
        chips = np.asarray(self.chips, dtype=float)
        if chips.ndim != 1 or chips.size < 1:
            raise ValueError("chips must be a nonempty 1-d sequence")
        if not np.all(np.abs(chips) == 1.0):
            raise ValueError("every chip must be +1 or -1")
        object.__setattr__(self, "chips", chips)

    @property
    def gamma(self) -> int:
        return self.chips.size


def pn_code(gamma: int, rng) -> SpreadingCode:
    """Pseudorandom +/-1 code of the given spreading factor."""
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    return SpreadingCode(np.where(rng.random(gamma) < 0.5, -1.0, 1.0))


def spread(symbols, code: SpreadingCode) -> np.ndarray:
    """Multiply each symbol across gamma chip slots by the chip sequence."""
    symbols = np.asarray(symbols, dtype=float)
    if symbols.ndim != 1:
        raise ValueError("symbols must be 1-d")
    return (symbols[:, None] * code.chips[None, :]).ravel()


def despread(chip_symbols, code: SpreadingCode) -> np.ndarray:
    """Correlate chip blocks against the code and divide by gamma.

    Works on the last axis, so a (trials, n * gamma) matrix despreads
    row by row.  Exact inverse of :func:`spread`: the +/-1 multiplications
    are lossless and the block reduction halves pairwise, so power-of-two
    spreading factors round-trip bit-exactly.
    """
    chip_symbols = np.atleast_1d(np.asarray(chip_symbols, dtype=float))
    gamma = code.gamma
    if chip_symbols.shape[-1] % gamma != 0:
        raise ValueError(f"chip signal length {chip_symbols.shape[-1]} is not a multiple of gamma={gamma}")
    blocks = chip_symbols.reshape(*chip_symbols.shape[:-1], -1, gamma) * code.chips
    while blocks.shape[-1] > 1 and blocks.shape[-1] % 2 == 0:
        blocks = blocks[..., ::2] + blocks[..., 1::2]
    if blocks.shape[-1] > 1:
        blocks = blocks.sum(axis=-1, keepdims=True)
    return blocks[..., 0] / gamma


def adversary_suppression_trial(legit_updates, adversary_power: float, gamma: int, rng):
    """One protected-aggregation trial against a code-unaware interferer.

    Legitimate devices share one spreading code; the adversary injects white
    Gaussian interference of the given power at chip rate.  Returns the
    despread aggregate and the measured interference-suppression ratio
    (chip-rate interference power over post-despreading interference power),
    which concentrates on gamma; it is inf at zero adversary power.
    """
    if adversary_power < 0:
        raise ValueError(f"adversary_power must be >= 0, got {adversary_power}")
    mat = np.atleast_2d(np.asarray(legit_updates, dtype=float))
    code = pn_code(gamma, rng)
    superposed = spread(mat.sum(axis=0), code)
    interference = rng.normal(0.0, np.sqrt(adversary_power), superposed.size)
    aggregate = despread(superposed + interference, code)

    residual = despread(interference, code)
    raw_power = float(np.mean(interference**2))
    despread_power = float(np.mean(residual**2))
    ratio = raw_power / despread_power if despread_power > 0 else float("inf")
    return aggregate, ratio


def suppression_ratios(codes, trials: int, rng) -> list:
    """Suppression of unit white interference by despreading, one ratio per
    code, each pooled over trials of ``SYMBOLS_PER_TRIAL`` symbols: total
    chip power over gamma divided by total despread power, which
    concentrates on gamma.

    The codes share their chips (common random numbers): each trial draws
    the chips of the widest code, and a code of factor gamma despreads the
    first ``SYMBOLS_PER_TRIAL * gamma`` of them.  So each ratio keeps the
    law of its own i.i.d. N(0, 1) chips, and depends on the other codes
    only through the widest factor.  The chips are drawn and despread in
    the row blocks of :func:`rng.row_blocks`, so memory stays bounded at
    any ``trials``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    widths = [SYMBOLS_PER_TRIAL * code.gamma for code in codes]
    widest = max(widths)
    raw_power = [0.0] * len(codes)
    despread_power = [0.0] * len(codes)
    for start, stop in row_blocks(trials, widest):
        interference = rng.standard_normal((stop - start, widest))
        for i, (code, width) in enumerate(zip(codes, widths)):
            chips = interference[:, :width]
            raw_power[i] += float(np.square(chips).sum())
            despread_power[i] += float(np.square(despread(chips, code)).sum())
    return [
        raw / code.gamma / residual
        for code, raw, residual in zip(codes, raw_power, despread_power)
    ]


# ---------------------------------------------------------------------------
# Beamforming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamProblem:
    """Receive-beamforming instance for an n-antenna server and K devices."""

    h_matrix: np.ndarray
    weak_set: tuple
    n0: float

    def __post_init__(self):
        h = np.asarray(self.h_matrix, dtype=complex)
        if h.ndim != 2:
            raise ValueError("h_matrix must be n_antennas x k_devices")
        weak = tuple(int(i) for i in self.weak_set)
        if any(not 0 <= i < h.shape[1] for i in weak):
            raise ValueError("weak_set indices out of range")
        if self.n0 <= 0:
            raise ValueError(f"n0 must be positive, got {self.n0}")
        object.__setattr__(self, "h_matrix", h)
        object.__setattr__(self, "weak_set", weak)

    @property
    def n_antennas(self) -> int:
        return self.h_matrix.shape[0]

    @property
    def k_devices(self) -> int:
        return self.h_matrix.shape[1]


@dataclass(frozen=True)
class AggregationBeamResult:
    f_matrix: np.ndarray
    objective: float
    degenerate: bool


@dataclass(frozen=True)
class SdmaBeamResult:
    feasible: bool
    beams: np.ndarray | None
    per_user_snr: np.ndarray | None
    infeasible_users: tuple
    reason: str = ""


def beam_objective(problem: BeamProblem, f_matrix: np.ndarray) -> float:
    """Sum-SNR objective tr(F^H A F) / (n0 tr(F^H F)) of a candidate F.

    Homogeneous of degree zero in F (scaling F leaves it unchanged).  No
    report calls it: it stays as the independent reference that the tests
    hold the beam solvers' objectives to.
    """
    f = np.atleast_2d(np.asarray(f_matrix, dtype=complex))
    if f.shape[0] != problem.n_antennas:
        f = f.T
    h_weak = problem.h_matrix[:, list(problem.weak_set)]
    num = float(np.real(np.trace(f.conj().T @ h_weak @ h_weak.conj().T @ f)))
    den = float(np.real(np.trace(f.conj().T @ f)))
    if den == 0.0:
        raise ValueError("beam matrix must be nonzero")
    return num / (problem.n0 * den)


def aggregation_beamformer(problem: BeamProblem) -> AggregationBeamResult:
    """Sum-SNR-maximizing receive beam for the weak-user subspace.

    Maximizes tr(F^H A F) / (n0 tr(F^H F)) with A built from the weak users'
    channel columns over the single aggregation beam F (shape (n, 1)); the
    optimum is the principal eigenvector of A and attains its largest
    eigenvalue over n0.  If every weak channel is zero, A = 0 and every beam
    attains 0: the result is a unit eigenvector, flagged ``degenerate``.
    """
    if not problem.weak_set:
        raise ValueError("aggregation beamforming needs a nonempty weak_set")
    h_weak = problem.h_matrix[:, list(problem.weak_set)]
    a = h_weak @ h_weak.conj().T
    # eigh sorts ascending; the last column is the principal eigenvector.
    eigvals, eigvecs = np.linalg.eigh(a)
    return AggregationBeamResult(
        f_matrix=eigvecs[:, -1:], objective=float(eigvals[-1] / problem.n0), degenerate=not np.any(a)
    )


def sdma_beamformer(problem: BeamProblem) -> SdmaBeamResult:
    """Per-user zero-forcing beams, or a structured infeasibility result.

    Each beam is the unit-norm projection of the user's channel onto the
    orthogonal complement of all other users' channels.  Needs at least as
    many antennas as devices; users whose channel is swallowed by the
    others' span are flagged individually.
    """
    n, k = problem.n_antennas, problem.k_devices
    if n < k:
        return SdmaBeamResult(
            feasible=False,
            beams=None,
            per_user_snr=None,
            infeasible_users=tuple(range(k)),
            reason=(
                f"zero-forcing needs n_antennas >= k_devices to have enough "
                f"degrees of freedom (n={n}, k={k})"
            ),
        )
    h = problem.h_matrix
    beams = np.zeros((n, k), dtype=complex)
    snrs = np.full(k, np.nan)
    bad_users = []
    for user in range(k):
        # With one user the others' basis is empty: the projection is h itself.
        q, _ = np.linalg.qr(np.delete(h, user, axis=1))
        projection = h[:, user] - q @ (q.conj().T @ h[:, user])
        norm = np.linalg.norm(projection)
        if norm <= COLINEAR_TOL * max(np.linalg.norm(h[:, user]), 1e-300):
            bad_users.append(user)
            continue
        beam = projection / norm
        beams[:, user] = beam
        snrs[user] = float(np.abs(beam.conj() @ h[:, user]) ** 2 / problem.n0)
    return SdmaBeamResult(
        feasible=not bad_users,
        beams=beams,
        per_user_snr=snrs,
        infeasible_users=tuple(bad_users),
        reason="colinear channels leave no interference-free direction" if bad_users else "",
    )


SuppressionRow = namedtuple("SuppressionRow", "gamma trials measured_suppression expected")
BeamRow = namedtuple(
    "BeamRow",
    "instance n_antennas k_devices aggregation_objective sdma_status sdma_best_snr aggregation_dominates",
)


def extension_rows(gammas, antennas: int, users: int, n0: float, trials: int, seed: int):
    """:class:`SuppressionRow` rows of ``dsss_suppression.csv``, over
    min(trials, 10000) trials, and :class:`BeamRow` rows of
    ``beamforming.csv``: antennas x users, antennas x 1 (a tie) and
    max(2, users - 1) x users, which has n < k when users >= 3."""
    n_trials = min(trials, 10000)
    codes = [pn_code(gamma, derived_rng(seed, "ext", "dsss", gamma)) for gamma in gammas]
    measured = suppression_ratios(codes, n_trials, derived_rng(seed, "ext", "dsss", "chips"))
    suppression_rows = [
        SuppressionRow(gamma, n_trials, ratio, float(gamma)) for gamma, ratio in zip(gammas, measured)
    ]
    beam_rows = []
    instances = [(antennas, users), (antennas, 1), (max(2, users - 1), users)]
    for idx, (n_ant, k_dev) in enumerate(instances):
        rng = derived_rng(seed, "ext", "beam", idx)
        h = (rng.standard_normal((n_ant, k_dev)) + 1j * rng.standard_normal((n_ant, k_dev))) / np.sqrt(2)
        problem = BeamProblem(h_matrix=h, weak_set=tuple(range(k_dev)), n0=n0)
        agg = aggregation_beamformer(problem)
        sdma = sdma_beamformer(problem)
        best_sdma = float(np.nanmax(sdma.per_user_snr)) if sdma.feasible else float("nan")
        dominates = not sdma.feasible or agg.objective >= best_sdma * (1.0 - BEAM_TIE_RTOL)
        sdma_status = "feasible" if sdma.feasible else "infeasible"
        verdict = "yes" if dominates else "no"
        beam_rows.append(BeamRow(idx, n_ant, k_dev, agg.objective, sdma_status, best_sdma, verdict))
    return suppression_rows, beam_rows
