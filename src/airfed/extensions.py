"""Hardening extensions: spread-spectrum aggregation and receive beamforming.

Direct-sequence spreading protects the analog aggregate against a
code-unaware interferer: all legitimate devices scramble their symbols with
a common +/-1 chip sequence, and despreading at the server recovers their
sum while white interference loses a factor of the spreading gain.

Beamforming compares two multi-antenna strategies on a shared channel
matrix: sum-SNR maximization over the weak-user subspace (a Rayleigh
quotient solved by a Hermitian eigendecomposition) versus per-user
zero-forcing beams, which need at least as many antennas as users.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rng import as_rng
from .tables import Table

__all__ = [
    "SpreadingCode",
    "BeamProblem",
    "AggregationBeamResult",
    "SdmaBeamResult",
    "pn_code",
    "spread",
    "despread",
    "adversary_suppression_trial",
    "beam_objective",
    "aggregation_beamformer",
    "sdma_beamformer",
    "beam_pattern_csv",
]


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
    rng = as_rng(rng)
    return SpreadingCode(np.where(rng.random(gamma) < 0.5, -1.0, 1.0))


def spread(symbols, code: SpreadingCode) -> np.ndarray:
    """Multiply each symbol across gamma chip slots by the chip sequence."""
    symbols = np.asarray(symbols, dtype=float)
    if symbols.ndim != 1:
        raise ValueError("symbols must be 1-d")
    return (symbols[:, None] * code.chips[None, :]).ravel()


def despread(chip_symbols, code: SpreadingCode) -> np.ndarray:
    """Correlate chip blocks against the code and divide by gamma.

    Exact inverse of :func:`spread`: the +/-1 multiplications are lossless
    and the block reduction halves pairwise, so power-of-two spreading
    factors round-trip bit-exactly.
    """
    chip_symbols = np.asarray(chip_symbols, dtype=float)
    gamma = code.gamma
    if chip_symbols.ndim != 1 or chip_symbols.size % gamma != 0:
        raise ValueError(
            f"chip signal length {chip_symbols.size} is not a multiple of gamma={gamma}"
        )
    blocks = chip_symbols.reshape(-1, gamma) * code.chips[None, :]
    while blocks.shape[1] > 1 and blocks.shape[1] % 2 == 0:
        blocks = blocks[:, ::2] + blocks[:, 1::2]
    if blocks.shape[1] > 1:
        blocks = blocks.sum(axis=1, keepdims=True)
    return blocks[:, 0] / gamma


def adversary_suppression_trial(legit_updates, adversary_power: float, gamma: int, rng):
    """One protected-aggregation trial against a code-unaware interferer.

    Legitimate devices share one spreading code; the adversary injects white
    Gaussian interference of the given power at chip rate.  Returns the
    despread aggregate and the measured interference-suppression ratio
    (chip-rate interference power over post-despreading interference power),
    which concentrates on gamma.
    """
    if adversary_power < 0:
        raise ValueError(f"adversary_power must be >= 0, got {adversary_power}")
    rng = as_rng(rng)
    mat = np.atleast_2d(np.asarray(legit_updates, dtype=float))
    code = pn_code(gamma, rng)
    superposed = np.zeros(mat.shape[1] * gamma)
    for row in mat:
        superposed += spread(row, code)
    interference = rng.normal(0.0, np.sqrt(adversary_power), superposed.size) if adversary_power else np.zeros_like(superposed)
    aggregate = despread(superposed + interference, code)

    residual = despread(interference, code)
    raw_power = float(np.mean(interference**2)) if adversary_power else 0.0
    despread_power = float(np.mean(residual**2))
    ratio = raw_power / despread_power if despread_power > 0 else float("inf")
    return aggregate, ratio


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
    degenerate: bool = False


@dataclass(frozen=True)
class SdmaBeamResult:
    feasible: bool
    beams: np.ndarray | None
    per_user_snr: np.ndarray | None
    infeasible_users: tuple
    reason: str = ""


def beam_objective(problem: BeamProblem, f_matrix: np.ndarray) -> float:
    """Sum-SNR objective tr(F^H A F) / (n0 tr(F^H F)) of a candidate F.

    Homogeneous of degree zero in F (scaling F leaves it unchanged).
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


def aggregation_beamformer(problem: BeamProblem, rank: int = 1) -> AggregationBeamResult:
    """Sum-SNR-maximizing receive beams for the weak-user subspace.

    Maximizes tr(F^H A F) / (n0 tr(F^H F)) with A built from the weak users'
    channel columns; the optimum spans the principal eigenvectors of A and
    attains the mean of the top ``rank`` eigenvalues over n0.
    """
    if not problem.weak_set:
        raise ValueError("aggregation beamforming needs a nonempty weak_set")
    if not 1 <= rank <= problem.n_antennas:
        raise ValueError(f"rank must lie in [1, {problem.n_antennas}], got {rank}")
    h_weak = problem.h_matrix[:, list(problem.weak_set)]
    a = h_weak @ h_weak.conj().T
    if not np.any(a):
        warnings.warn("zero channel matrix: beamformer is degenerate", RuntimeWarning, stacklevel=2)
        return AggregationBeamResult(
            f_matrix=np.zeros((problem.n_antennas, rank), dtype=complex),
            objective=0.0,
            degenerate=True,
        )
    # eigh sorts ascending; the last ``rank`` columns span the top eigenspace.
    eigvals, eigvecs = np.linalg.eigh(a)
    top = slice(-1, -rank - 1, -1)
    return AggregationBeamResult(
        f_matrix=eigvecs[:, top], objective=float(np.mean(eigvals[top]) / problem.n0)
    )


def sdma_beamformer(problem: BeamProblem, tol: float = 1e-10) -> SdmaBeamResult:
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
        others = np.delete(h, user, axis=1)
        if others.size:
            q, _ = np.linalg.qr(others)
            projection = h[:, user] - q @ (q.conj().T @ h[:, user])
        else:
            projection = h[:, user].copy()
        norm = np.linalg.norm(projection)
        if norm <= tol * max(np.linalg.norm(h[:, user]), 1e-300):
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


def beam_pattern_csv(beam: np.ndarray, n_points: int = 361) -> str:
    """Gain of a beam vector against a uniform linear array, as CSV text.

    Half-wavelength element spacing; rows are (angle_rad, gain).
    """
    beam = np.asarray(beam, dtype=complex).ravel()
    n = beam.size
    angles = np.linspace(-np.pi / 2, np.pi / 2, n_points)
    elements = np.arange(n)
    steering = np.exp(1j * np.pi * np.outer(np.sin(angles), elements))
    gains = np.abs(steering @ beam.conj()) ** 2
    return Table(("angle_rad", "gain"), list(zip(angles, gains))).render("csv")
