"""Random disk topology and scheduling schemes.

Devices are dropped i.i.d. uniformly over a disk of radius ``r_cell`` around
the edge server, which makes the distance density 2r/R^2 (sampled by inverse
CDF as R * sqrt(U)).  A topology is the array of device distances: path loss
and scheduling depend on nothing else.  Three schemes decide who transmits
in a round:

* ``all-inclusive``: every device.
* ``cell-interior``: devices within radius ``r_in``.
* ``alternating``: cell-interior on one block of rounds, all-inclusive on
  the next, with a configurable half-period.

Every draw takes the ``np.random.Generator`` it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEME_KINDS = ("all-inclusive", "cell-interior", "alternating")


@dataclass(frozen=True)
class SchedulingScheme:
    """Which devices transmit: kind plus its parameters.

    ``period`` is the half-period of the alternating scheme: the first
    ``period`` rounds of every block of ``2 * period`` are cell-interior,
    the rest all-inclusive.
    """

    kind: str
    r_in: float | None = None
    period: int = 1

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"scheme kind must be one of {SCHEME_KINDS}, got {self.kind!r}")
        if self.kind in ("cell-interior", "alternating"):
            if self.r_in is None or self.r_in <= 0:
                raise ValueError(f"{self.kind} scheduling needs a positive r_in")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    @classmethod
    def all_inclusive(cls) -> "SchedulingScheme":
        return cls("all-inclusive")

    @classmethod
    def cell_interior(cls, r_in: float) -> "SchedulingScheme":
        return cls("cell-interior", r_in=r_in)

    @classmethod
    def alternating(cls, r_in: float, period: int = 1) -> "SchedulingScheme":
        return cls("alternating", r_in=r_in, period=period)


def sample_radii(k_devices: int, r_cell: float, rng, size: int | None = None, out=None) -> np.ndarray:
    """Distances of uniformly dropped devices: r = R * sqrt(U).

    With ``size`` set, returns a (size, k_devices) matrix of independent
    topology draws for Monte Carlo use.  ``out``, a C-contiguous float64
    array of the returned shape, receives the same draws that a call
    without it returns.
    """
    shape = (k_devices,) if size is None else (size, k_devices)
    radii = rng.random(shape, out=out)
    np.sqrt(radii, out=radii)
    radii *= r_cell
    return radii


def sample_topology(k_devices: int, r_cell: float, rng) -> np.ndarray:
    """Distances of k_devices dropped uniformly on the disk."""
    if k_devices < 1:
        raise ValueError(f"k_devices must be >= 1, got {k_devices}")
    if r_cell <= 0:
        raise ValueError(f"r_cell must be positive, got {r_cell}")
    return sample_radii(k_devices, r_cell, rng)


def advance_round(radii: np.ndarray, r_cell: float, rng) -> np.ndarray:
    """Distances in the next round: the same devices when ``rng`` is None
    (static), else a fresh uniform drop of as many devices."""
    if rng is None:
        return radii
    return sample_topology(radii.size, r_cell, rng)


def _interior_active(scheme: SchedulingScheme, round_index: int) -> bool:
    if scheme.kind == "cell-interior":
        return True
    if scheme.kind == "alternating":
        return (round_index % (2 * scheme.period)) < scheme.period
    return False


def schedule(radii: np.ndarray, scheme: SchedulingScheme, round_index: int) -> np.ndarray:
    """Indices of the devices that transmit in the given round.

    A pure function of (distances, scheme, round_index); an empty interior
    gives an empty array rather than an error, so long simulations can skip
    the round.
    """
    if _interior_active(scheme, round_index):
        return np.flatnonzero(radii <= scheme.r_in)
    return np.arange(radii.size)
