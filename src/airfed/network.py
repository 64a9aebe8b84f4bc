"""Random disk topology, device mobility, and scheduling schemes.

Devices are dropped i.i.d. uniformly over a disk of radius ``r_cell`` around
the edge server, which makes the distance density 2r/R^2 (sampled by inverse
CDF as R * sqrt(U)).  Three schemes decide who transmits in a round:

* ``all-inclusive``: every device.
* ``cell-interior``: devices within radius ``r_in``.
* ``alternating``: cell-interior on one block of rounds, all-inclusive on
  the next, with a configurable half-period.

Mobility covers the two analyzed extremes only: ``static`` positions and
``iid-resample`` (fresh uniform drop every round).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rng import as_rng
from .tables import Table

MOBILITY_MODES = ("static", "iid-resample")
SCHEME_KINDS = ("all-inclusive", "cell-interior", "alternating")


@dataclass(frozen=True)
class DevicePosition:
    device_id: int
    radius: float
    angle: float


@dataclass(frozen=True)
class NetworkRealization:
    """Positions of all devices at a given communication round."""

    radii: np.ndarray
    angles: np.ndarray
    r_cell: float
    round_index: int = 0
    mobility: str = "static"

    def __post_init__(self):
        if self.mobility not in MOBILITY_MODES:
            raise ValueError(f"mobility must be one of {MOBILITY_MODES}, got {self.mobility!r}")
        radii = np.asarray(self.radii, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        if radii.shape != angles.shape or radii.ndim != 1:
            raise ValueError("radii and angles must be 1-d arrays of equal length")
        if radii.size and radii.max() > self.r_cell * (1 + 1e-12):
            raise ValueError("device radius exceeds the cell radius")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles", angles)

    @property
    def k_devices(self) -> int:
        return self.radii.size

    @property
    def positions(self) -> list[DevicePosition]:
        return [
            DevicePosition(i, float(r), float(a))
            for i, (r, a) in enumerate(zip(self.radii, self.angles))
        ]


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


@dataclass(frozen=True)
class ScheduleDecision:
    """Outcome of one scheduling step."""

    scheduled_ids: tuple
    scheme: SchedulingScheme
    r_max_scheduled: float
    k_in: int

    @property
    def empty(self) -> bool:
        return len(self.scheduled_ids) == 0


def sample_radii(k_devices: int, r_cell: float, rng, size: int | None = None) -> np.ndarray:
    """Distances of uniformly dropped devices: r = R * sqrt(U).

    With ``size`` set, returns a (size, k_devices) matrix of independent
    topology draws for Monte Carlo use.
    """
    rng = as_rng(rng)
    shape = (k_devices,) if size is None else (size, k_devices)
    return r_cell * np.sqrt(rng.random(shape))


def sample_topology(k_devices: int, r_cell: float, rng_seed) -> NetworkRealization:
    """Drop k_devices uniformly on the disk; deterministic given the seed."""
    if k_devices < 1:
        raise ValueError(f"k_devices must be >= 1, got {k_devices}")
    if r_cell <= 0:
        raise ValueError(f"r_cell must be positive, got {r_cell}")
    rng = as_rng(rng_seed)
    radii = sample_radii(k_devices, r_cell, rng)
    angles = rng.random(k_devices) * 2.0 * np.pi
    return NetworkRealization(radii=radii, angles=angles, r_cell=r_cell)


def advance_round(net: NetworkRealization, rng) -> NetworkRealization:
    """Step to the next round: keep positions (static) or redrop them."""
    if net.mobility == "static":
        return replace(net, round_index=net.round_index + 1)
    rng = as_rng(rng)
    fresh = sample_topology(net.k_devices, net.r_cell, rng)
    return replace(
        fresh,
        round_index=net.round_index + 1,
        mobility=net.mobility,
    )


def _interior_active(scheme: SchedulingScheme, round_index: int) -> bool:
    if scheme.kind == "cell-interior":
        return True
    if scheme.kind == "alternating":
        return (round_index % (2 * scheme.period)) < scheme.period
    return False


def schedule(net: NetworkRealization, scheme: SchedulingScheme, round_index: int) -> ScheduleDecision:
    """Pick the transmitting set for the given round.

    A pure function of (positions, scheme, round_index); an empty interior
    is reported via ``ScheduleDecision.empty`` rather than raised, so long
    simulations can skip the round.
    """
    r_in = scheme.r_in if scheme.r_in is not None else net.r_cell
    k_in = int(np.count_nonzero(net.radii <= r_in))
    if _interior_active(scheme, round_index):
        ids = np.flatnonzero(net.radii <= scheme.r_in)
    else:
        ids = np.arange(net.k_devices)
    r_max = float(net.radii[ids].max()) if ids.size else float("nan")
    return ScheduleDecision(
        scheduled_ids=tuple(int(i) for i in ids),
        scheme=scheme,
        r_max_scheduled=r_max,
        k_in=k_in,
    )


def topology_csv(net: NetworkRealization) -> str:
    """Snapshot as CSV text with columns device_id, radius, angle."""
    rows = [(pos.device_id, pos.radius, pos.angle) for pos in net.positions]
    return Table(("device_id", "radius_m", "angle_rad"), rows).render("csv")
