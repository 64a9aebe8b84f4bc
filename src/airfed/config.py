"""Experiment configuration: flat key=value files, validation, manifests.

Config files are deliberately flat (one ``key = value`` per line, ``#``
comments) so that result manifests diff cleanly.  Unknown keys, a key set
twice and an override whose type is not its default's are rejected on load.
Every value has a default mirroring the reference deployment: 100 m cell,
path-loss exponent 3, 1000 sub-channels, 0.1 W per-device power budget,
-80 dBm noise, 200 devices, 16-bit quantization at target BER 1e-3.

Loading checks each value once, and a value it rejects raises the ValueError of
its check, which ``cli.main`` reports.  This module rejects non-finite numbers,
values outside ``RANGES``, grids that must increase but do not, and a
``mobility`` outside ``learning.MOBILITY_MODES``.  Every other key goes
straight to the type that owns it: ``SystemParams``, ``ScenarioParams``,
``TrainConfig``, ``SchedulingScheme`` (``scheme``, ``alternation_period``) and
``PartitionSpec`` (``partition_mode``, ``shard_size``, ``shards_per_device``).
Those types check every field they are given, so an unknown mode, or a bad
period or shard count, is rejected even under a scheme or partition mode that
does not read it.  ``PartitionSpec.per_device`` then checks that the partition
fits ``train_samples`` samples on ``k_devices`` devices.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import ScenarioParams, SystemParams, receive_snr
from .learning import MOBILITY_MODES, PartitionSpec, TrainConfig
from .network import SchedulingScheme

SCHEMA_VERSION = 1

# Defaults double as the type schema: every value parses to the type found
# here (tuples hold comma-separated floats/ints).
DEFAULTS: dict = {
    # physical layer
    "p0_watts": 0.1,
    "subchannels": 1000,
    "bandwidth_hz": 1.0e6,
    "path_loss_exponent": 3.0,
    "cell_radius_m": 100.0,
    "g_th": 0.2,
    "noise_dbm": -80.0,
    "quant_bits": 16,
    "target_ber": 1.0e-3,
    # scenario
    "k_devices": 200,
    "r_in_frac": 0.5,
    "n_rounds": 50,
    "model_dim": 582026,
    # training
    "eta": 0.5,
    "tau": 1,
    "batch_size": 0,  # 0 = full batch
    "aggregation": "baa",
    "scheme": "cell-interior",
    "alternation_period": 1,
    "mobility": "static",
    # data
    "dataset": "synthetic",  # or a path to IDX files
    "classes": 10,
    "feature_dim": 16,
    "train_samples": 2000,
    "test_samples": 5000,
    "class_separation": 6.0,
    "partition_mode": "iid",
    "shards_per_device": 2,
    "shard_size": 0,  # 0 = the corpus split evenly
    # experiment control
    "seed": 12345,
    "trials": 100000,
    # sweep grids
    "zeta_grid": tuple(round(0.05 * i, 2) for i in range(1, 20)),
    "alpha_grid": (2.5, 3.0, 3.5, 4.0),
    "r_max_grid": (50.0, 100.0),
    "f_dat_grid": tuple(round(0.05 * i, 2) for i in range(1, 21)),
    "k_grid": (10, 20, 50, 100, 200),
    "q_bits_grid": (8, 16, 32),
    "ber_grid": (1.0e-2, 1.0e-3, 1.0e-4, 1.0e-5),
    "r_in_grid": tuple(round(0.1 * i, 1) for i in range(1, 11)),
    "g_th_grid": (0.05, 0.1, 0.2, 0.5, 1.0),
    "gamma_grid": (1, 4, 16, 64),
    "beam_antennas": 8,
    "beam_users": 3,
}


# Accepted range of each bounded key, checked at load on a scalar or on
# every entry of a grid.  Values outside would otherwise fail mid-command
# or yield meaningless tables.
RANGES = {
    # analytics.exp_integral(g_th) stays a normal float; it is 0.0 by 745.
    "g_th": "(0, 701.8]",
    "noise_dbm": "(-3000, 3000)",  # n0 in watts stays a normal float
    "target_ber": "(0, 0.2)",
    "r_in_frac": "(0, 1]",
    "classes": ">= 2",
    "feature_dim": ">= 1",
    "train_samples": ">= 1",
    "test_samples": ">= 1",
    "trials": ">= 1",
    "zeta_grid": "(0, 1)",
    "alpha_grid": "> 0",
    "r_max_grid": "> 0",
    "f_dat_grid": "(0, 1]",
    "k_grid": ">= 1",
    "q_bits_grid": "[1, 63]",
    "ber_grid": "(0, 0.2)",
    "r_in_grid": "(0, 1]",
    "g_th_grid": "(0, 701.8]",
    "gamma_grid": ">= 1",
    "beam_antennas": ">= 1",
    "beam_users": ">= 1",
}
# Curve abscissae, which must also be strictly increasing.
INCREASING_GRIDS = ("zeta_grid", "f_dat_grid")


def dbm_to_watts(dbm: float) -> float:
    """Power conversion used at config ingestion: watts = 10^((dBm-30)/10)."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _parse_scalar(key: str, text: str, template):
    try:
        if isinstance(template, tuple):
            parts = [p.strip() for p in text.split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(map(type(template[0]), parts))
        return type(template)(text)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {text!r} ({exc})") from exc


def _of_type(value, template) -> bool:
    """Whether ``value`` has the type of the default ``template``: an int
    passes for a float, a grid is a nonempty tuple checked entry by entry,
    and a bool passes for nothing."""
    if isinstance(template, tuple):
        return isinstance(value, tuple) and bool(value) and all(_of_type(v, template[0]) for v in value)
    kinds = (int, float) if isinstance(template, float) else type(template)
    return isinstance(value, kinds) and not isinstance(value, bool)


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines, each key set once, against the default schema (fail-fast)."""
    values = dict(DEFAULTS)
    set_on = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ValueError(f"line {lineno}: config key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = _parse_scalar(key, value, DEFAULTS[key])
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description assembled from a flat config."""

    system: SystemParams
    scenario: ScenarioParams
    train: TrainConfig
    partition: PartitionSpec
    scheme: SchedulingScheme
    mobility: str
    seed: int
    trials: int
    values: dict = field(repr=False)

    def canonical_text(self) -> str:
        """Stable textual form of every effective key=value pair."""
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, tuple):
                rendered = ",".join(_fmt(v) for v in value)
            else:
                rendered = _fmt(value)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _within(value, bound: str) -> bool:
    """Whether ``value`` satisfies a RANGES entry: "> a", ">= a" or an
    interval such as "(a, b]"."""
    if bound.startswith(">"):
        op, limit = bound.split()
        return value >= float(limit) if op == ">=" else value > float(limit)
    lo, hi = (float(x) for x in bound[1:-1].split(","))
    above = lo <= value if bound[0] == "[" else lo < value
    return above and (value <= hi if bound[-1] == "]" else value < hi)


def _extremes(values: dict, key: str, grid: str) -> tuple:
    """The smallest and the largest (key, value) of a scalar key and the
    grid that sweeps it, each the first entry holding its value."""
    entries = [(key, values[key])] + [(grid, v) for v in values[grid]]
    return min(entries, key=lambda entry: entry[1]), max(entries, key=lambda entry: entry[1])


def _require_normal_snr(values: dict, system: SystemParams) -> None:
    """Reject a config under which the aligned receive SNR over- or
    underflows: ``analytics.receive_snr`` must hold at the cell radius and
    each ``r_max_grid`` entry, under ``path_loss_exponent`` and each
    ``alpha_grid`` entry, at ``g_th`` and each ``g_th_grid`` entry.
    Checked at load, the error names the config keys.  The SNR falls with the
    radius, is monotone in the exponent at each radius and rises with the
    cutoff, so its extremes lie where each of the three is smallest or
    largest, and those eight combinations are the ones evaluated."""
    for alpha in _extremes(values, "path_loss_exponent", "alpha_grid"):
        for g_th in _extremes(values, "g_th", "g_th_grid"):
            params = replace(system, alpha=alpha[1], g_th=g_th[1])
            for radius in _extremes(values, "cell_radius_m", "r_max_grid"):
                try:
                    receive_snr(params, radius[1])
                except ValueError as exc:
                    where = ", ".join(f"{key} = {value}" for key, value in (radius, alpha, g_th))
                    raise ValueError(f"the receive SNR at {where}: {exc}") from exc


def _build(values: dict) -> ExperimentConfig:
    for key, value in values.items():
        if isinstance(value, str):
            continue
        entries = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
            raise ValueError(f"{key} must be finite, got {value}")
        bound = RANGES.get(key)
        if bound and not all(_within(v, bound) for v in entries):
            verb = "be" if bound.startswith(">") else "lie in"
            raise ValueError(f"{key} must {verb} {bound}, got {value}")
    for key in INCREASING_GRIDS:
        grid = values[key]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"{key} must be strictly increasing, got {grid}")
    if values["mobility"] not in MOBILITY_MODES:
        raise ValueError(f"mobility must be one of {MOBILITY_MODES}, got {values['mobility']!r}")

    system = SystemParams(
        p0=values["p0_watts"],
        m=values["subchannels"],
        b=values["bandwidth_hz"],
        alpha=values["path_loss_exponent"],
        r_cell=values["cell_radius_m"],
        g_th=values["g_th"],
        n0=dbm_to_watts(values["noise_dbm"]),
        q_bits=values["quant_bits"],
        ber=values["target_ber"],
    )
    _require_normal_snr(values, system)
    scenario = ScenarioParams(
        k_devices=values["k_devices"],
        r_in=values["r_in_frac"] * system.r_cell,
        q_dim=values["model_dim"],
    )
    train = TrainConfig(
        eta=values["eta"],
        tau=values["tau"],
        n_cr=values["n_rounds"],
        batch_size=values["batch_size"] or None,
        aggregation=values["aggregation"],
    )
    scheme = SchedulingScheme(values["scheme"], r_in=scenario.r_in, period=values["alternation_period"])
    partition = PartitionSpec(
        values["partition_mode"], values["shard_size"] or None, values["shards_per_device"]
    )
    n_train, k = values["train_samples"], values["k_devices"]
    try:
        partition.per_device(n_train, k)
    except ValueError as exc:
        raise ValueError(f"train_samples = {n_train}, k_devices = {k}: {exc}") from exc

    return ExperimentConfig(
        system=system,
        scenario=scenario,
        train=train,
        partition=partition,
        scheme=scheme,
        mobility=values["mobility"],
        seed=values["seed"],
        trials=values["trials"],
        values=values,
    )


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a config file; None gives the pure defaults.

    ``overrides`` (e.g. from CLI flags) are applied after parsing and are
    validated against the same schema; one whose type is not its default's
    raises ValueError (:func:`_of_type`).
    """
    text = ""
    if path:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read config file {path}: {exc}") from exc
    values = parse_config_text(text)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        if not _of_type(value, DEFAULTS[key]):
            raise ValueError(
                f"config key {key!r} must have the type of its default {DEFAULTS[key]!r}, got {value!r}"
            )
        values[key] = value
    return _build(values)


def manifest_json(config: ExperimentConfig) -> str:
    """Reproducibility manifest written alongside every result set."""
    payload = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "trials": config.trials,
        "versions": {
            "airfed": __version__,
            "result_schema": SCHEMA_VERSION,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
