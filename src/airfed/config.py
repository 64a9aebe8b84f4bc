"""Experiment configuration: flat key=value files, validation, manifests.

Config files are deliberately flat (one ``key = value`` per line, ``#``
comments) so that result manifests diff cleanly.  Unknown keys are rejected
on load.  Every value has a default mirroring the reference deployment:
100 m cell, path-loss exponent 3, 1000 sub-channels, 0.1 W per-device power
budget, -80 dBm noise, 200 devices, 16-bit quantization at target BER 1e-3.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .analytics import ScenarioParams, SystemParams
from .learning import PartitionSpec, TrainConfig
from .network import MOBILITY_MODES, SchedulingScheme

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
    "shard_size": 0,  # 0 = derived from the corpus size
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
    "g_th": "> 0",
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
    "g_th_grid": "> 0",
    "gamma_grid": ">= 1",
    "beam_antennas": ">= 1",
    "beam_users": ">= 1",
}
# Curve abscissae, which must also be strictly increasing.
INCREASING_GRIDS = ("zeta_grid", "f_dat_grid")


def dbm_to_watts(dbm: float) -> float:
    """Power conversion used at config ingestion: watts = 10^((dBm-30)/10)."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


class ConfigError(ValueError):
    """Raised for unknown keys, malformed values, or invalid combinations."""


def _parse_scalar(key: str, text: str, template):
    try:
        if isinstance(template, bool):
            raise TypeError("no boolean keys")
        if isinstance(template, int):
            return int(text)
        if isinstance(template, float):
            return float(text)
        if isinstance(template, str):
            return text
        if isinstance(template, tuple):
            element = template[0]
            parts = [p.strip() for p in text.split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            if isinstance(element, int) and not isinstance(element, bool):
                return tuple(int(p) for p in parts)
            return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {text!r} ({exc})") from exc
    raise ConfigError(f"config key {key!r}: unsupported template type")


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines against the default schema (fail-fast)."""
    values = dict(DEFAULTS)
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
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


def _build(values: dict) -> ExperimentConfig:
    for key, bound in RANGES.items():
        value = values[key]
        if not all(_within(v, bound) for v in (value if isinstance(value, tuple) else (value,))):
            verb = "be" if bound.startswith(">") else "lie in"
            raise ConfigError(f"{key} must {verb} {bound}, got {value}")
    for key in INCREASING_GRIDS:
        grid = values[key]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{key} must be strictly increasing, got {grid}")
    if values["mobility"] not in MOBILITY_MODES:
        raise ConfigError(f"mobility must be one of {MOBILITY_MODES}, got {values['mobility']!r}")

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
    kind = values["scheme"]
    if kind == "all-inclusive":
        scheme = SchedulingScheme.all_inclusive()
    elif kind == "cell-interior":
        scheme = SchedulingScheme.cell_interior(scenario.r_in)
    elif kind == "alternating":
        scheme = SchedulingScheme.alternating(scenario.r_in, values["alternation_period"])
    else:
        raise ConfigError(f"unknown scheduling scheme {kind!r}")

    shard_size = values["shard_size"] or None
    spd = values["shards_per_device"]
    if values["partition_mode"] == "noniid-shards":
        if shard_size is None:
            shard_size = values["train_samples"] // (values["k_devices"] * spd)
        partition = PartitionSpec(mode="noniid-shards", shard_size=shard_size, shards_per_device=spd)
    else:
        partition = PartitionSpec(mode="iid", shard_size=shard_size, shards_per_device=spd if shard_size else None)

    try:
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
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a config file; None gives the pure defaults.

    ``overrides`` (e.g. from CLI flags) are applied after parsing and are
    validated against the same schema.
    """
    values = parse_config_text(Path(path).read_text()) if path else dict(DEFAULTS)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value
    try:
        return _build(values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def manifest_json(config: ExperimentConfig) -> str:
    """Reproducibility manifest written alongside every result set."""
    payload = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "trials": config.trials,
        "versions": {"airfed": __version__, "result_schema": SCHEMA_VERSION},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
