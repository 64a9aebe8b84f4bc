"""Per-layer metric map: which airfed functions the traced run times.

Each entry names a module (a layer), the public functions whose calls are
timed, the end-to-end metric the layer's numbers should move and the
workloads where it should move them.  Every function of an entry must
record at least one call on each workload listed in ``on``; the traced run
checks this, which catches a ``from .x import name`` alias the rebinding
missed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    module: str
    functions: tuple
    moves: str
    on: tuple


LAYERS = (
    Layer("rng", ("derived_rng",), "ideal/analog/digital_round_ms, rounds_per_s", ("fl-desk",)),
    Layer(
        "learning",
        (
            "federated_train",
            "partition",
            "local_sgd",
            "loss_gradient",
            "global_loss",
            "local_loss",
            "accuracy",
            "global_average",
        ),
        "ideal/analog/digital_round_ms, rounds_per_s (never on phy-paper)",
        ("fl-desk",),
    ),
    Layer(
        "phy",
        (
            "baa_round",
            "draw_channels",
            "align_rho0",
            "normalization_from_values",
            "normalize_updates",
            "denormalize",
        ),
        "analog_round_ms, peak_rss_mb (flat on fl-desk)",
        ("phy-paper",),
    ),
    Layer("phy", ("digital_round",), "digital_round_ms", ("phy-paper",)),
    Layer("analytics", ("rate_digital_expected", "exp_integral"), "digital_round_ms", ("phy-paper",)),
    Layer(
        "analytics",
        (
            "snr_truncation_curve",
            "reliability_quantity_curve",
            "latency_report",
            "k_in_pmf",
            "expected_snr_cell_interior",
            "p_all_exploited",
        ),
        "tradeoff_ms, latency_ms, montecarlo_ms",
        ("cli-reports",),
    ),
    Layer("network", ("sample_radii",), "montecarlo_ms, peak_rss_mb", ("cli-reports",)),
    Layer("network", ("sample_topology", "advance_round", "schedule"), "*_round_ms", ("fl-desk",)),
    Layer(
        "extensions",
        ("pn_code", "despread", "aggregation_beamformer", "sdma_beamformer"),
        "extensions_ms",
        ("cli-reports",),
    ),
    Layer(
        "cli",
        ("run_command", "montecarlo_rows", "cmd_extensions", "Table.render"),
        "the matching <command>_ms",
        ("cli-reports",),
    ),
    Layer("datasets", ("synth_gaussian_mixture",), "setup_s", ("fl-desk",)),
    Layer("config", ("load_config",), "setup_s", ("fl-desk", "phy-paper", "cli-reports")),
)

# Functions whose peak traced allocation per call is recorded (tracemalloc).
ALLOC_TRACKED = ("phy.baa_round", "phy.draw_channels", "phy.digital_round", "network.sample_radii")

# Functions whose median call duration is reported next to their self time.
P50_REPORTED = ("phy.baa_round", "phy.digital_round")


def qualnames(workload: str | None = None) -> list:
    """``module.function`` names of every traced function, or of those a
    workload must call."""
    names = []
    for layer in LAYERS:
        if workload is None or workload in layer.on:
            names.extend(f"{layer.module}.{fn}" for fn in layer.functions)
    return names
