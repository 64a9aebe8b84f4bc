"""Experiment harness: each subcommand wires its config into library calls.

Subcommands map onto the study's result sets:

* ``tradeoff``    - closed-form SNR/truncation and gain/data-fraction curves
* ``montecarlo``  - simulation-vs-closed-form validation report
* ``latency``     - analog/digital latency tables over K, Q, BER, r_max sweeps
* ``train``       - federated training traces (optionally a r_in x g_th grid)
* ``compare``     - ideal vs analog vs digital side by side
* ``extensions``  - spread-spectrum suppression and beamforming comparison

Every run writes its tables plus a ``manifest.json`` (config hash, seed,
versions of airfed, its result schema, Python and numpy, and the platform).
Outputs are byte-identical for identical (config, seed) in one environment.
A check's ValueError reaches ``main``, the one place that prints ``error:``
and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytics, extensions, learning
from .config import ExperimentConfig, load_config, manifest_json
from .datasets import load_mnist_idx, synth_gaussian_mixture
from .rng import derived_rng
from .tables import Table
from .validation import ValidationRow, montecarlo_rows


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------

def cmd_tradeoff(config: ExperimentConfig) -> dict:
    values = config.values
    return {
        "snr_truncation": Table(
            analytics.SnrTruncationRow._fields,
            analytics.snr_truncation_curve(
                config.system, values["alpha_grid"], values["r_max_grid"], values["zeta_grid"]
            ),
        ),
        "gain_vs_data_fraction": Table(
            analytics.GainRow._fields,
            analytics.reliability_quantity_curve(
                config.system, config.scenario.k_devices, values["alpha_grid"], values["f_dat_grid"]
            ),
        ),
    }


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def cmd_montecarlo(config: ExperimentConfig) -> dict:
    return {"validation": Table(ValidationRow._fields, montecarlo_rows(config))}


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

def cmd_latency(config: ExperimentConfig) -> dict:
    values = config.values
    return {
        "latency": Table(
            analytics.LatencyRow._fields,
            analytics.latency_report(
                config.system,
                config.scenario,
                values["k_grid"],
                values["q_bits_grid"],
                values["ber_grid"],
                values["r_max_grid"],
            ),
        )
    }


# ---------------------------------------------------------------------------
# train / compare
# ---------------------------------------------------------------------------

def _build_datasets(config: ExperimentConfig):
    values = config.values
    if values["dataset"] == "synthetic":
        return tuple(
            synth_gaussian_mixture(
                values["classes"],
                values["feature_dim"],
                values[f"{split}_samples"],
                seed=derived_rng(config.seed, "data", split).integers(2**63),
                separation=values["class_separation"],
            )
            for split in ("train", "test")
        )
    try:
        full = load_mnist_idx(values["dataset"])
    except ValueError as exc:
        raise ValueError(f"dataset = {values['dataset']}: {exc}") from exc
    # The training set is what the corpus holds beyond the test set, up to
    # train_samples; the partition must fit that set, not train_samples.
    n_test, k = values["test_samples"], config.scenario.k_devices
    n_train = max(0, min(values["train_samples"], len(full) - n_test))
    try:
        config.partition.per_device(n_train, k)
    except ValueError as exc:
        raise ValueError(
            f"test_samples = {n_test} leaves {n_train} training samples in the "
            f"{len(full)}-sample corpus, k_devices = {k}: {exc}"
        ) from exc
    order = derived_rng(config.seed, "data", "subset").permutation(len(full))
    train = full.subset(order[:n_train])
    test = full.subset(order[n_train : n_train + n_test])
    return train, test


def _run_once(config: ExperimentConfig, train_set, test_set, aggregation=None,
              r_in=None, g_th=None) -> learning.TrainResult:
    params = config.system if g_th is None else replace(config.system, g_th=g_th)
    scheme = config.scheme if r_in is None else replace(config.scheme, r_in=r_in)
    train_cfg = config.train if aggregation is None else replace(config.train, aggregation=aggregation)
    return learning.federated_train(
        train_set,
        config.partition,
        train_cfg,
        params,
        config.scenario,
        scheme,
        config.seed,
        test_set,
        mobility=config.mobility,
    )


def cmd_train(config: ExperimentConfig, grid: bool = False) -> dict:
    if grid and config.scheme.kind == "all-inclusive":
        raise ValueError(
            "train --grid sweeps r_in, which scheme = all-inclusive ignores; use "
            "scheme = cell-interior (r_in_frac = 1 schedules every device)"
        )
    train_set, test_set = _build_datasets(config)
    result = _run_once(config, train_set, test_set)
    out = {
        f"trace_{config.scheme.kind}_{config.train.aggregation}": learning.trace_table(result)
    }
    if grid:
        values = config.values
        rows = []
        for r_in_frac in values["r_in_grid"]:
            for g_th in values["g_th_grid"]:
                sweep = _run_once(
                    config,
                    train_set,
                    test_set,
                    r_in=r_in_frac * config.system.r_cell,
                    g_th=g_th,
                )
                rows.append(
                    (
                        r_in_frac,
                        g_th,
                        sweep.final_accuracy,
                        float(np.mean([record.latency_s for record in sweep.records])),
                    )
                )
        out["accuracy_grid"] = Table(
            ("r_in_frac", "g_th", "final_accuracy", "mean_round_latency_s"), rows
        )
    return out


def cmd_compare(config: ExperimentConfig) -> dict:
    train_set, test_set = _build_datasets(config)
    out = {}
    summary = []
    for aggregation in learning.AGGREGATIONS:
        result = _run_once(config, train_set, test_set, aggregation=aggregation)
        out[f"trace_{aggregation}"] = learning.trace_table(result)
        summary.append((aggregation, result.final_accuracy, result.total_latency_s))
    out["summary"] = Table(("aggregation", "final_accuracy", "total_latency_s"), summary)
    return out


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def cmd_extensions(config: ExperimentConfig) -> dict:
    values = config.values
    suppression_rows, beam_rows = extensions.extension_rows(
        values["gamma_grid"], values["beam_antennas"], values["beam_users"],
        config.system.n0, config.trials, config.seed,
    )
    return {
        "dsss_suppression": Table(extensions.SuppressionRow._fields, suppression_rows),
        "beamforming": Table(extensions.BeamRow._fields, beam_rows),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# Subcommand name -> (config, grid) -> tables.  Each entry looks its cmd_*
# function up when called, so rebinding that module attribute (as the
# benchmark's tracer does) takes effect.
COMMANDS = {
    "tradeoff": lambda config, grid: cmd_tradeoff(config),
    "montecarlo": lambda config, grid: cmd_montecarlo(config),
    "latency": lambda config, grid: cmd_latency(config),
    "train": lambda config, grid: cmd_train(config, grid=grid),
    "compare": lambda config, grid: cmd_compare(config),
    "extensions": lambda config, grid: cmd_extensions(config),
}


def run_command(command: str, config: ExperimentConfig, grid: bool = False) -> dict:
    """Tables of one subcommand; ``grid`` is read by ``train`` only.

    A ValueError the command raises propagates unchanged: the config took
    a closed form or a training run outside its domain where the load rule
    does not look.  The expected receive SNRs need K >= 2 under
    cell-interior scheduling and 2K > alpha; every receive SNR, and each
    rate or latency formed from one, must be a normal float, also at a
    round's furthest scheduled device, a ``zeta_grid`` cutoff, a ``k_grid``
    device count or ``montecarlo``'s 1 m unit; and a training run stops
    when its model leaves the float range.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    return COMMANDS[command](config, grid)


def write_outputs(tables: dict, config: ExperimentConfig, out_dir, fmt: str) -> list:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, table in sorted(tables.items()):
        path = out_dir / f"{name}.{fmt}"
        path.write_text(table.render(fmt))
        written.append(path)
    manifest = out_dir / "manifest.json"
    manifest.write_text(manifest_json(config))
    written.append(manifest)
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airfed",
        description="Federated edge learning with over-the-air aggregation: experiments and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, default=None, help="flat key=value config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--trials", type=int, default=None, help="override the trial count")
        cmd.add_argument("--out", type=Path, default=Path("results"), help="output directory")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "train":
            cmd.add_argument("--grid", action="store_true", help="sweep r_in and g_th grids")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    try:
        config = load_config(args.config, overrides)
        tables = run_command(args.command, config, grid=getattr(args, "grid", False))
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        written = write_outputs(tables, config, args.out, args.format)
    except OSError as exc:
        print(f"error: cannot write to --out {args.out}: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
