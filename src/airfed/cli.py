"""Experiment harness.

Subcommands map onto the study's result sets:

* ``tradeoff``    - closed-form SNR/truncation and gain/data-fraction curves
* ``montecarlo``  - simulation-vs-closed-form validation report
* ``latency``     - analog/digital latency tables over K, Q, BER, r_max sweeps
* ``train``       - federated training traces (optionally a r_in x g_th grid)
* ``compare``     - ideal vs analog vs digital side by side
* ``extensions``  - spread-spectrum suppression and beamforming comparison

Every run writes its tables plus a ``manifest.json`` (config hash, seed,
versions).  Outputs are byte-identical for identical (config, seed).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytics, extensions, learning, network
from .config import ConfigError, ExperimentConfig, load_config, manifest_json
from .datasets import load_mnist_idx, synth_gaussian_mixture
from .rng import derived_rng
from .tables import Table

# With one user both beams are the same MRC beam, so the aggregation
# objective and the best SDMA SNR tie exactly and differ only by rounding.
BEAM_TIE_RTOL = 1e-12
# Monte Carlo topologies are drawn in blocks of about this many radii to bound memory.
MC_BLOCK_ENTRIES = 1 << 20


@contextmanager
def _closed_form_domain():
    """Report a closed form evaluated outside its domain as a config error:
    the expected receive SNRs need K >= 2 under cell-interior scheduling
    and 2K - alpha - 1 >= 0, which the config range does not guarantee."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------

def cmd_tradeoff(config: ExperimentConfig) -> dict:
    values = config.values
    snr_rows = []
    for alpha in values["alpha_grid"]:
        params = replace(config.system, alpha=alpha)
        for r_max in values["r_max_grid"]:
            curve = analytics.snr_truncation_curve(params, r_max, values["zeta_grid"])
            for zeta, snr in curve.points:
                snr_rows.append(
                    (
                        alpha,
                        r_max,
                        zeta,
                        analytics.cutoff_for_ratio(zeta),
                        snr,
                        10.0 * math.log10(snr),
                    )
                )
    gain_rows = []
    for alpha in values["alpha_grid"]:
        params = replace(config.system, alpha=alpha)
        with _closed_form_domain():
            curve = analytics.reliability_quantity_curve(
                params, config.scenario.k_devices, values["f_dat_grid"]
            )
        for f_dat, gain in curve.points:
            gain_rows.append((alpha, config.scenario.k_devices, f_dat, gain))
    return {
        "snr_truncation": Table(
            ("alpha", "r_max_m", "zeta", "g_th", "snr_linear", "snr_db"), snr_rows
        ),
        "gain_vs_data_fraction": Table(
            ("alpha", "k_devices", "f_dat", "snr_gain"), gain_rows
        ),
    }


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def evaluate_check(name: str, analytic: float, empirical: float, tolerance: float, metric: str):
    """One validation row; ``metric`` is 'rel', 'abs' or 'tv'."""
    if metric == "rel":
        error = abs(empirical - analytic) / abs(analytic)
    else:
        error = abs(empirical - analytic)
    status = "pass" if error < tolerance else "fail"
    return (name, analytic, empirical, error, tolerance, metric, status)


def _radii_blocks(width: int, r_cell: float, rng, n_rows: int):
    """``network.sample_radii(width, r_cell, rng, size=n_rows)`` drawn as
    consecutive row blocks of about MC_BLOCK_ENTRIES radii; yields (first
    row, block).  Consecutive draws give the same numbers as one."""
    step = max(1, MC_BLOCK_ENTRIES // width)
    for start in range(0, n_rows, step):
        yield start, network.sample_radii(width, r_cell, rng, size=min(step, n_rows - start))


def montecarlo_rows(config: ExperimentConfig):
    params, scenario = config.system, config.scenario
    k, r_cell, r_in = scenario.k_devices, params.r_cell, scenario.r_in
    trials = config.trials
    seed = config.seed
    rows = []
    with _closed_form_domain():
        expected_all = analytics.expected_snr_all_inclusive(params, k)
        expected_interior, _ = analytics.expected_snr_cell_interior(params, scenario)

    # Per-trial reductions of the topology draws: the interior count, the
    # furthest distance and the furthest interior distance (0 if none).
    k_in = np.empty(trials, dtype=np.intp)
    r_max = np.empty(trials)
    interior_max = np.empty(trials)
    for start, radii in _radii_blocks(k, r_cell, derived_rng(seed, "mc", "topology"), trials):
        span = slice(start, start + len(radii))
        inside = radii <= r_in
        k_in[span] = inside.sum(axis=1)
        r_max[span] = radii.max(axis=1)
        interior_max[span] = np.where(inside, radii, 0.0).max(axis=1)

    # Interior-count histogram against the binomial law (total variation).
    pmf = np.array([analytics.k_in_pmf(k, r_in, r_cell, j) for j in range(k + 1)])
    hist = np.bincount(k_in, minlength=k + 1) / trials
    tv = 0.5 * float(np.abs(hist - pmf).sum())
    rows.append(evaluate_check("interior_count_histogram", 0.0, tv, 0.01, "tv"))

    # Furthest-device mean distance.
    _, mean_expected = analytics.max_distance_moments(k, r_cell)
    rows.append(
        evaluate_check("max_distance_mean", mean_expected, float(r_max.mean()), 0.005, "rel")
    )

    # Expected receive SNR, all-inclusive.
    snr_all = analytics.receive_snr(params, 1.0) * r_max ** (-params.alpha)
    rows.append(
        evaluate_check(
            "snr_all_inclusive",
            expected_all,
            float(snr_all.mean()),
            0.02,
            "rel",
        )
    )

    # Expected receive SNR, cell-interior, a joint expectation: a trial adds its
    # furthest interior SNR when k_in >= 2 and 2 k_in > alpha, else 0.
    usable = (k_in >= 2) & (2 * k_in > params.alpha)
    snr_interior = analytics.receive_snr(params, 1.0) * interior_max[usable] ** (-params.alpha)
    rows.append(
        evaluate_check(
            "snr_cell_interior",
            expected_interior,
            float(snr_interior.sum()) / trials,
            0.03,
            "rel",
        )
    )

    # Probability that every device is ever scheduled under i.i.d. mobility;
    # a run is one row of n_cr consecutive topologies.
    runs = min(trials, 2000)
    n_cr = config.train.n_cr
    p_in = analytics.fraction_exploited(r_in, r_cell)
    ever_in = np.empty(runs, dtype=bool)
    for start, radii in _radii_blocks(n_cr * k, r_cell, derived_rng(seed, "mc", "mobility"), runs):
        inside = radii.reshape(len(radii), n_cr, k) <= r_in
        ever_in[start : start + len(radii)] = inside.any(axis=1).all(axis=1)
    exact, _ = analytics.p_all_exploited(k, n_cr, p_in)
    rows.append(
        evaluate_check("all_data_exploited_prob", exact, float(ever_in.mean()), 0.02, "abs")
    )
    return rows


def cmd_montecarlo(config: ExperimentConfig) -> dict:
    return {
        "validation": Table(
            ("check", "analytic", "empirical", "error", "tolerance", "metric", "status"),
            montecarlo_rows(config),
        )
    }


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

def cmd_latency(config: ExperimentConfig) -> dict:
    values = config.values
    rows = []
    for k in values["k_grid"]:
        for q_bits in values["q_bits_grid"]:
            for ber in values["ber_grid"]:
                params = replace(config.system, q_bits=q_bits, ber=ber)
                scenario = replace(config.scenario, k_devices=k)
                for r_max in values["r_max_grid"]:
                    report = analytics.latency_report(params, scenario, r_max)
                    rows.append(
                        (
                            k,
                            q_bits,
                            ber,
                            r_max,
                            report.t_analog_s,
                            report.t_digital_s,
                            report.reduction_ratio,
                            report.reduction_ratio * math.log2(k) / k,
                        )
                    )
    return {
        "latency": Table(
            (
                "k_devices",
                "q_bits",
                "ber",
                "r_max_m",
                "t_analog_s",
                "t_digital_s",
                "reduction_ratio",
                "ratio_x_log2k_over_k",
            ),
            rows,
        )
    }


# ---------------------------------------------------------------------------
# train / compare
# ---------------------------------------------------------------------------

def _build_datasets(config: ExperimentConfig):
    values = config.values
    if values["dataset"] == "synthetic":
        train = synth_gaussian_mixture(
            values["classes"],
            values["feature_dim"],
            values["train_samples"],
            seed=derived_rng(config.seed, "data", "train").integers(2**63),
            separation=values["class_separation"],
        )
        test = synth_gaussian_mixture(
            values["classes"],
            values["feature_dim"],
            values["test_samples"],
            seed=derived_rng(config.seed, "data", "test").integers(2**63),
            separation=values["class_separation"],
        )
        return train, test
    full = load_mnist_idx(values["dataset"])
    order = derived_rng(config.seed, "data", "subset").permutation(len(full))
    n_train = min(values["train_samples"], len(full) - values["test_samples"])
    train = full.subset(order[:n_train])
    test = full.subset(order[n_train : n_train + values["test_samples"]])
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
        raise ConfigError(
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
                        float(np.mean(sweep.latency_trace)),
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
    seed = config.seed
    suppression_rows = []
    n_trials = min(config.trials, 10000)
    for gamma in values["gamma_grid"]:
        measured = extensions.suppression_ratio(gamma, n_trials, derived_rng(seed, "ext", "dsss", gamma))
        suppression_rows.append((gamma, n_trials, measured, float(gamma)))

    beam_rows = []
    n, k = values["beam_antennas"], values["beam_users"]
    instances = [(n, k), (n, 1), (max(2, k - 1), k)]  # last one exercises n < k
    for idx, (n_ant, k_dev) in enumerate(instances):
        rng = derived_rng(seed, "ext", "beam", idx)
        h = (rng.standard_normal((n_ant, k_dev)) + 1j * rng.standard_normal((n_ant, k_dev))) / np.sqrt(2)
        problem = extensions.BeamProblem(h_matrix=h, weak_set=tuple(range(k_dev)), n0=config.system.n0)
        agg = extensions.aggregation_beamformer(problem)
        sdma = extensions.sdma_beamformer(problem)
        best_sdma = float(np.nanmax(sdma.per_user_snr)) if sdma.feasible else float("nan")
        dominates = not sdma.feasible or agg.objective >= best_sdma * (1.0 - BEAM_TIE_RTOL)
        beam_rows.append(
            (
                idx,
                n_ant,
                k_dev,
                agg.objective,
                "feasible" if sdma.feasible else "infeasible",
                best_sdma,
                "yes" if dominates else "no",
            )
        )
    return {
        "dsss_suppression": Table(
            ("gamma", "trials", "measured_suppression", "expected"), suppression_rows
        ),
        "beamforming": Table(
            (
                "instance",
                "n_antennas",
                "k_devices",
                "aggregation_objective",
                "sdma_status",
                "sdma_best_snr",
                "aggregation_dominates",
            ),
            beam_rows,
        ),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_command(command: str, config: ExperimentConfig, grid: bool = False) -> dict:
    if command == "tradeoff":
        return cmd_tradeoff(config)
    if command == "montecarlo":
        return cmd_montecarlo(config)
    if command == "latency":
        return cmd_latency(config)
    if command == "train":
        return cmd_train(config, grid=grid)
    if command == "compare":
        return cmd_compare(config)
    if command == "extensions":
        return cmd_extensions(config)
    raise ValueError(f"unknown command {command!r}")


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
    for name in ("tradeoff", "montecarlo", "latency", "train", "compare", "extensions"):
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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    written = write_outputs(tables, config, args.out, args.format)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
