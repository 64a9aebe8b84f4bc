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
from .rng import derived_rng, row_blocks
from .tables import Table

# With one user both beams are the same MRC beam, so the aggregation
# objective and the best SDMA SNR tie exactly and differ only by rounding.
BEAM_TIE_RTOL = 1e-12


@contextmanager
def _closed_form_domain():
    """Report a closed form or a training run that the config takes outside
    its domain as a config error.  The expected receive SNRs need K >= 2
    under cell-interior scheduling and 2K > alpha, which the config range
    does not guarantee.  Every receive SNR, and each rate or latency formed
    from one, must be a positive, finite, normal float; the load rule
    checks that at the configured radii, exponents and cutoffs, but not at
    a round's furthest scheduled device, a ``zeta_grid`` cutoff, a
    ``k_grid`` device count or ``montecarlo``'s 1 m unit.  And a training
    run stops when its model leaves the float range."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------

def cmd_tradeoff(config: ExperimentConfig) -> dict:
    values = config.values
    k, r_cell = config.scenario.k_devices, config.system.r_cell
    snr_rows = []
    gain_rows = []
    # The interior-count law at each data fraction's interior radius.
    pmfs = [analytics.interior_count_pmf(k, r_cell * math.sqrt(f), r_cell) for f in values["f_dat_grid"]]
    for alpha in values["alpha_grid"]:
        params = replace(config.system, alpha=alpha)
        with _closed_form_domain():
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
            curve = analytics.reliability_quantity_curve(params, k, values["f_dat_grid"])
        weights = analytics.count_snr_weights(k, alpha)
        for (f_dat, gain), pmf in zip(curve.points, pmfs):
            gain_rows.append((alpha, k, f_dat, gain, *analytics.dropped_count_mass(pmf, weights)))
    return {
        "snr_truncation": Table(
            ("alpha", "r_max_m", "zeta", "g_th", "snr_linear", "snr_db"), snr_rows
        ),
        "gain_vs_data_fraction": Table(
            ("alpha", "k_devices", "f_dat", "snr_gain", "p_fewer_than_two", "p_infinite_mean"),
            gain_rows,
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
    """``network.sample_radii(width, r_cell, rng, size=n_rows)`` drawn in
    the consecutive row blocks of :func:`rng.row_blocks`; yields (first
    row, block).  Consecutive draws give the same numbers as one."""
    for start, stop in row_blocks(n_rows, width):
        yield start, network.sample_radii(width, r_cell, rng, size=stop - start)


def _snr_row(name: str, analytic: float, furthest, trials: int, pmf, alpha, snr_unit, tolerance):
    """Row ``name`` of an expected receive SNR.  ``pmf[j]`` is the
    probability that a trial schedules j devices; it adds a term where the
    count's :func:`analytics.count_snr_weights` is positive.  ``furthest``
    holds, in trial order, the furthest distance of each trial that adds a
    term and becomes those terms, snr_unit * distance^-alpha, in place
    (``**=`` keeps the bits of ``**``).  ``undersampled`` when the run expects
    under one such trial; ``heavy-tailed`` when it expects one whose term
    has infinite variance: its square, the term at 2 alpha, has no mean.
    Raises ValueError when the estimate overflows, which a term can do at
    a small distance even where ``snr_unit`` is normal."""
    k = len(pmf) - 1
    adds = analytics.count_snr_weights(k, alpha) > 0.0
    with np.errstate(over="ignore", divide="ignore"):
        furthest **= -alpha
        furthest *= snr_unit
        estimate = float(furthest.sum()) / trials
    if not math.isfinite(estimate):
        raise ValueError(
            f"the {name} estimate, a mean over {trials} trials of receive SNRs "
            f"{snr_unit} * distance^-{alpha} (the receive SNR at 1 m times the path "
            "gain), overflows"
        )
    row = evaluate_check(name, analytic, estimate, tolerance, "rel")
    if trials * pmf[adds].sum() < 1.0:
        return row[:-1] + ("undersampled",)
    if trials * pmf[adds & (analytics.count_snr_weights(k, 2.0 * alpha) == 0.0)].sum() >= 1.0:
        return row[:-1] + ("heavy-tailed",)
    return row


def montecarlo_rows(config: ExperimentConfig):
    """Rows of ``validation.csv``: each closed form against its Monte Carlo
    estimate.  Topologies are drawn in the row blocks of
    :func:`rng.row_blocks` and each block is reduced to what the rows
    read: its interior-count histogram, added into one (K+1) count
    vector, each trial's furthest distance, and the furthest interior
    distance of the trials that add an interior SNR term.  So two float64
    are kept per trial: peak RSS grows by 16 bytes per trial, measured at
    1M and 2M trials.  A row's status is ``pass`` or ``fail``, or for the
    SNR rows ``undersampled`` or ``heavy-tailed`` (:func:`_snr_row`)."""
    params, scenario = config.system, config.scenario
    k, r_cell, r_in = scenario.k_devices, params.r_cell, scenario.r_in
    trials = config.trials
    seed = config.seed
    rows = []
    with _closed_form_domain():
        expected_all = analytics.expected_snr_all_inclusive(params, k)
        expected_interior, _ = analytics.expected_snr_cell_interior(params, scenario)
        snr_unit = analytics.receive_snr(params, 1.0)

    # The interior SNR is a joint expectation: a K_in that adds no term adds 0.
    pmf = analytics.interior_count_pmf(k, r_in, r_cell)
    usable_counts = analytics.count_snr_weights(k, params.alpha) > 0.0

    # Per-block reductions of the topology draws: the interior-count
    # histogram, the furthest distance per trial and, for the usable trials
    # only and in trial order, the furthest interior distance.
    k_in_counts = np.zeros(k + 1, dtype=np.intp)
    r_max = np.empty(trials)
    interior_max = np.empty(trials)
    n_usable = 0
    for start, radii in _radii_blocks(k, r_cell, derived_rng(seed, "mc", "topology"), trials):
        inside = radii <= r_in
        k_in = np.count_nonzero(inside, axis=1)
        k_in_counts += np.bincount(k_in, minlength=k + 1)
        r_max[start : start + len(radii)] = radii.max(axis=1)
        # Radii are >= 0, so zeroing the exterior ones leaves the interior max.
        radii *= inside
        block_max = radii.max(axis=1)[usable_counts[k_in]]
        interior_max[n_usable : n_usable + len(block_max)] = block_max
        n_usable += len(block_max)

    # Interior-count histogram against the binomial law (total variation).
    tv = 0.5 * float(np.abs(k_in_counts / trials - pmf).sum())
    rows.append(evaluate_check("interior_count_histogram", 0.0, tv, 0.01, "tv"))

    # Furthest-device mean distance.
    _, mean_expected = analytics.max_distance_moments(k, r_cell)
    rows.append(
        evaluate_check("max_distance_mean", mean_expected, float(r_max.mean()), 0.005, "rel")
    )

    # Expected receive SNR: every trial schedules all K devices, or the
    # K_in interior ones.
    for name, analytic, furthest, law, tolerance in (
        ("snr_all_inclusive", expected_all, r_max, np.where(np.arange(k + 1) == k, 1.0, 0.0), 0.02),
        ("snr_cell_interior", expected_interior, interior_max[:n_usable], pmf, 0.03),
    ):
        with _closed_form_domain():
            row = _snr_row(name, analytic, furthest, trials, law, params.alpha, snr_unit, tolerance)
        rows.append(row)

    # Probability that every device is ever scheduled under i.i.d. mobility;
    # a run is one row of n_cr consecutive topologies.
    runs = min(trials, 2000)
    n_cr = config.train.n_cr
    p_in = analytics.fraction_exploited(r_in, r_cell)
    ever_in = np.empty(runs, dtype=bool)
    for start, radii in _radii_blocks(n_cr * k, r_cell, derived_rng(seed, "mc", "mobility"), runs):
        # A device is ever inside when its nearest drop is; all are when the
        # furthest of those nearest drops is.
        nearest = radii.reshape(len(radii), n_cr, k).min(axis=1)
        ever_in[start : start + len(radii)] = nearest.max(axis=1) <= r_in
    exact = analytics.p_all_exploited(k, n_cr, p_in)
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
                    with _closed_form_domain():
                        report = analytics.latency_report(params, scenario, r_max)
                        # Python floats overflow to inf without a warning.
                        scaled = float(report.reduction_ratio) * math.log2(k) / k
                        if math.isinf(scaled):
                            raise ValueError(
                                f"ratio_x_log2k_over_k overflows at k_devices = {k}: "
                                f"reduction_ratio = {report.reduction_ratio}"
                            )
                    rows.append(
                        (
                            k,
                            q_bits,
                            ber,
                            r_max,
                            report.t_analog_s,
                            report.t_digital_s,
                            report.reduction_ratio,
                            scaled,
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
        raise ConfigError(f"dataset = {values['dataset']}: {exc}") from exc
    # The training set is what the corpus holds beyond the test set, up to
    # train_samples; the partition must fit that set, not train_samples.
    n_test, k = values["test_samples"], config.scenario.k_devices
    n_train = max(0, min(values["train_samples"], len(full) - n_test))
    try:
        config.partition.per_device(n_train, k)
    except ValueError as exc:
        raise ConfigError(
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
    with _closed_form_domain():
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
    n_trials = min(config.trials, 10000)
    gammas = values["gamma_grid"]
    codes = [extensions.pn_code(gamma, derived_rng(seed, "ext", "dsss", gamma)) for gamma in gammas]
    measured = extensions.suppression_ratios(codes, n_trials, derived_rng(seed, "ext", "dsss", "chips"))
    suppression_rows = [
        (gamma, n_trials, ratio, float(gamma)) for gamma, ratio in zip(gammas, measured)
    ]

    beam_rows = []
    n, k = values["beam_antennas"], values["beam_users"]
    instances = [(n, k), (n, 1), (max(2, k - 1), k)]  # last one has n < k when beam_users >= 3
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
    """Tables of one subcommand; ``grid`` is read by ``train`` only."""
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
    except (ConfigError, FileNotFoundError) as exc:
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
