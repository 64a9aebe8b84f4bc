"""Simulation-versus-closed-form checks: the rows of ``validation.csv``."""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import analytics, network
from .config import ExperimentConfig
from .rng import derived_rng, row_blocks


ValidationRow = namedtuple("ValidationRow", "check analytic empirical error tolerance metric status")


def evaluate_check(name: str, analytic: float, empirical: float, tolerance: float, metric: str):
    """One :class:`ValidationRow`; ``metric`` is 'rel', 'abs' or 'tv'."""
    if metric == "rel":
        error = abs(empirical - analytic) / abs(analytic)
    else:
        error = abs(empirical - analytic)
    status = "pass" if error < tolerance else "fail"
    return ValidationRow(name, analytic, empirical, error, tolerance, metric, status)


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
        return row._replace(status="undersampled")
    if trials * pmf[adds & (analytics.count_snr_weights(k, 2.0 * alpha) == 0.0)].sum() >= 1.0:
        return row._replace(status="heavy-tailed")
    return row


def montecarlo_rows(config: ExperimentConfig):
    """:class:`ValidationRow` rows of ``validation.csv``: each closed form
    against its Monte Carlo estimate.  Topologies are drawn in the row blocks of
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
        rows.append(_snr_row(name, analytic, furthest, trials, law, params.alpha, snr_unit, tolerance))

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
