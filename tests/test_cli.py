"""Harness behavior: config ingestion, determinism, and table contents."""

import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airfed import analytics, cli, rng
from airfed.cli import (
    Table,
    cmd_extensions,
    cmd_latency,
    cmd_montecarlo,
    cmd_tradeoff,
    run_command,
    write_outputs,
)
from airfed.config import (
    DEFAULTS,
    RANGES,
    dbm_to_watts,
    load_config,
    parse_config_text,
)
from airfed.datasets import load_mnist_idx
from airfed.validation import evaluate_check
from conftest import started_threads, traced_peak, write_idx_pair

SMALL_TRAIN = """
k_devices = 4
n_rounds = 3
train_samples = 200
test_samples = 200
feature_dim = 6
classes = 4
eta = 0.4
seed = 321
trials = 2000
aggregation = baa
scheme = all-inclusive
r_in_grid = 0.5,1.0
g_th_grid = 0.2
"""


def small_train_with(line: str) -> str:
    """SMALL_TRAIN with ``line``, a ``key = value`` line, in place of the
    line that sets its key, or appended when none does."""
    key = line.partition("=")[0].strip()
    kept = [old for old in SMALL_TRAIN.splitlines() if old.partition("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


class TestConfig:
    def test_defaults_mirror_reference_deployment(self):
        config = load_config(None)
        assert config.system.p0 == 0.1
        assert config.system.m == 1000
        assert config.system.alpha == 3.0
        assert config.system.r_cell == 100.0
        assert config.system.n0 == pytest.approx(1e-11, rel=1e-12)
        assert config.system.q_bits == 16
        assert config.system.ber == 1e-3
        assert config.scenario.k_devices == 200
        assert config.scenario.q_dim == 582026

    def test_dbm_conversion(self):
        assert dbm_to_watts(-80.0) == pytest.approx(1e-11, rel=1e-12)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text("p0_watts = 0.1\nwarp_drive = 9\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_text("just some text\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("k_devices = twenty\n")

    def test_ber_bound_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("target_ber = 0.3\n")
        with pytest.raises(ValueError, match="target_ber"):
            load_config(path)

    @pytest.mark.parametrize("text", ["quant_bits = 64\n", "q_bits_grid = 8, 64\n"])
    def test_unrepresentable_quant_bits_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match="q_bits"):
            load_config(path)

    def test_rejection_is_the_checks_own_value_error(self):
        with pytest.raises(ValueError) as info:
            load_config(None, {"eta": -1.0})
        assert type(info.value) is ValueError
        assert str(info.value) == "eta must be positive, got -1.0"
        assert info.value.__cause__ is None

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # The second value used to replace the first without a word.
        path = tmp_path / "twice.cfg"
        path.write_text("g_th = 0.5\ng_th = 0.2\n")
        assert cli.main(["latency", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error: line 2: config key 'g_th' already set on line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("k_devices", 2.5),
            ("trials", "5"),
            ("trials", True),
            ("eta", False),
            ("aggregation", 1),
            ("gamma_grid", (1, 4.0)),
            ("gamma_grid", [1, 4]),
            ("zeta_grid", ()),
        ],
    )
    def test_override_of_another_type_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must have the type of its default"):
            load_config(None, {key: value})

    def test_int_override_of_a_float_key_accepted(self):
        config = load_config(None, {"eta": 1, "alpha_grid": (3, 3.5)})
        assert config.train.eta == 1
        assert config.values["alpha_grid"] == (3, 3.5)

    def test_bad_q_bits_grid_exits_cleanly(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("q_bits_grid = 16, 64\n")
        assert cli.main(["latency", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("via_config", [False, True])
    @pytest.mark.parametrize("trials", [0, -5])
    @pytest.mark.parametrize("command", ["montecarlo", "extensions"])
    def test_nonpositive_trials_exit_cleanly(self, tmp_path, capsys, command, trials, via_config):
        if via_config:
            path = tmp_path / "trials.cfg"
            path.write_text(f"trials = {trials}\n")
            args = ["--config", str(path)]
        else:
            args = ["--trials", str(trials)]
        assert cli.main([command, *args, "--out", str(tmp_path / "out")]) == 2
        assert f"error: trials must be >= 1, got {trials}" in capsys.readouterr().err

    # Each value fails its command with a traceback unless the load-time
    # range check catches it.  The small training config keeps the runs short.
    @pytest.mark.parametrize(
        "line, command",
        [
            ("g_th = 0", ["montecarlo"]),
            ("g_th = 0", ["compare"]),
            ("zeta_grid = 0.5, 1.0", ["tradeoff"]),
            ("zeta_grid = 0.3, 0.2", ["tradeoff"]),
            ("f_dat_grid = 0.0, 0.5", ["tradeoff"]),
            ("f_dat_grid = 0.5, 0.5", ["tradeoff"]),
            ("alpha_grid = 3.0, 0.0", ["tradeoff"]),
            ("r_max_grid = 0", ["tradeoff"]),
            ("ber_grid = 0.3", ["latency"]),
            ("k_grid = 0, 10", ["latency"]),
            ("r_in_grid = 0", ["train", "--grid"]),
            ("r_in_grid = 0.5, 1.5", ["train", "--grid"]),
            ("g_th_grid = 0", ["train", "--grid"]),
            ("gamma_grid = 0", ["extensions"]),
            ("beam_antennas = 0", ["extensions"]),
            ("beam_users = 0", ["extensions"]),
            ("classes = 1", ["compare"]),
            ("feature_dim = 0", ["compare"]),
            ("train_samples = 0", ["compare"]),
            ("test_samples = 0", ["compare"]),
            ("scheme = round-robin", ["compare"]),
            ("mobility = walking", ["compare"]),
            ("aggregation = analogue", ["compare"]),
            ("shards_per_device = 0\npartition_mode = noniid-shards", ["latency"]),
            ("shards_per_device = -1\npartition_mode = noniid-shards", ["compare"]),
            ("noise_dbm = 5000", ["tradeoff"]),
            ("noise_dbm = -5000", ["compare"]),
            # exp_integral(800) is 0.0: inf rho0_db, nan digital latencies.
            ("g_th = 800", ["compare"]),
            ("g_th = 800", ["latency"]),
            ("g_th_grid = 0.2, 800", ["train", "--grid"]),
        ],
    )
    def test_out_of_range_value_exits_cleanly(self, tmp_path, capsys, line, command):
        path = tmp_path / "bad.cfg"
        path.write_text(small_train_with(line))
        assert cli.main([*command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        key = line.split("=")[0].strip()
        assert f"error: {key} " in capsys.readouterr().err

    def test_readme_range_table_lists_every_range(self):
        # Each row of README's range table names its keys in backticks and
        # starts its second cell with their bound.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| keys | accepted |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for row in table.splitlines():
            keys, accepted = row.strip("|").split(" | ", 1)
            documented.update((key, accepted) for key in re.findall(r"`(\w+)`", keys))
        for key, bound in RANGES.items():
            assert documented.get(key, "").startswith(bound), key

    @pytest.mark.parametrize("key", ["g_th", "g_th_grid"])
    def test_g_th_cap_keeps_the_exponential_integral_normal(self, key):
        # The cap is loadable, and E1 there still returns a normal float.
        # At the default -80 dBm the receive SNR at the cap overflows, so
        # the noise is raised to where it stays finite.
        cap = float(RANGES[key].rstrip("]").split(",")[1])
        load_config(None, {key: (cap,) if key == "g_th_grid" else cap, "noise_dbm": 0.0})
        assert analytics.exp_integral(cap) >= sys.float_info.min

    # The receive SNR over- or underflows: 100^200 is inf, and E1 at the
    # g_th cap is so small that rho0 / n0 is inf at -80 dBm.
    @pytest.mark.parametrize(
        "line, command, named",
        [
            ("alpha_grid = 200", ["tradeoff"], "alpha_grid = 200.0"),
            ("alpha_grid = 3.0, 160", ["tradeoff"], "alpha_grid = 160.0"),
            ("path_loss_exponent = 200", ["latency"], "path_loss_exponent = 200.0"),
            ("cell_radius_m = 1e200", ["compare"], "cell_radius_m = 1e+200"),
            ("g_th = 701.8", ["latency"], "g_th = 701.8"),
        ],
    )
    def test_overflowing_receive_snr_exits_cleanly(self, tmp_path, capsys, line, command, named):
        path = tmp_path / "bad.cfg"
        path.write_text(small_train_with(line))
        assert cli.main([*command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the receive SNR at ")
        assert named in err
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.floats(0.5, 200.0),
        r_cell=st.sampled_from([1e-100, 1e-3, 1.0, 100.0, 1e50, 1e200]),
        g_th=st.floats(1e-3, 701.8),
        noise_dbm=st.floats(-2999.0, 2999.0),
    )
    def test_snr_rule_matches_receive_snr(self, alpha, r_cell, g_th, noise_dbm):
        # The load rule calls receive_snr at the extreme radii, exponents
        # and cutoffs; receive_snr at every combination is the reference,
        # and it raises ValueError where the SNR is not a normal float.
        overrides = {
            "path_loss_exponent": alpha,
            "cell_radius_m": r_cell,
            "g_th": g_th,
            "noise_dbm": noise_dbm,
        }
        system = analytics.SystemParams(alpha=alpha, r_cell=r_cell, g_th=g_th, n0=dbm_to_watts(noise_dbm))
        radii = np.array([r_cell, *DEFAULTS["r_max_grid"]])

        def is_normal(a, g):
            try:
                analytics.receive_snr(replace(system, alpha=a, g_th=g), radii)
            except ValueError:
                return False
            return True

        normal = all(
            is_normal(a, g) for a in (alpha, *DEFAULTS["alpha_grid"]) for g in (g_th, *DEFAULTS["g_th_grid"])
        )
        try:
            load_config(None, overrides)
            loaded = True
        except ValueError as exc:
            assert str(exc).startswith("the receive SNR at ")
            loaded = False
        assert loaded == normal

    # These configs load, but their receive SNR overflows where the load
    # rule does not look: at zeta_grid's cutoffs (tradeoff), in the K-fold
    # digital SNR of k_grid (latency), at the 1 m unit (montecarlo), and at
    # each round's furthest scheduled device (compare).
    @pytest.mark.parametrize(
        "lines, command",
        [
            ("p0_watts = 5e303", "tradeoff"),
            ("p0_watts = 5e303", "latency"),
            ("p0_watts = 5e303", "montecarlo"),
            ("p0_watts = 5e303\nr_in_frac = 0.05\nn_rounds = 3", "compare"),
        ],
    )
    def test_overflow_past_the_load_rule_exits_cleanly(self, tmp_path, capsys, lines, command):
        path = tmp_path / "p0.cfg"
        path.write_text(lines + "\n")
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "not a positive, finite, normal float" in err

    # The owning type names its own field, not the config key, so the
    # message is matched on the bad value.  SMALL_TRAIN schedules
    # all-inclusive, which reads no alternation period.
    @pytest.mark.parametrize(
        "line, shown",
        [("partition_mode = noniid", "got 'noniid'"), ("alternation_period = 0", "got 0")],
    )
    def test_value_its_owner_rejects_exits_cleanly(self, tmp_path, capsys, line, shown):
        path = tmp_path / "bad.cfg"
        path.write_text(small_train_with(line))
        assert cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert shown in err

    # A range check written as x <= 0 passes NaN, so finiteness is checked
    # on its own, before any range.
    @pytest.mark.parametrize(
        "line, command",
        [
            ("noise_dbm = nan", ["tradeoff"]),
            ("path_loss_exponent = inf", ["latency"]),
            ("zeta_grid = 0.1, nan", ["tradeoff"]),
        ],
    )
    def test_non_finite_value_exits_cleanly(self, tmp_path, capsys, line, command):
        path = tmp_path / "bad.cfg"
        path.write_text(small_train_with(line))
        assert cli.main([*command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        key = line.split("=")[0].strip()
        assert f"error: {key} must be finite, got " in capsys.readouterr().err

    def test_non_finite_override_rejected(self):
        with pytest.raises(ValueError, match="noise_dbm must be finite, got nan"):
            load_config(None, {"noise_dbm": float("nan")})

    # The reports' closed forms need K >= 2 (cell-interior scheduling) and
    # 2K > alpha (expected receive SNR); the default alpha_grid holds 4.0.
    @pytest.mark.parametrize(
        "lines, command",
        [
            ("k_devices = 1", "tradeoff"),
            ("k_devices = 1", "montecarlo"),
            ("k_devices = 2", "tradeoff"),
            ("k_devices = 3\npath_loss_exponent = 6.5", "montecarlo"),
        ],
        ids=["k1-tradeoff", "k1-montecarlo", "k2-tradeoff", "k3-alpha6.5-montecarlo"],
    )
    def test_closed_form_outside_its_domain_exits_cleanly(self, tmp_path, capsys, lines, command):
        path = tmp_path / "bad.cfg"
        path.write_text(lines + "\ntrials = 2000\n")
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "k_devices" in err

    # 2K > alpha suffices: at K = 2 and alpha = 3.5 the expected receive SNR
    # is 8 times the SNR at the cell edge.
    @pytest.mark.parametrize(
        "lines, command",
        [
            ("k_devices = 2\nalpha_grid = 3.5", "tradeoff"),
            ("k_devices = 2\npath_loss_exponent = 3.5", "montecarlo"),
        ],
        ids=["k2-alpha3.5-tradeoff", "k2-alpha3.5-montecarlo"],
    )
    def test_closed_form_inside_its_domain_runs(self, tmp_path, lines, command):
        path = tmp_path / "k2.cfg"
        path.write_text(lines + "\ntrials = 2000\n")
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    # A partition that does not fit train_samples at k_devices fails every
    # command at load, not only those that train.
    @pytest.mark.parametrize(
        "command", ["tradeoff", "montecarlo", "latency", "train", "compare", "extensions"]
    )
    @pytest.mark.parametrize(
        "line",
        [
            "shard_size = 100",
            "train_samples = 150",
            "partition_mode = noniid-shards\nshards_per_device = 11",
        ],
    )
    def test_partition_that_does_not_fit_exits_cleanly(self, tmp_path, capsys, line, command):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: train_samples = " in err
        for key in ("k_devices = 200", "shard_size = ", "shards_per_device = "):
            assert key in err

    @pytest.mark.parametrize("command", ["latency", "train", "compare", "extensions"])
    def test_single_device_runs_where_no_closed_form_is_undefined(self, tmp_path, command):
        path = tmp_path / "one.cfg"
        path.write_text(small_train_with("k_devices = 1"))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_grid_under_all_inclusive_is_rejected(self, tmp_path, capsys):
        # All-inclusive scheduling ignores r_in, so every grid row would repeat one run.
        path = tmp_path / "grid.cfg"
        path.write_text(SMALL_TRAIN)
        assert cli.main(["train", "--grid", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "scheme" in err and "cell-interior" in err

    def test_comments_and_lists(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\nk_grid = 2, 4, 8\np0_watts = 0.5  # inline\n")
        config = load_config(path)
        assert config.values["k_grid"] == (2, 4, 8)
        assert config.system.p0 == 0.5

    def test_hash_is_stable_and_sensitive(self, tmp_path):
        base = load_config(None)
        assert base.config_hash() == load_config(None).config_hash()
        other = load_config(None, overrides={"seed": 999})
        assert other.config_hash() != base.config_hash()

    def test_scheme_construction(self):
        config = load_config(None, overrides={"scheme": "alternating", "alternation_period": 3})
        assert config.scheme.kind == "alternating"
        assert config.scheme.period == 3
        assert config.scheme.r_in == config.scenario.r_in


class TestEvaluateCheck:
    def test_pass_row(self):
        row = evaluate_check("demo", 2.0, 2.01, 0.02, "rel")
        assert row[-1] == "pass"

    def test_negative_control_fails(self):
        # Harness sanity: a deliberately wrong analytic value must report
        # fail rather than pass silently.
        wrong_alpha_value = 123.0
        row = evaluate_check("demo", wrong_alpha_value, 2.01, 0.02, "rel")
        assert row[-1] == "fail"


class TestTradeoffCommand:
    def test_snr_curve_monotone_per_group(self):
        config = load_config(None)
        tables = cmd_tradeoff(config)
        rows = tables["snr_truncation"].rows
        by_group = {}
        for alpha, r_max, zeta, g_th, snr, snr_db in rows:
            by_group.setdefault((alpha, r_max), []).append((zeta, snr))
        for points in by_group.values():
            snrs = [s for _, s in sorted(points)]
            assert all(b > a for a, b in zip(snrs, snrs[1:]))

    def test_gain_curve_unit_at_full_data(self):
        config = load_config(None)
        rows = cmd_tradeoff(config)["gain_vs_data_fraction"].rows
        full = [r for r in rows if r[2] == 1.0]
        assert full and all(r[3] == 1.0 for r in full)

    def test_gain_table_states_what_the_law_drops(self):
        # At the defaults (K = 200) a count 2 <= K_in <= alpha / 2 exists
        # only at alpha = 4: K_in = 2, whose furthest SNR has no mean.
        config = load_config(None)
        rows = cmd_tradeoff(config)["gain_vs_data_fraction"].rows
        assert {r[0] for r in rows} == {2.5, 3.0, 3.5, 4.0}
        k = config.scenario.k_devices
        for alpha, _, f_dat, _, p_fewer_than_two, p_infinite_mean in rows:
            p_fewer = (1 - f_dat) ** k + k * f_dat * (1 - f_dat) ** (k - 1)
            assert p_fewer_than_two == pytest.approx(p_fewer, rel=1e-9)
            if alpha < 4.0 or f_dat == 1.0:
                assert p_infinite_mean == 0.0
            else:
                assert p_infinite_mean > 0.0
                expected = math.comb(k, 2) * f_dat**2 * (1 - f_dat) ** (k - 2)
                assert p_infinite_mean == pytest.approx(expected, rel=1e-9)
        [at_005] = [r[5] for r in rows if r[0] == 4.0 and r[2] == 0.05]
        assert at_005 == pytest.approx(0.00193, abs=5e-6)

    def test_gain_is_finite_where_the_interior_snr_overflows(self, tmp_path):
        # At alpha = 399 the receive SNR at r_in = 0.22 m overflows, but the
        # gain, in which p0, m, n0 and E1(g_th) cancel, is finite.
        path = tmp_path / "edge.cfg"
        path.write_text("cell_radius_m = 1.0\nr_max_grid = 1.0\np0_watts = 1e60\nalpha_grid = 3.0, 399.0\n")
        assert cli.main(["tradeoff", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = _csv_rows(tmp_path / "out" / "gain_vs_data_fraction.csv")
        assert {row["alpha"] for row in rows} == {"3", "399"}
        assert all(0.0 < float(row["snr_gain"]) < math.inf for row in rows)


class TestLatencyCommand:
    def test_analog_constant_across_devices(self):
        config = load_config(None)
        rows = cmd_latency(config)["latency"].rows
        fixed = {}
        for row in rows:
            k, q_bits, ber, r_max, t_ana = row[0], row[1], row[2], row[3], row[4]
            fixed.setdefault((q_bits, ber, r_max), set()).add(t_ana)
        for values in fixed.values():
            assert len(values) == 1

    def test_reduction_band_at_reference_settings(self):
        config = load_config(None)
        rows = cmd_latency(config)["latency"].rows
        reference = [
            r for r in rows if r[1] == 16 and r[2] == 1e-3 and r[3] == 50.0
        ]
        assert reference
        assert all(10.0 <= r[6] <= 1000.0 for r in reference)

    def test_reduction_grows_as_ber_drops(self):
        config = load_config(None)
        rows = cmd_latency(config)["latency"].rows
        series = sorted(
            [(r[2], r[6]) for r in rows if r[0] == 200 and r[1] == 16 and r[3] == 50.0],
            reverse=True,
        )
        gammas = [g for _, g in series]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))

    # At noise_dbm = 100 the digital SNR lies far below 1e-16, where
    # 1 + factor * snr rounds to 1: the rate must stay positive, the
    # latency finite, and no divide-by-zero warning may be raised.
    @pytest.mark.parametrize("overrides", [{}, {"noise_dbm": 100.0}], ids=["defaults", "noise_dbm=100"])
    def test_every_latency_finite(self, overrides):
        rows = cmd_latency(load_config(None, overrides))["latency"].rows
        assert len(rows) == 120
        assert np.isfinite(np.array([row[4:] for row in rows])).all()

    def test_scaled_ratio_is_finite_where_ratio_times_log2k_overflows(self, tmp_path):
        # At the smallest SNR the load rule admits (3e-308 at 100 m, alpha 4,
        # g_th 0.05) the reduction ratio nears 3e307, so ratio * log2(K)
        # overflows; ratio / K * log2(K) is at most 0.531 times the ratio.
        path = tmp_path / "p0.cfg"
        path.write_text("p0_watts = 7.403695465529922e-308\n")
        assert cli.main(["latency", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = _csv_rows(tmp_path / "out" / "latency.csv")
        assert len(rows) == 120
        assert all(math.isfinite(float(row["ratio_x_log2k_over_k"])) for row in rows)


class TestMonteCarloCommand:
    def test_report_structure_and_passes(self):
        config = load_config(None, overrides={"trials": 100000, "n_rounds": 31})
        table = cmd_montecarlo(config)["validation"]
        assert table.columns[0] == "check"
        names = [row[0] for row in table.rows]
        assert names == [
            "interior_count_histogram",
            "max_distance_mean",
            "snr_all_inclusive",
            "snr_cell_interior",
            "all_data_exploited_prob",
        ]
        assert all(row[-1] == "pass" for row in table.rows)

    def test_threaded_draws_give_the_serial_rows(self, monkeypatch, two_cpus):
        # 62 topology blocks and 334 mobility blocks, each stream drawn ahead
        # on its own worker.  Forced serial, the same streams give the same
        # bits.
        config = load_config(None, overrides={"trials": 20011})
        started = started_threads(monkeypatch)
        threaded = cli.montecarlo_rows(config)
        assert started == ["airfed-draw-ahead"] * 2
        monkeypatch.setattr(rng, "drawn_ahead", lambda items: items)
        assert cli.montecarlo_rows(config) == threaded
        assert len(started) == 2

    def test_interior_snr_is_a_joint_expectation(self):
        # With few devices, many trials have fewer than two interior devices.
        # They add 0 to the empirical mean, as they do to the closed form.
        # At alpha = 1.9 every counted interior count has finite variance.
        overrides = {"k_devices": 10, "r_in_frac": 0.4, "path_loss_exponent": 1.9}
        config = load_config(None, overrides={**overrides, "trials": 100000})
        rows = {row[0]: row for row in cmd_montecarlo(config)["validation"].rows}
        assert rows["snr_cell_interior"][-1] == "pass"

    def test_closed_form_and_estimate_read_one_weight_rule(self, monkeypatch):
        # Dropping one interior count from the weights moves the closed form
        # and the trials whose terms the estimate keeps.
        config = load_config(None, overrides={"k_devices": 10, "r_in_frac": 0.4, "trials": 20011})

        def interior_row():
            c = analytics.expected_snr_cell_interior(config.system, config.scenario)[1]
            row = {row[0]: row for row in cli.montecarlo_rows(config)}["snr_cell_interior"]
            return c, row[1], row[2]

        before = interior_row()
        weights = analytics.count_snr_weights

        def without_four(k_devices, alpha):
            dropped = weights(k_devices, alpha)
            dropped[4] = 0.0
            return dropped

        monkeypatch.setattr(analytics, "count_snr_weights", without_four)
        after = interior_row()
        assert all(a < b for a, b in zip(after, before)), (after, before)

    @pytest.mark.parametrize("block_entries", [1, 31, 211])
    def test_rows_do_not_depend_on_block_size(self, monkeypatch, block_entries):
        # Blocks of 10 devices split unevenly into 20,011 trials and into the
        # 70-radius mobility runs; blocks smaller than a row still hold one.
        overrides = {"k_devices": 10, "r_in_frac": 0.4, "n_rounds": 7, "trials": 20011}
        config = load_config(None, overrides=overrides)
        default = cli.montecarlo_rows(config)
        monkeypatch.setattr(rng, "BLOCK_ENTRIES", block_entries)
        assert cli.montecarlo_rows(config) == default

    def test_working_memory_is_two_floats_per_trial_and_a_few_blocks(self):
        # The report keeps each trial's furthest distance and, for the trials
        # that add an interior SNR term, the furthest interior distance; the
        # interior counts go into one histogram per block.
        config = load_config(None)
        per_trial = 2 * 8 * config.trials
        assert traced_peak(cli.montecarlo_rows, config) < per_trial + 4 * 8 * rng.BLOCK_ENTRIES

    # The per-trial SNR ~ r_max^-alpha has infinite variance unless K > alpha.
    @pytest.mark.parametrize("k, statuses", [(2, {"heavy-tailed"}), (3, {"heavy-tailed"}), (4, {"pass", "fail"})])
    def test_all_inclusive_snr_with_infinite_variance_is_not_graded(self, k, statuses):
        config = load_config(None, overrides={"k_devices": k, "trials": 20011})
        rows = {row[0]: row for row in cli.montecarlo_rows(config)}
        _, analytic, empirical, error, tolerance, metric, status = rows["snr_all_inclusive"]
        assert status in statuses
        assert error == abs(empirical - analytic) / abs(analytic)
        assert (tolerance, metric) == (0.02, "rel")

    # With alpha < K <= 1.5 alpha the per-trial SNR has a finite variance but
    # an infinite third moment, so 20,011 trials can miss the 2% tolerance on
    # a correct estimator: the row reads fail at an error of 0.0274.  A status
    # drawn from the estimator's law must flip this.
    @pytest.mark.xfail(strict=True, reason="alpha < K <= 1.5 alpha is graded like a light tail")
    def test_all_inclusive_snr_with_infinite_third_moment_does_not_fail(self):
        overrides = {"k_devices": 4, "path_loss_exponent": 3.5, "seed": 5, "trials": 20011}
        config = load_config(None, overrides=overrides)
        rows = {row[0]: row for row in cli.montecarlo_rows(config)}
        assert rows["snr_all_inclusive"][-1] != "fail"

    # all_data_exploited_prob is capped at 2,000 runs.  Where p is near 1/2
    # its standard error nears 0.0112, so the 0.02 tolerance is about 1.8
    # standard errors and a correct estimator misses it on about 7% of
    # seeds: here p = 0.475 and the error is 0.0215 (1.9 standard errors),
    # at any trial count.  The row reads undersampled, with its tolerance
    # and error as they were.
    def test_all_data_exploited_prob_near_one_half_does_not_fail(self):
        overrides = {"k_devices": 10, "n_rounds": 5, "r_in_frac": 0.64, "seed": 16}
        rows = {row[0]: row for row in cli.montecarlo_rows(load_config(None, overrides=overrides))}
        _, analytic, empirical, error, tolerance, metric, status = rows["all_data_exploited_prob"]
        assert status == "undersampled"
        assert error == abs(empirical - analytic) > tolerance
        assert (tolerance, metric) == (0.02, "abs")

    # Shifting the closed form by 0.05 puts a correct estimator 0.05 off the
    # probability it is graded against: at p near 1/2 (seed 1 has an error
    # of 0.0025) and at the defaults' p = 0.99989.
    @pytest.mark.parametrize(
        "overrides, shift",
        [
            ({"k_devices": 10, "n_rounds": 5, "r_in_frac": 0.64, "seed": 1}, 0.05),
            ({"k_devices": 10, "n_rounds": 5, "r_in_frac": 0.64, "seed": 1}, -0.05),
            ({}, -0.05),
        ],
    )
    def test_all_data_exploited_prob_off_by_five_points_fails(self, monkeypatch, overrides, shift):
        exact = analytics.p_all_exploited
        monkeypatch.setattr(analytics, "p_all_exploited", lambda *args: exact(*args) + shift)
        rows = {row[0]: row for row in cli.montecarlo_rows(load_config(None, overrides=overrides))}
        assert rows["all_data_exploited_prob"][-1] == "fail"

    # A counted interior count 2 <= K_in <= alpha gives the per-trial interior
    # SNR infinite variance. Its binomial probability is 0.43 at K = 10,
    # r_in_frac = 0.4 and 0.16 at K = 3, but 5e-21 at the defaults.
    @pytest.mark.parametrize(
        "k, r_in_frac, statuses",
        [
            (3, 0.5, {"heavy-tailed"}),
            (10, 0.4, {"heavy-tailed"}),
            (200, 0.1, {"heavy-tailed"}),
            (10, 1.0, {"pass", "fail"}),
            (200, 0.5, {"pass"}),
        ],
    )
    def test_cell_interior_snr_with_infinite_variance_is_not_graded(self, k, r_in_frac, statuses):
        config = load_config(None, overrides={"k_devices": k, "r_in_frac": r_in_frac, "trials": 20011})
        rows = {row[0]: row for row in cli.montecarlo_rows(config)}
        _, analytic, empirical, error, tolerance, metric, status = rows["snr_cell_interior"]
        assert status in statuses
        assert error == abs(empirical - analytic) / abs(analytic)
        assert (tolerance, metric) == (0.03, "rel")

    @pytest.mark.parametrize("trials", [1, 2, 3, 4])
    def test_cell_interior_grading_follows_the_binomial_law(self, trials):
        # Heavy-tailed once the run expects at least one trial with a counted
        # K_in <= alpha: trials * P(2 <= K_in <= 3) >= 1 at alpha = 3.
        config = load_config(None, overrides={"k_devices": 10, "r_in_frac": 0.4, "trials": trials})
        scenario = config.scenario
        p_heavy = sum(
            analytics.k_in_pmf(10, scenario.r_in, config.system.r_cell, j) for j in (2, 3)
        )
        rows = {row[0]: row for row in cli.montecarlo_rows(config)}
        heavy = rows["snr_cell_interior"][-1] == "heavy-tailed"
        assert heavy == (trials * p_heavy >= 1.0)

    # With K = 3 or 4 and r_in_frac = 0.05 a trial has two interior devices
    # with probability 1.9e-5 or 3.7e-5: 20,011 trials expect fewer than one
    # that adds an interior SNR term, so the row cannot be estimated.
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("k", [3, 4])
    def test_cell_interior_snr_without_expected_terms_is_undersampled(self, k, seed):
        config = load_config(
            None, overrides={"k_devices": k, "r_in_frac": 0.05, "trials": 20011, "seed": seed}
        )
        p_term = sum(
            analytics.k_in_pmf(k, config.scenario.r_in, config.system.r_cell, j)
            for j in range(2, k + 1)
        )
        assert config.trials * p_term < 1.0
        rows = {row[0]: row for row in cli.montecarlo_rows(config)}
        assert rows["snr_cell_interior"][-1] == "undersampled"
        assert rows["snr_all_inclusive"][-1] != "undersampled"

    # analytic, empirical and error of each row, as the reduction that kept
    # block-sized temporaries wrote them; the in-place reduction keeps the bits.
    @pytest.mark.parametrize(
        "seed, k, expected",
        [
            (1, 3, [
                (0.0, 0.0017396681824997122, 0.0017396681824997122),
                (85.71428571428571, 85.71245849999099, 2.131750010507953e-05),
                (16.357903814085983, 16.241239940114326, 0.007131957449902361),
                (38.850021558454245, 32.57183100260058, 0.1616006968337821),
                (0.9999983010359929, 1.0, 1.6989640071463086e-06),
            ]),
            (1, 200, [
                (0.0, 0.01117482369530688, 0.01117482369530688),
                (99.75062344139651, 99.74893864302862, 1.6890103638097642e-05),
                (8.240757588960193, 8.241175462217202, 5.0708111784334234e-05),
                (67.48881932618679, 67.50754266940703, 0.0002774288157235512),
                (0.9998867420508084, 0.9995, 0.000386742050808353),
            ]),
            (5, 3, [
                (0.0, 0.0014015728849131708, 0.0014015728849131708),
                (85.71428571428571, 85.61518898331754, 0.001156128527961992),
                (16.357903814085983, 16.689163445046617, 0.02025073840300874),
                (38.850021558454245, 34.49070287693821, 0.11220891280477024),
                (0.9999983010359929, 1.0, 1.6989640071463086e-06),
            ]),
            (5, 200, [
                (0.0, 0.014013962802664036, 0.014013962802664036),
                (99.75062344139651, 99.75227934504707, 1.6600434096847393e-05),
                (8.240757588960193, 8.240340982528652, 5.0554384963230365e-05),
                (67.48881932618679, 67.51835120005235, 0.0004375817233197078),
                (0.9998867420508084, 1.0, 0.00011325794919159193),
            ]),
        ],
    )
    def test_rows_keep_their_recorded_bits(self, seed, k, expected):
        config = load_config(None, overrides={"k_devices": k, "trials": 20011, "seed": seed})
        assert [row[1:4] for row in cli.montecarlo_rows(config)] == expected

    # At K = 3 and r_in_frac = 0.05 a trial adds an interior SNR term (two
    # devices within r_in) with probability about 2e-5, so none of 20,011
    # does: the interior buffer stays empty and the empirical interior SNR
    # is 0.0.  Rows as the reduction that kept three values per trial wrote
    # them.
    @pytest.mark.parametrize(
        "seed, expected",
        [
            (1, [
                (0.0, 0.00048511350866398627, 0.00048511350866398627),
                (85.71428571428571, 85.71245849999099, 2.131750010507953e-05),
                (16.357903814085983, 16.241239940114326, 0.007131957449902361),
                (4.897147454342003, 0.0, 1.0),
                (0.001628090023766443, 0.0015, 0.000128090023766443),
            ]),
            (2, [
                (0.0, 0.000882863149486546, 0.000882863149486546),
                (85.71428571428571, 85.44664249992933, 0.0031225041674911346),
                (16.357903814085983, 16.550458896366198, 0.011771378806763962),
                (4.897147454342003, 0.0, 1.0),
                (0.001628090023766443, 0.004, 0.002371909976233557),
            ]),
        ],
    )
    def test_rows_without_a_usable_trial_keep_their_recorded_bits(self, seed, expected):
        overrides = {"k_devices": 3, "r_in_frac": 0.05, "trials": 20011, "seed": seed}
        config = load_config(None, overrides=overrides)
        assert [row[1:4] for row in cli.montecarlo_rows(config)] == expected


class TestExtensionsCommand:
    def test_suppression_and_beam_tables(self):
        config = load_config(None, overrides={"trials": 2000})
        tables = cmd_extensions(config)
        suppression = tables["dsss_suppression"].rows
        assert [row[0] for row in suppression] == list(DEFAULTS["gamma_grid"])
        for gamma, trials, measured, expected in suppression:
            assert expected == gamma
            assert measured == pytest.approx(gamma, rel=0.2)
        beams = tables["beamforming"].rows
        assert any(row[4] == "infeasible" for row in beams)
        assert all(row[6] == "yes" for row in beams)

    @pytest.mark.parametrize("block_entries", [1, 31, 4097])
    def test_suppression_table_does_not_depend_on_block_size(self, monkeypatch, block_entries):
        # One-row blocks, and blocks that split the trials unevenly.
        config = load_config(None, overrides={"trials": 2000})
        default = cmd_extensions(config)["dsss_suppression"]
        monkeypatch.setattr(rng, "BLOCK_ENTRIES", block_entries)
        blocked = cmd_extensions(config)["dsss_suppression"]
        assert blocked.render("csv") == default.render("csv")
        for row, default_row in zip(blocked.rows, default.rows):
            assert row[2] == pytest.approx(default_row[2], rel=1e-12)

    def test_rows_depend_only_on_their_factor_and_the_widest(self):
        # Every factor reads the chips of the widest one, so reordering the
        # grid, or dropping a factor that is not the widest, leaves every
        # other row as it was.
        def rows(grid):
            config = load_config(None, overrides={"trials": 2000, "gamma_grid": grid})
            return {row[0]: row for row in cmd_extensions(config)["dsss_suppression"].rows}

        default = rows((1, 4, 16, 64))
        assert rows((64, 16, 1, 4)) == default
        for grid in [(1, 16, 64), (4, 64), (64,)]:
            assert rows(grid) == {gamma: default[gamma] for gamma in grid}

    def test_working_memory_is_a_few_blocks(self):
        # Interference is drawn and despread one block at a time.
        config = load_config(None)
        assert traced_peak(cmd_extensions, config) < 5 * 8 * rng.BLOCK_ENTRIES

    def test_single_user_tie_reports_dominance(self):
        # The 8 x 1 instance gives both strategies the same MRC beam; the
        # verdict must not depend on how the two SNRs happen to round.
        for seed in range(20):
            config = load_config(None, overrides={"trials": 10, "seed": seed})
            beams = cmd_extensions(config)["beamforming"].rows
            assert [row[6] for row in beams] == ["yes"] * len(beams), seed


class TestTrainCompareCommands:
    def test_train_trace_and_grid(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(small_train_with("scheme = cell-interior"))
        config = load_config(path)
        tables = run_command("train", config, grid=True)
        trace = tables["trace_cell-interior_baa"]
        assert trace.columns == (
            "round", "accuracy", "loss", "latency_s", "rho0_db", "truncation_frac", "k_scheduled",
            "max_tx_power_ratio", "min_contributors",
        )
        assert len(trace.rows) == 3
        grid = tables["accuracy_grid"]
        assert len(grid.rows) == 2  # 2 r_in x 1 g_th
        for row in grid.rows:
            assert 0.0 <= row[2] <= 1.0

    def test_compare_emits_three_traces(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(SMALL_TRAIN)
        config = load_config(path)
        tables = run_command("compare", config)
        assert set(tables) == {"trace_ideal", "trace_baa", "trace_digital", "summary"}
        summary = {row[0]: row for row in tables["summary"].rows}
        assert summary["ideal"][2] == 0.0  # no channel, no latency
        assert summary["baa"][2] > 0.0
        assert summary["digital"][2] > 0.0


class TestRunCommand:
    """``run_command`` lets a command's ValueError through unchanged, and
    ``main`` reports it as one ``error:`` line and exit 2."""

    def test_command_value_error_reaches_main_unchanged(self, monkeypatch, tmp_path, capsys):
        boom = ValueError("boom")

        def cmd_extensions(config):
            raise boom

        monkeypatch.setattr(cli, "cmd_extensions", cmd_extensions)
        with pytest.raises(ValueError) as info:
            run_command("extensions", load_config(None))
        assert info.value is boom
        assert cli.main(["extensions", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: boom"]

    def test_unknown_command_stays_a_plain_value_error(self):
        with pytest.raises(ValueError, match="unknown command 'nope'"):
            run_command("nope", load_config(None))


class TestModuleEntryPoint:
    """``python -m airfed`` runs ``cli.main`` in a fresh interpreter and
    exits with its status."""

    def test_python_dash_m_exits_with_mains_status(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "airfed", *args], capture_output=True, text=True, env=env, timeout=120
            )

        out = tmp_path / "out"
        proc = run("tradeoff", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        written = proc.stdout.splitlines()
        assert written and all(Path(path).parent == out and Path(path).is_file() for path in written)
        config = tmp_path / "bad.cfg"
        config.write_text("warp_drive = 9\n")
        proc = run("tradeoff", "--config", str(config), "--out", str(tmp_path / "unused"))
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("error:") and "warp_drive" in line
        assert not (tmp_path / "unused").exists()


def _rewrite_images(corpus, transform):
    path = corpus / "train-images-idx3-ubyte"
    path.write_bytes(transform(path.read_bytes()))


class TestIdxCorpus:
    @staticmethod
    def write_pair(directory, n):
        """A 2x2-pixel IDX image/label pair of n samples, labels cycling 0-9.
        Each image's four bytes spell its index, so no two are equal."""
        directory.mkdir()
        images = np.arange(n, dtype=">u4").view(np.uint8).reshape(n, 2, 2)
        write_idx_pair(directory, images, (np.arange(n) % 10).astype(np.uint8))
        return directory

    def run_compare(self, tmp_path, n, corrupt=lambda corpus: None) -> int:
        corpus = self.write_pair(tmp_path / "corpus", n)
        corrupt(corpus)
        path = tmp_path / "idx.cfg"
        path.write_text(f"dataset = {corpus}\n")
        return cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")])

    def test_images_without_their_own_labels_exit_cleanly(self, tmp_path, capsys):
        # Training images beside only the test pair: the training labels are
        # missing, and the test labels must not stand in for them.
        def keep_only_test_labels(corpus):
            (corpus / "t10k-images-idx3-ubyte").write_bytes((corpus / "train-images-idx3-ubyte").read_bytes())
            (corpus / "train-labels-idx1-ubyte").rename(corpus / "t10k-labels-idx1-ubyte")

        assert self.run_compare(tmp_path, 6000, keep_only_test_labels) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "train-labels-idx1-ubyte not found" in line

    # A path that does not exist is reported as itself, not as an images
    # file whose labels are missing.
    @pytest.mark.parametrize("name", ["no_such_dir", "train-images-idx3-ubyte"])
    def test_missing_dataset_path_exits_cleanly(self, tmp_path, capsys, name):
        missing = tmp_path / name
        path = tmp_path / "idx.cfg"
        path.write_text(f"dataset = {missing}\n")
        assert cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {missing}: no such file or directory"

    def test_directory_with_both_pairs_loads_the_training_pair(self, tmp_path):
        corpus = self.write_pair(tmp_path / "corpus", 300)
        other = tmp_path / "other"
        other.mkdir()
        write_idx_pair(other, np.full((120, 2, 2), 255, np.uint8), np.zeros(120, np.uint8))
        for kind in ("images-idx3", "labels-idx1"):
            (other / f"train-{kind}-ubyte").rename(corpus / f"t10k-{kind}-ubyte")
        full = load_mnist_idx(corpus)
        assert len(full) == 300
        np.testing.assert_array_equal(full.labels, np.arange(300) % 10)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: _rewrite_images(d, lambda b: b[:7]), "truncated IDX header at offset 7"),
            (lambda d: _rewrite_images(d, lambda b: b"\0\0\x08\x01" + b[4:]), "bad IDX magic 0x00000801"),
            (lambda d: _rewrite_images(d, lambda b: b[:-1]), "payload ends at offset"),
            (lambda d: write_idx_pair(d, np.zeros((6000, 2, 2), np.uint8), (np.arange(5999) % 10).astype(np.uint8)),
             "6000 images but 5999 labels"),
            (lambda d: write_idx_pair(d, np.zeros((6000, 2, 2), np.uint8), (np.arange(6000) % 11).astype(np.uint8)),
             "labels must lie in [0, n_classes)"),
        ],
        ids=["truncated-header", "bad-magic", "short-payload", "count-mismatch", "label-out-of-range"],
    )
    def test_malformed_corpus_exits_cleanly(self, tmp_path, capsys, corrupt, message):
        assert self.run_compare(tmp_path, 6000, corrupt) == 2
        err = capsys.readouterr().err
        [line] = err.splitlines()
        assert line.startswith(f"error: dataset = {tmp_path / 'corpus'}: ") and message in line
        assert "Traceback" not in err

    # At the default test_samples = 5000 these corpora leave no training set.
    @pytest.mark.parametrize("n", [300, 4000, 5000])
    def test_corpus_no_larger_than_the_test_set_exits_cleanly(self, tmp_path, capsys, n):
        assert self.run_compare(tmp_path, n) == 2
        err = capsys.readouterr().err
        assert f"error: test_samples = 5000 leaves 0 training samples in the {n}-sample corpus" in err

    def test_partition_is_checked_on_the_real_training_set(self, tmp_path, capsys):
        # 100 samples beyond the test set cannot give 200 devices one each.
        assert self.run_compare(tmp_path, 5100) == 2
        err = capsys.readouterr().err
        assert "error: test_samples = 5000 leaves 100 training samples in the 5100-sample corpus" in err
        assert "k_devices = 200" in err

    @pytest.mark.parametrize("n, n_train", [(300, 150), (220, 120)])
    def test_training_set_is_the_corpus_beyond_the_test_set(self, tmp_path, n, n_train):
        corpus = self.write_pair(tmp_path / "corpus", n)
        config = load_config(
            None, {"dataset": str(corpus), "train_samples": 150, "test_samples": 100, "k_devices": 4}
        )
        train, test = cli._build_datasets(config)
        assert (len(train), len(test)) == (n_train, 100)
        pixels = {tuple(row) for row in np.vstack([train.features, test.features])}
        assert len(pixels) == n_train + 100


class TestDeterminism:
    @pytest.mark.parametrize("command", ["compare", "extensions", "montecarlo"])
    def test_byte_identical_outputs(self, tmp_path, command):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_TRAIN)
        outputs = {}
        for run in ("a", "b"):
            out_dir = tmp_path / run
            code = cli.main(
                [
                    command,
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out_dir),
                    "--format",
                    "csv",
                ]
            )
            assert code == 0
            outputs[run] = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
        assert outputs["a"].keys() == outputs["b"].keys()
        for name in outputs["a"]:
            assert outputs["a"][name] == outputs["b"][name], name

    def test_manifest_contents(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("seed = 42\ntrials = 10\n")
        out_dir = tmp_path / "out"
        code = cli.main(
            ["tradeoff", "--config", str(cfg_path), "--out", str(out_dir), "--format", "json"]
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert len(manifest["config_hash"]) == 64
        assert "versions" in manifest
        assert manifest["versions"]["python"] == platform.python_version()
        assert manifest["versions"]["numpy"] == np.__version__
        assert manifest["versions"]["platform"] == platform.platform()
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            expected_blas = {"name": blas["name"], "version": blas["version"]}
        except TypeError:  # numpy < 1.26: no dict mode
            expected_blas = None
        assert manifest["versions"]["blas"] == expected_blas
        payload = json.loads((out_dir / "snr_truncation.json").read_text())
        assert isinstance(payload, list) and payload

    def test_seed_flag_changes_hash(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["tradeoff", "--out", str(out_a), "--seed", "1"]) == 0
        assert cli.main(["tradeoff", "--out", str(out_b), "--seed", "2"]) == 0
        hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
        hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
        assert hash_a != hash_b

    @pytest.mark.parametrize(
        "name, make",
        [
            ("missing.cfg", lambda path: None),
            ("config_dir", lambda path: path.mkdir()),
            ("utf16.cfg", lambda path: path.write_bytes(b"\xff\xfe" + "seed = 3\n".encode("utf-16-le"))),
        ],
        ids=["missing", "directory", "utf16"],
    )
    def test_unknown_config_file_is_error(self, tmp_path, capsys, name, make):
        path = tmp_path / name
        make(path)
        code = cli.main(["tradeoff", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot read config file {path}: ")

    def test_out_naming_a_file_is_error(self, tmp_path, capsys):
        out = tmp_path / "some.cfg"
        out.write_text("seed = 3\n")
        assert cli.main(["latency", "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot write to --out {out}: ")


@st.composite
def edge_configs(draw):
    """Config text whose receive SNR at the cell radius lies within ten
    decades of an edge of the normal floats (10^-307.7 to 10^308.3): p0 and
    the noise are chosen for a drawn SNR at the drawn exponent, radius and
    cutoff, both within the float range.  The radius is often one of the
    default ``r_max_grid`` entries, where ``latency`` evaluates."""
    alpha = draw(st.floats(0.5, 8.0))
    r_cell = draw(st.sampled_from([50.0, 100.0]) | st.floats(-2.0, 4.0).map(lambda e: 10.0**e))
    g_th = 10.0 ** draw(st.floats(-3.0, 2.0))
    log_snr = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(298.0, 312.0))
    # log10(p0 / n0) for that SNR at M = 1000 sub-channels.
    log_ratio = log_snr + 3.0 + alpha * math.log10(r_cell) + math.log10(analytics.exp_integral(g_th))
    lo, hi = max(-299.0, -299.0 - log_ratio), min(296.0, 299.0 - log_ratio)
    log_n0 = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    values = {
        "p0_watts": 10.0 ** (log_ratio + log_n0),
        "noise_dbm": 10.0 * log_n0 + 30.0,
        "path_loss_exponent": alpha,
        "cell_radius_m": r_cell,
        "g_th": g_th,
        "r_in_frac": draw(st.floats(0.01, 1.0)),
        "target_ber": 10.0 ** draw(st.floats(-8.0, -0.71)),
        "k_devices": draw(st.integers(1, 10)),
    }
    return "".join(f"{key} = {value!r}\n" for key, value in values.items())


def _csv_rows(path):
    return list(csv.DictReader(path.read_text().splitlines()))


class TestReceiveSnrEdges:
    """No command writes an infinite or zero SNR-derived value: near the
    edges of the float range each run either exits 2 with one ``error:``
    line, or exits 0 with finite SNRs and latencies and nothing on stderr.
    The suite turns RuntimeWarnings into errors, so an over- or underflow
    that numpy reports fails the run.  The columns README documents as
    ``nan`` are exempt, and so are loss and accuracy."""

    COMMANDS = {
        "tradeoff": "",
        "latency": "",
        "montecarlo": "trials = 300\n",
        "compare": "n_rounds = 3\ntrain_samples = 200\ntest_samples = 200\n",
    }

    @staticmethod
    def check_outputs(command, out):
        def finite(row, *columns, positive=()):
            for column in columns:
                value = float(row[column])
                assert np.isfinite(value), (command, column, row)
                assert column not in positive or value > 0.0, (command, column, row)

        if command == "tradeoff":
            for row in _csv_rows(out / "snr_truncation.csv"):
                finite(row, "snr_linear", "snr_db", positive=("snr_linear",))
            for row in _csv_rows(out / "gain_vs_data_fraction.csv"):
                columns = ("snr_gain", "p_fewer_than_two", "p_infinite_mean")
                finite(row, *columns, positive=("snr_gain",))
        elif command == "latency":
            columns = ("t_analog_s", "t_digital_s", "reduction_ratio", "ratio_x_log2k_over_k")
            for row in _csv_rows(out / "latency.csv"):
                finite(row, *columns, positive=("t_digital_s", "reduction_ratio"))
        elif command == "montecarlo":
            for row in _csv_rows(out / "validation.csv"):
                if row["check"].startswith("snr_"):
                    finite(row, "analytic", "empirical", "error", positive=("analytic",))
        else:
            for aggregation in ("ideal", "baa", "digital"):
                for row in _csv_rows(out / f"trace_{aggregation}.csv"):
                    scheduled = int(row["k_scheduled"]) > 0
                    positive = ("latency_s",) if aggregation == "digital" and scheduled else ()
                    finite(row, "latency_s", positive=positive)
                    if aggregation != "ideal" and scheduled:
                        finite(row, "rho0_db")
            for row in _csv_rows(out / "summary.csv"):
                finite(row, "total_latency_s")

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(text=edge_configs(), command=st.sampled_from(sorted(COMMANDS)))
    # The smallest SNR the load rule checks (100 m, alpha 4, g_th 0.05) is
    # 3e-308: the latency ratio nears 3e307, where ratio * log2(K) would overflow.
    @example(text="p0_watts = 7.403695465529922e-308\n", command="latency")
    def test_snr_edges_exit_cleanly_or_write_finite_values(self, text, command):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "edge.cfg", Path(tmp) / "out"
            path.write_text(text + self.COMMANDS[command])
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(path), "--out", str(out)])
            if code == 2:
                [line] = err.getvalue().splitlines()
                assert line.startswith("error: ")
            else:
                assert code == 0
                assert err.getvalue() == ""
                self.check_outputs(command, out)
