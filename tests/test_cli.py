"""Harness behavior: config ingestion, determinism, and table contents."""

import json

import pytest

from airfed import cli
from airfed.cli import (
    Table,
    cmd_extensions,
    cmd_latency,
    cmd_montecarlo,
    cmd_tradeoff,
    evaluate_check,
    run_command,
    write_outputs,
)
from airfed.config import ConfigError, DEFAULTS, dbm_to_watts, load_config, parse_config_text
from conftest import traced_peak

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
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("p0_watts = 0.1\nwarp_drive = 9\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("just some text\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("k_devices = twenty\n")

    def test_ber_bound_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("target_ber = 0.3\n")
        with pytest.raises(ConfigError, match="target_ber"):
            load_config(path)

    @pytest.mark.parametrize("text", ["quant_bits = 64\n", "q_bits_grid = 8, 64\n"])
    def test_unrepresentable_quant_bits_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="q_bits"):
            load_config(path)

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
        ],
    )
    def test_out_of_range_value_exits_cleanly(self, tmp_path, capsys, line, command):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_TRAIN + line + "\n")
        assert cli.main([*command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        key = line.split("=")[0].strip()
        assert f"error: {key} " in capsys.readouterr().err

    # The reports' closed forms need K >= 2 (cell-interior scheduling) and
    # 2K - alpha - 1 >= 0 (expected receive SNR).
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

    @pytest.mark.parametrize("command", ["latency", "train", "compare", "extensions"])
    def test_single_device_runs_where_no_closed_form_is_undefined(self, tmp_path, command):
        path = tmp_path / "one.cfg"
        path.write_text(SMALL_TRAIN + "k_devices = 1\n")
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

    def test_interior_snr_is_a_joint_expectation(self):
        # With few devices, many trials have fewer than two interior devices.
        # They add 0 to the empirical mean, as they do to the closed form.
        # At alpha = 1.9 every counted interior count has finite variance.
        overrides = {"k_devices": 10, "r_in_frac": 0.4, "path_loss_exponent": 1.9}
        config = load_config(None, overrides={**overrides, "trials": 100000})
        rows = {row[0]: row for row in cmd_montecarlo(config)["validation"].rows}
        assert rows["snr_cell_interior"][-1] == "pass"

    @pytest.mark.parametrize("block_entries", [1, 31, 211])
    def test_rows_do_not_depend_on_block_size(self, monkeypatch, block_entries):
        # Blocks of 10 devices split unevenly into 20,011 trials and into the
        # 70-radius mobility runs; blocks smaller than a row still hold one.
        overrides = {"k_devices": 10, "r_in_frac": 0.4, "n_rounds": 7, "trials": 20011}
        config = load_config(None, overrides=overrides)
        default = cli.montecarlo_rows(config)
        monkeypatch.setattr(cli, "MC_BLOCK_ENTRIES", block_entries)
        assert cli.montecarlo_rows(config) == default

    def test_working_memory_below_half_a_topology_matrix(self):
        # Topologies are drawn in blocks and reduced per trial: the traced
        # peak stays below half of one float64 (trials, K) matrix.
        config = load_config(None)
        assert traced_peak(cli.montecarlo_rows, config) < 4 * config.trials * config.scenario.k_devices


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
        path.write_text(SMALL_TRAIN + "scheme = cell-interior\n")
        config = load_config(path)
        tables = run_command("train", config, grid=True)
        trace = tables["trace_cell-interior_baa"]
        assert trace.columns == (
            "round", "accuracy", "loss", "latency_s", "rho0_db", "truncation_frac", "k_scheduled"
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

    def test_unknown_config_file_is_error(self, tmp_path):
        code = cli.main(["tradeoff", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)])
        assert code == 2
