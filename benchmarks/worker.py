"""One benchmark workload, set up and run in this process.

run.py starts this script as a child process; it is not meant to be run
by hand.  Set-up (imports, ``config.load_config`` and building the inputs)
is timed from the first line of this file.  Ops then run one at a time
(closed loop) until ``--seconds`` have passed, or exactly ``--ops`` of
them.  Op ``i`` draws its seed from (workload seed, i), so ops share no
work.  A fixed reference computation is timed just before and after each
op, and the op's outputs are checked and hashed, all outside its timer.
The last line of stdout is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from airfed import analytics, cli, config, datasets, learning, network, phy, rng  # noqa: E402

# phy-paper size: 59 OFDM symbols of M = 1000 sub-channels (ROADMAP item 2).
PHY_PAPER_Q = 58203
FINAL_ACCURACY_FLOOR = 0.9  # chance is 0.1; every aggregation reaches ~0.985 at defaults
# Truncated share over K*q = 11.6M Bernoulli(0.18) entries has sd ~1.1e-4.
TRUNCATION_TOL = 1e-3
# Per-device power audit is a mean over q draws of rho0 r^a / g (g >= g_th);
# its relative sd is ~0.4 % at q = 58203, so 3 % is several sd for the max over K.
TX_POWER_TOL = 0.03
# latency_digital and max(bits / rate) round in a different order.
DIGITAL_LATENCY_RTOL = 1e-12
DSSS_RTOL = 0.05
# With one user, aggregation and SDMA beams are the same MRC beam, so their
# SNRs tie mathematically and differ only by rounding.
BEAM_RTOL = 1e-12


def op_rng(seed: int, i: int, *labels):
    return rng.derived_rng(seed, "op", i, *labels)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


class FlDesk:
    """``compare`` at the config defaults, one aggregation per op."""

    kinds = ("ideal", "baa", "digital")

    def __init__(self, seed: int):
        self.seed = seed
        self.config = config.load_config()
        v = self.config.values

        def mixture(n, label):
            return datasets.synth_gaussian_mixture(
                v["classes"], v["feature_dim"], n,
                seed=int(rng.derived_rng(seed, "data", label).integers(2**63)),
                separation=v["class_separation"],
            )

        self.train_set = mixture(v["train_samples"], "train")
        self.test_set = mixture(v["test_samples"], "test")
        self.q = learning.model_dim(self.train_set.n_features, self.train_set.n_classes)
        self.units = self.config.train.n_cr

    def sizes(self) -> dict:
        c = self.config
        data = (self.train_set, self.test_set)
        return {
            "k_devices": c.scenario.k_devices,
            "q": self.q,
            "m": c.system.m,
            "n_symbols": math.ceil(self.q / c.system.m),
            "n_rounds": c.train.n_cr,
            "input_bytes_computed": sum(d.features.nbytes + d.labels.nbytes for d in data),
        }

    def op(self, i: int, kind: str):
        c = self.config
        return learning.federated_train(
            self.train_set, c.partition, replace(c.train, aggregation=kind), c.system,
            c.scenario, c.scheme, int(op_rng(self.seed, i).integers(2**63)), self.test_set,
            mobility=c.mobility,
        )

    def check(self, kind: str, result) -> tuple:
        problems = []
        records = result.records
        if len(records) != self.units:
            problems.append(f"trace has {len(records)} records, expected {self.units}")
        if not all(math.isfinite(r.loss) and math.isfinite(r.accuracy) for r in records):
            problems.append("non-finite loss or accuracy")
        if not result.final_accuracy >= FINAL_ACCURACY_FLOOR:
            problems.append(f"final accuracy {result.final_accuracy} < {FINAL_ACCURACY_FLOOR}")
        if kind == "baa":
            expected = analytics.latency_baa(self.q, self.config.system)
            wrong = [r.round for r in records if r.k_scheduled and r.latency_s != expected]
            if wrong:
                problems.append(f"analog latency differs from latency_baa in rounds {wrong}")
        return digest(learning.trace_csv(result).encode(), result.final_weights), problems


class PhyPaper:
    """One analog or one digital round at K = 200, q = 58,203, all scheduled."""

    kinds = ("analog", "digital")
    units = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.config = config.load_config(None, {"model_dim": PHY_PAPER_Q})
        k, q = self.config.scenario.k_devices, self.config.scenario.q_dim
        draw = rng.derived_rng(seed, "inputs")
        self.model = 0.1 * draw.standard_normal(q)
        self.updates = self.model + 0.01 * draw.standard_normal((k, q))
        self._reference = None

    def sizes(self) -> dict:
        c = self.config
        k, q, m = c.scenario.k_devices, c.scenario.q_dim, c.system.m
        n_symbols = math.ceil(q / m)
        return {
            "k_devices": k,
            "q": q,
            "m": m,
            "n_symbols": n_symbols,
            "input_bytes_computed": self.updates.nbytes + self.model.nbytes,
            "channel_tensor_bytes_computed": n_symbols * k * m * 16,
        }

    def _radii(self, i: int):
        c = self.config
        return network.sample_radii(c.scenario.k_devices, c.system.r_cell, op_rng(self.seed, i, "radii"))

    def op(self, i: int, kind: str):
        params = self.config.system
        radii = self._radii(i)
        if kind == "analog":
            spec = phy.normalization_from_values(self.model)
            symbols = phy.normalize_updates(self.updates, spec)
            aggregate, diag = phy.baa_round(symbols, radii, params, op_rng(self.seed, i))
            return radii, phy.denormalize(aggregate, spec, 1), diag
        return radii, phy.digital_round(
            self.updates, radii, params, self.config.scenario, op_rng(self.seed, i)
        )

    def check(self, kind: str, result) -> tuple:
        params, scenario = self.config.system, self.config.scenario
        problems = []
        if kind == "analog":
            radii, estimate, diag = result
            if diag.latency_s != analytics.latency_baa(scenario.q_dim, params):
                problems.append(f"latency {diag.latency_s} != latency_baa")
            truncated = float(np.mean(diag.truncation_fraction))
            expected = analytics.truncation_ratio(params.g_th)
            if abs(truncated - expected) > TRUNCATION_TOL:
                problems.append(f"mean truncation {truncated} vs {expected}")
            power = float(np.max(diag.tx_power)) / params.p0
            if power > 1.0 + TX_POWER_TOL:
                problems.append(f"max tx_power / p0 = {power}")
            if not np.all(np.isfinite(estimate)):
                problems.append("non-finite analog estimate")
            return digest(estimate, diag.tx_power, diag.truncation_fraction, diag.contributor_counts), problems

        radii, out = result
        expected = analytics.latency_digital(params, scenario, float(radii.max()))
        if not math.isclose(out.round_latency_s, expected, rel_tol=DIGITAL_LATENCY_RTOL):
            problems.append(f"round latency {out.round_latency_s} vs latency_digital {expected}")
        if self._reference is None:
            lo, hi = float(self.updates.min()), float(self.updates.max())
            self._reference = (self.updates.mean(axis=0), (hi - lo) / ((1 << params.q_bits) - 1))
        mean, step = self._reference
        error = float(np.max(np.abs(out.aggregate - mean)))
        if not error <= step:
            problems.append(f"digital aggregate off by {error} > one quantization step {step}")
        return digest(out.aggregate, out.per_device_latency_s), problems


class CliReports:
    """``tradeoff``, ``latency``, ``montecarlo`` and ``extensions`` at the
    config defaults, each rendered to CSV."""

    kinds = ("tradeoff", "latency", "montecarlo", "extensions")
    units = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.config = config.load_config()
        v = self.config.values
        self.expected_rows = {
            "snr_truncation": len(v["alpha_grid"]) * len(v["r_max_grid"]) * len(v["zeta_grid"]),
            "gain_vs_data_fraction": len(v["alpha_grid"]) * len(v["f_dat_grid"]),
            "latency": len(v["k_grid"]) * len(v["q_bits_grid"]) * len(v["ber_grid"]) * len(v["r_max_grid"]),
            "validation": 5,
            "dsss_suppression": len(v["gamma_grid"]),
            "beamforming": 3,
        }
        # Verdicts the program prints about itself; counted, not benchmark failures.
        self.program_counts = {
            "cli.montecarlo_rows.checks_failed": 0,
            "cli.cmd_extensions.aggregation_dominates_no": 0,
        }

    def sizes(self) -> dict:
        c = self.config
        k, trials = c.scenario.k_devices, c.trials
        return {
            "k_devices": k,
            "trials": trials,
            "dsss_trials": min(trials, 10000) * len(c.values["gamma_grid"]),
            "radii_bytes_computed": trials * k * 8,
        }

    def op(self, i: int, kind: str):
        run_config = config.load_config(None, {"seed": int(op_rng(self.seed, i).integers(2**63))})
        tables = cli.run_command(kind, run_config)
        return tables, {name: table.render("csv") for name, table in sorted(tables.items())}

    def check(self, kind: str, result) -> tuple:
        tables, rendered = result
        problems = []
        for name, table in tables.items():
            if len(table.rows) != self.expected_rows[name]:
                problems.append(f"{name}: {len(table.rows)} rows, expected {self.expected_rows[name]}")
            for row in table.rows:
                cells = dict(zip(table.columns, row))
                if cells.get("sdma_status") == "infeasible":
                    cells.pop("sdma_best_snr")
                numeric = [x for x in cells.values() if not isinstance(x, str)]
                if not all(math.isfinite(x) for x in numeric):
                    problems.append(f"{name}: non-finite cell in {row}")
        if kind == "extensions":
            for gamma, _, measured, _ in tables["dsss_suppression"].rows:
                if abs(measured / gamma - 1.0) > DSSS_RTOL:
                    problems.append(f"DSSS suppression {measured} at gamma {gamma}")
            for _, _, _, objective, status, best_sdma, dominates in tables["beamforming"].rows:
                if status == "feasible" and objective < best_sdma * (1.0 - BEAM_RTOL):
                    problems.append(f"aggregation objective {objective} below SDMA SNR {best_sdma}")
                self.program_counts["cli.cmd_extensions.aggregation_dominates_no"] += dominates != "yes"
        if kind == "montecarlo":
            rows = tables["validation"].rows
            self.program_counts["cli.montecarlo_rows.checks_failed"] += sum(row[-1] != "pass" for row in rows)
        return digest(*(text.encode() for text in rendered.values())), problems


WORKLOADS = {"fl-desk": FlDesk, "phy-paper": PhyPaper, "cli-reports": CliReports}


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


class HostReference:
    """Fixed numpy work that never touches airfed, timed around every op.

    On a shared host, speed drifts by tens of percent over seconds to
    minutes.  The reference slows down with the host, so the driver
    reports op time relative to it (``cycle_ref``) as well as in
    milliseconds.  Its one buffer (8 MB) is allocated once and only read,
    so it adds a constant to peak RSS.
    """

    def __init__(self):
        self.small = np.ones((10, 16))
        self.weights = np.ones((16, 10))
        self.buffer = np.ones(1_000_000)

    def seconds(self) -> float:
        """Geometric mean of an interpreter-bound and a vectorised kernel."""
        t = time.perf_counter()
        for _ in range(3000):
            (self.small @ self.weights).max(axis=1)
        t_python = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(16):
            self.buffer.sum()
        return math.sqrt(t_python * (time.perf_counter() - t))


def run_ops(workload, seconds: float, n_ops, tracer) -> list:
    kinds = workload.kinds
    reference = HostReference()
    ops = []
    start = time.perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i >= len(kinds) and time.perf_counter() - start >= seconds:
            break
        kind = kinds[i % len(kinds)]
        ref_before = reference.seconds()
        if tracer is not None:
            tracer.op_id, tracer.paused = i, False
        t = time.perf_counter()
        try:
            result = workload.op(i, kind)
            error = None
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t
        if tracer is not None:
            tracer.paused = True
        ref_s = (ref_before + reference.seconds()) / 2.0
        record = {"i": i, "kind": kind, "wall_s": wall, "units": workload.units, "ref_s": ref_s}
        if error is None:
            try:
                record["digest"], record["problems"] = workload.check(kind, result)
            except Exception:
                record["problems"] = [traceback.format_exc()]
            del result
        else:
            record["problems"] = [error]
        for problem in record["problems"]:
            print(f"op {i} ({kind}): {problem}", file=sys.stderr)
        ops.append(record)
        i += 1
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=None, help="run exactly this many ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None, help="write spans here (.npz)")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "airfed_file": sys.modules["airfed"].__file__}
    if not args.setup_only:
        out["ops"] = run_ops(workload, args.seconds, args.ops, tracer)
        out["sizes"] = workload.sizes()
        out["environment"] = environment()
        out["program_counts"] = getattr(workload, "program_counts", {})
        if tracer is not None:
            out["trace"] = tracer.summary({op["i"]: op["wall_s"] for op in out["ops"]})
            if args.spans is not None:
                tracer.save(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
