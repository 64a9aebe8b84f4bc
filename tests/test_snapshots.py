"""Every command's output at the defaults, ``compare`` at a non-default
config and ``train --grid`` on a reduced grid, against its committed
snapshot.

``tests/snapshots/<command>/`` holds what ``python -m airfed <command>
--out tests/snapshots/<command>`` writes,
``tests/snapshots/compare-nondefault/`` what ``compare --config
tests/snapshots/nondefault.cfg`` writes (5 classes, non-IID shards,
i.i.d. mobility, minibatches and alternating scheduling), and
``tests/snapshots/train-grid/`` what ``train --grid --config
tests/snapshots/grid.cfg`` writes (20 devices, 12 rounds, a 2 x 2 grid,
and rounds that schedule nobody).  A change that moves an output
regenerates the snapshot with that command and records the change.

Strings and headers must match exactly.  Numbers match at a relative
1e-12: numpy's AVX-512 ``power`` can round differently in the last bit,
so byte equality across hosts is not assured.  The version fields of
``manifest.json`` are left out.

The same tables, rendered as JSON, must hold what their CSV holds: each
row's keys are the header, and each value formats to its CSV cell.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from airfed import cli
from airfed.config import load_config

SNAPSHOTS = Path(__file__).parent / "snapshots"
COMMANDS = ("tradeoff", "latency", "montecarlo", "extensions", "compare", "train")
# Snapshot directory -> command line.
RUNS = {command: [command] for command in COMMANDS}
RUNS["compare-nondefault"] = ["compare", "--config", str(SNAPSHOTS / "nondefault.cfg")]
RUNS["train-grid"] = ["train", "--grid", "--config", str(SNAPSHOTS / "grid.cfg")]
RTOL = 1e-12


def _same_cell(expected: str, actual: str) -> bool:
    if expected == actual:
        return True
    try:
        return math.isclose(float(actual), float(expected), rel_tol=RTOL)
    except ValueError:
        return False


def _csv_mismatches(name: str, expected_text: str, actual_text: str) -> list:
    expected = list(csv.reader(io.StringIO(expected_text)))
    actual = list(csv.reader(io.StringIO(actual_text)))
    if actual[0] != expected[0]:
        return [f"{name}: header {actual[0]} != snapshot {expected[0]}"]
    if len(actual) != len(expected):
        return [f"{name}: {len(actual) - 1} rows != snapshot {len(expected) - 1}"]
    mismatches = []
    for row, (expected_row, actual_row) in enumerate(zip(expected[1:], actual[1:]), start=1):
        if len(actual_row) != len(expected_row):
            mismatches.append(f"{name} row {row}: {actual_row} != snapshot {expected_row}")
            continue
        for column, want, got in zip(expected[0], expected_row, actual_row):
            if not _same_cell(want, got):
                mismatches.append(f"{name} row {row} column {column}: {got} != snapshot {want}")
    return mismatches


def _refuse_constant(name: str):
    raise ValueError(f"bare {name} is not JSON")


def _json_mismatches(name: str, json_text: str, csv_text: str) -> list:
    """Each row of a table's JSON against its CSV row: the keys are the
    header, a string or an int equals its cell, a float formats to it at
    12 significant digits, and a non-finite float is the string the CSV
    writes."""
    header, *csv_rows = csv.reader(io.StringIO(csv_text))
    rows = json.loads(json_text, parse_constant=_refuse_constant)
    if len(rows) != len(csv_rows):
        return [f"{name}: {len(rows)} rows != csv {len(csv_rows)}"]
    mismatches = []
    for row, (values, cells) in enumerate(zip(rows, csv_rows), start=1):
        if sorted(values) != sorted(header):
            mismatches.append(f"{name} row {row}: keys {sorted(values)} != header {header}")
            continue
        for column, cell in zip(header, cells):
            value = values[column]
            text = format(value, ".12g") if isinstance(value, float) else str(value)
            if text != cell:
                mismatches.append(f"{name} row {row} column {column}: {value!r} != csv {cell}")
    return mismatches


def _without_versions(text: str) -> dict:
    manifest = json.loads(text)
    manifest.pop("versions")
    return manifest


@pytest.mark.parametrize("snapshot", RUNS)
def test_output_matches_snapshot(snapshot, tmp_path):
    args = cli.build_parser().parse_args(RUNS[snapshot])
    config = load_config(args.config)
    tables = cli.run_command(args.command, config, grid=getattr(args, "grid", False))
    cli.write_outputs(tables, config, tmp_path, "csv")
    snapshot = SNAPSHOTS / snapshot
    names = sorted(path.name for path in snapshot.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    mismatches = []
    for name in names:
        expected, actual = (snapshot / name).read_text(), (tmp_path / name).read_text()
        if name == "manifest.json":
            if _without_versions(actual) != _without_versions(expected):
                mismatches.append(f"{name}: {actual} != snapshot {expected}")
        else:
            mismatches.extend(_csv_mismatches(name, expected, actual))
    for name, table in sorted(tables.items()):
        csv_text = (tmp_path / f"{name}.csv").read_text()
        mismatches.extend(_json_mismatches(f"{name}.json", table.render("json"), csv_text))
    assert not mismatches, "\n".join(mismatches[:20])


def test_a_moved_number_names_its_file_row_and_column():
    snapshot = "check,analytic,status\nmax_distance_mean,95.2380952381,pass\n"
    moved = "check,analytic,status\nmax_distance_mean,95.2380952382,pass\n"
    assert _csv_mismatches("validation.csv", snapshot, moved) == [
        "validation.csv row 1 column analytic: 95.2380952382 != snapshot 95.2380952381"
    ]
    assert _csv_mismatches("validation.csv", snapshot, snapshot.replace("pass", "fail")) == [
        "validation.csv row 1 column status: fail != snapshot pass"
    ]


def test_a_json_value_that_differs_from_its_csv_cell_is_named():
    csv_text = "check,analytic,status\nmax_distance_mean,95.2380952381,pass\n"
    row = '"analytic": %s, "check": "max_distance_mean", "status": "pass"'
    assert _json_mismatches("validation.json", "[{%s}]" % (row % "95.23809523809524"), csv_text) == []
    assert _json_mismatches("validation.json", "[{%s}]" % (row % "95.2380952382"), csv_text) == [
        "validation.json row 1 column analytic: 95.2380952382 != csv 95.2380952381"
    ]
    with pytest.raises(ValueError, match="bare NaN"):
        _json_mismatches("validation.json", "[{%s}]" % (row % "NaN"), csv_text)
