"""Every command's output at the defaults, and ``compare`` at a non-default
config, against its committed snapshot.

``tests/snapshots/<command>/`` holds what ``python -m airfed <command>
--out tests/snapshots/<command>`` writes, and
``tests/snapshots/compare-nondefault/`` what ``compare --config
tests/snapshots/nondefault.cfg`` writes: 5 classes, non-IID shards,
i.i.d. mobility, minibatches and alternating scheduling.  A change that
moves an output regenerates the snapshot with that command and records
the change.

Strings and headers must match exactly.  Numbers match at a relative
1e-12: numpy's AVX-512 ``power`` can round differently in the last bit,
so byte equality across hosts is not assured.  The version fields of
``manifest.json`` are left out.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from airfed import cli

SNAPSHOTS = Path(__file__).parent / "snapshots"
COMMANDS = ("tradeoff", "latency", "montecarlo", "extensions", "compare", "train")
# Snapshot directory -> command line.
RUNS = {command: [command] for command in COMMANDS}
RUNS["compare-nondefault"] = ["compare", "--config", str(SNAPSHOTS / "nondefault.cfg")]
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


def _without_versions(text: str) -> dict:
    manifest = json.loads(text)
    manifest.pop("versions")
    return manifest


@pytest.mark.parametrize("snapshot", RUNS)
def test_output_matches_snapshot(snapshot, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*RUNS[snapshot], "--out", str(tmp_path)]) == 0
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
