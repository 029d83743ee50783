"""The difference report of tools/compare_outputs.py, on made-up files."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from compare_outputs import difference, entries


def test_json_entries_are_numbers_or_values():
    assert entries("a.json", b'{"T0": 1, "u": [0.5, -2e-3], "s": true}') == [
        (".T0", 1.0), (".u[0]", 0.5), (".u[1]", -2e-3), (".s", True)]


def test_json_report_gives_largest_differences_and_first_mismatch():
    ours = b'{"T0": 44.6, "u": [-1.0, 2e-5], "kind": "fold", "n": 3}'
    theirs = b'{"T0": 44.6, "u": [-1.5, 4e-5], "kind": "pass", "n": 3}'
    assert difference("a.json", ours, theirs) == (
        "max abs diff 0.5 at .u[0], max rel diff 0.5 at .u[1]; "
        "first non-numeric mismatch: .kind 'fold' | .kind 'pass'")


def test_csv_report_reads_cells_and_counts_entries():
    ours = b"# hash=1\nt,area\n0.1,2.0\n"
    assert difference("w.csv", ours, b"# hash=1\nt,area\n0.1,2.5\n") == (
        "max abs diff 0.5 at row 2 col 1, max rel diff 0.2 at row 2 col 1")
    assert difference("w.csv", ours, ours + b"0.2,3.0\n") == (
        "no numeric difference; first non-numeric mismatch: "
        "5 entries here, 7 there")


def test_a_nan_against_a_number_is_a_mismatch():
    assert difference("a.json", b'{"x": NaN, "y": 1.0}',
                      b'{"x": NaN, "y": 2.0}') == (
        "max abs diff 1 at .y, max rel diff 0.5 at .y")
    assert difference("a.json", b'{"x": NaN}', b'{"x": 1.5}') == (
        "no numeric difference; first non-numeric mismatch: .x nan | .x 1.5")
