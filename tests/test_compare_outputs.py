"""The difference report of tools/compare_outputs.py, on made-up files."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from compare_outputs import difference, entries, key_lines, key_results


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
        "no numeric difference; only there: 2 (first row 3 col 0)")


def test_entries_pair_by_where_they_occur():
    # a shorter list shifts every later entry; they are still compared with
    # the entries at the same path, and the extra ones are named as such
    ours = b'{"points": [{"t": 0.5}], "T0": 44.6, "timestamp": ""}'
    theirs = (b'{"points": [{"t": 0.5}, {"t": 1.0}, {"t": 2.0}], '
              b'"T0": 44.7, "timestamp": ""}')
    assert difference("a.json", ours, theirs) == (
        "max abs diff 0.1 at .T0, max rel diff 0.00224 at .T0; "
        "only there: 2 (first .points[1].t)")
    assert difference("a.json", theirs.replace(b"44.7", b"44.6"), ours) == (
        "no numeric difference; only here: 2 (first .points[1].t)")
    assert difference("a.json", b'{"x": 1.0, "y": 2.0}',
                      b'{"y": 2.0, "z": 3.0}') == (
        "no numeric difference; only here: 1 (first .x); "
        "only there: 1 (first .z)")


def test_a_nan_against_a_number_is_a_mismatch():
    assert difference("a.json", b'{"x": NaN, "y": 1.0}',
                      b'{"x": NaN, "y": 2.0}') == (
        "max abs diff 1 at .y, max rel diff 0.5 at .y")
    assert difference("a.json", b'{"x": NaN}', b'{"x": 1.5}') == (
        "no numeric difference; first non-numeric mismatch: .x nan | .x 1.5")


CURVE = (b'{"T0_estimate": 44.6, "levels": [{"T0": 45.0, "classes": 30}, '
         b'{"T0": 44.6, "classes": 126}], "points": [{"t": 0.5, '
         b'"lambda_min": 1.9}], "fold_point": {"t": 44.6, '
         b'"lambda_min": 1e-12}, "diagnostics": {"rejected_steps": 1}}')


def test_key_results_of_a_curve_a_point_and_a_wpcheck_table():
    assert key_results("curve.json", CURVE) == {
        "T0_estimate": 44.6, "levels[0].T0": 45.0, "levels[1].T0": 44.6,
        "fold_point.lambda_min": 1e-12, "diagnostics.rejected_steps": 1.0,
        "points": 1}
    # the work counts of a curve and of a mountain pass are key results too
    counted = (b'{"levels": [{"T0": 45.0, "classes": 30, '
               b'"fold_newton_iterations": 3}], "diagnostics": '
               b'{"rejected_steps": 0, "newton_iterations": 40,'
               b' "final_step": 0.5}}')
    assert key_results("curve.json", counted) == {
        "levels[0].T0": 45.0, "levels[0].fold_newton_iterations": 3.0,
        "diagnostics.rejected_steps": 0.0,
        "diagnostics.newton_iterations": 40.0}
    assert key_results("mpass-0.45.json",
                       b'{"t": 20.1, "lambda_min": -20.4, "u2": [-1.0], '
                       b'"path_iterations": 30, "vnorm_separation": 3.5}'
                       ) == {"lambda_min": -20.4, "path_iterations": 30.0,
                             "vnorm_separation": 3.5}
    assert key_results("wpcheck.csv", b"t,area\n0.0,-1.0\n"
                       b"# fd2,16.02,exact,16.0,rel_err,0.0016\n") == {
        "rel_err": 0.0016}
    assert key_results("frame.json", b'{"max_det_defect": 1e-15}') == {}


def test_key_lines_follow_a_moved_curve():
    # the traced points moved; the fold's results are shown one a line
    theirs = CURVE.replace(b'"t": 0.5', b'"t": 0.7').replace(
        b'"T0_estimate": 44.6', b'"T0_estimate": 44.60000000000001')
    assert key_lines("curve.json", CURVE, theirs.replace(
        b'"lambda_min": 1e-12', b'"lambda_min": -1e-12')) == [
        "  T0_estimate: 44.6 | 44.60000000000001, rel diff 1.59e-16",
        "  diagnostics.rejected_steps: 1.0 | 1.0, rel diff 0",
        "  fold_point.lambda_min: 1e-12 | -1e-12, rel diff 2",
        "  levels[0].T0: 45.0 | 45.0, rel diff 0",
        "  levels[1].T0: 44.6 | 44.6, rel diff 0",
        "  points: 1 | 1"]
    assert "  levels[1].T0: 44.6 | None" in key_lines(
        "curve.json", CURVE,
        CURVE.replace(b', {"T0": 44.6, "classes": 126}', b""))


def test_key_lines_show_the_trace_length():
    # a shorter trace is a key result of its own: its count of points,
    # compared as a whole number
    theirs = CURVE.replace(b'"points": [', b'"points": [{"t": 0.0}, ')
    assert "  points: 1 | 2" in key_lines("curve.json", CURVE, theirs)
    assert "points" not in key_results("mpass.json",
                                       b'{"t": 20.1, "u2": [-1.0]}')
