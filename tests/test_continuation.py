import dataclasses
import json
import math

import numpy as np
import pytest

from minlag import continuation
from minlag.cli import EXIT_NUMERICAL, main
from minlag.continuation import (NoFoldDetected, StallBeforeFold, ZeroCubic,
                                 branch_point, detect_fold, nonexistence_bound,
                                 trace_curve, write_curve_csv)
from minlag.cubic import constant_cubic, norm_field, synthetic_cubic
from minlag.pde import NonConvergence, SingularJacobian, newton_solve
from minlag.surface import integrate

from scalar_oracle import U_FOLD, fold_t


@pytest.fixture(scope="module")
def torus_curve(torus16, unit_cubic):
    curve = trace_curve(torus16, unit_cubic, dt0=0.01, tol=1e-11)
    detect_fold(curve)
    return curve


@pytest.fixture(scope="module")
def octagon_curve(octagon2, octagon2_cubic):
    curve = trace_curve(octagon2, octagon2_cubic, dt0=0.5, tol=1e-10)
    detect_fold(curve)
    return curve


def test_curve_starts_at_origin(torus_curve):
    p0 = torus_curve.points[0]
    assert p0.t == 0.0
    assert np.all(p0.u == 0.0)


def test_curve_monotone_t_and_stable(torus_curve, octagon_curve):
    for curve in (torus_curve, octagon_curve):
        ts = curve.ts()
        assert np.all(np.diff(ts) > 0.0)
        assert np.all(curve.lambda_mins() > 0.0)


def test_fold_location_constant_data(torus_curve):
    assert torus_curve.T0_estimate == pytest.approx(fold_t(1.0), rel=1e-11)
    assert abs(torus_curve.fold_point.lambda_min) <= 1e-9
    assert np.abs(torus_curve.fold_point.u - U_FOLD).max() <= 1e-9


def test_fold_scaling_in_c(torus16):
    q2 = constant_cubic(torus16, 2.0)
    curve = trace_curve(torus16, q2, dt0=0.005, tol=1e-11)
    t0 = detect_fold(curve)
    assert t0 == pytest.approx(fold_t(2.0), rel=1e-11)


def test_octagon_fold(octagon_curve):
    assert octagon_curve.T0_estimate is not None
    assert abs(octagon_curve.fold_point.lambda_min) <= 1e-9
    assert max(p.u.max() for p in octagon_curve.points) <= 1e-8


def test_sup_norm_monitor(torus_curve):
    sup = max(torus_curve.sup_norms)
    assert np.isfinite(sup)
    # on constant data the largest |u| along the branch is at the fold
    assert sup <= abs(U_FOLD) + 1e-3
    assert torus_curve.sup_norms == sorted(torus_curve.sup_norms)


def test_lambda_decreasing_near_fold(torus_curve):
    # empirical monotonicity on the last fifth of the curve: report only
    lams = torus_curve.lambda_mins()
    tail = lams[int(0.8 * len(lams)):]
    drops = np.diff(tail)
    if not np.all(drops < 0.0):
        print(f"note: lambda_min not strictly decreasing on tail: {tail}")
    assert tail[-1] < tail[0]


def test_truncated_curve_has_no_fold(torus_curve):
    t_half = 0.5 * torus_curve.T0_estimate
    pts = [p for p in torus_curve.points if p.t <= t_half]
    trunc = dataclasses.replace(torus_curve, points=pts, T0_estimate=None,
                                fold_point=None)
    with pytest.raises(NoFoldDetected):
        detect_fold(trunc)


def test_short_curve_rejected(torus_curve):
    trunc = dataclasses.replace(torus_curve, points=torus_curve.points[:2],
                                T0_estimate=None, fold_point=None)
    with pytest.raises(NoFoldDetected):
        detect_fold(trunc)


def test_fold_solve_failure_raises(torus_curve, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise NonConvergence("forced failure")

    monkeypatch.setattr(continuation, "damped_newton", fail)
    curve = dataclasses.replace(torus_curve, T0_estimate=None,
                                fold_point=None, diagnostics={})
    with pytest.raises(NoFoldDetected):
        detect_fold(curve)
    assert curve.T0_estimate is None and curve.fold_point is None

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": {"type": "torus", "n": 16, "side": 1.0, "lambda0": 1.0},
        "cubic": {"constant": [1.0, 0.0]}, "dt0": 0.01}))
    code = main(["continue", str(cfg), "-o", str(tmp_path / "curve")])
    assert code == EXIT_NUMERICAL
    assert not (tmp_path / "curve.csv").exists()


def trace_to_underflow(curve, dt0, tol):
    """Continue `curve` with trace_curve's steps until the step underflows."""
    s, q = curve.surface, curve.cubic
    points = list(curve.points)
    dt = curve.diagnostics["final_step"]
    while dt >= dt0 * 1e-4:
        prev = points[-1]
        try:
            p = newton_solve(prev.u, prev.t + dt, s, q, tol=tol)
        except (NonConvergence, SingularJacobian):
            dt *= 0.5
            continue
        if p.lambda_min <= 0.0 or p.lambda_min < 0.5 * prev.lambda_min:
            dt *= 0.5
            continue
        points.append(p)
        dt = min(1.25 * dt, dt0)
    return dataclasses.replace(curve, points=points, T0_estimate=None,
                               fold_point=None, diagnostics={})


def test_trace_stops_at_fold_entry(torus_curve):
    can_start = continuation._fold_solve_can_start
    pts = torus_curve.points
    assert can_start(pts)
    assert not any(can_start(pts[:k]) for k in range(1, len(pts)))
    assert torus_curve.diagnostics["n_points"] == len(pts)

    crept = trace_to_underflow(torus_curve, dt0=0.01, tol=1e-11)
    assert len(crept.points) > len(pts)
    assert detect_fold(crept) == pytest.approx(torus_curve.T0_estimate,
                                               rel=1e-11)


def test_stall_before_fold(torus16, unit_cubic):
    with pytest.raises(StallBeforeFold):
        trace_curve(torus16, unit_cubic, dt0=1e-4, tol=1e-11, max_points=6)


def test_nonexistence_bound_torus(torus16, unit_cubic, torus_curve):
    bound = nonexistence_bound(torus16, unit_cubic)
    assert bound == pytest.approx(0.5 ** 1.5, rel=1e-12)
    assert torus_curve.T0_estimate < bound - 1e-6


def test_nonexistence_bound_octagon(octagon2, octagon2_cubic, octagon_curve):
    bound = nonexistence_bound(octagon2, octagon2_cubic)
    denom = integrate(octagon2, norm_field(octagon2_cubic) ** (2.0 / 3.0))
    assert bound == pytest.approx((0.5 * octagon2.area / denom) ** 1.5,
                                  rel=1e-12)
    assert octagon_curve.T0_estimate < bound - 1e-6


def test_nonexistence_bound_homogeneity(octagon2, octagon2_cubic):
    scaled = dataclasses.replace(octagon2_cubic,
                                 values=8.0 * octagon2_cubic.values)
    assert nonexistence_bound(octagon2, scaled) == pytest.approx(
        nonexistence_bound(octagon2, octagon2_cubic) / 8.0, rel=1e-12)


def test_zero_cubic_rejected(torus16):
    with pytest.raises(ZeroCubic):
        nonexistence_bound(torus16, constant_cubic(torus16, 0.0))


def test_warm_start_consistency(torus16, unit_cubic, torus_curve):
    curve2 = trace_curve(torus16, unit_cubic, dt0=0.005, tol=1e-11)
    t0b = detect_fold(curve2)
    assert t0b == pytest.approx(torus_curve.T0_estimate, rel=1e-11)


def test_curve_csv(tmp_path, torus_curve):
    path = tmp_path / "curve.csv"
    write_curve_csv(torus_curve, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,lambda_min,residual_norm,u_min,u_max,area_induced"
    assert len(lines) == len(torus_curve.points) + 1
    ts = [float(row.split(",")[0]) for row in lines[1:]]
    assert ts == sorted(ts)


def test_branch_point_matches_cold_solve(torus16, unit_cubic):
    p = branch_point(torus16, unit_cubic, 0.1, tol=1e-11)
    cold = newton_solve(np.zeros(torus16.n_classes), 0.1, torus16, unit_cubic,
                        tol=1e-11)
    assert p.t == pytest.approx(0.1, rel=1e-15)
    assert p.stable and p.residual_norm <= 1e-11
    assert np.abs(p.u - cold.u).max() <= 1e-9
    assert p.lambda_min == pytest.approx(cold.lambda_min, abs=1e-9)


def test_branch_point_beyond_fold_raises(torus16, unit_cubic):
    assert 0.15 > 1.0 / math.sqrt(54.0)
    with pytest.raises(NonConvergence):
        branch_point(torus16, unit_cubic, 0.15)
