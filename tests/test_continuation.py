import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from minlag import continuation, pde, surface
from minlag.cli import EXIT_NUMERICAL, main
from minlag.continuation import (EPS_FOLD, NoFoldDetected, StallBeforeFold,
                                 ZeroCubic, branch_point, detect_fold,
                                 fold_step, nested_cubics, nonexistence_bound,
                                 trace_curve)
from minlag.cubic import (CubicDifferential, constant_cubic, norm_field,
                          synthetic_cubic, wp_pairing)
from minlag.pde import (EigenFailure, NonConvergence, SingularJacobian,
                        linearize, newton_solve, residual, smallest_eigenvalue,
                        solve_u)
from minlag.surface import build_genus2_octagon, integrate
from minlag.wp import udotdot

from conftest import octagon_zero_classes
from reference import assembled_operator, moore_spence_jacobian
from scalar_oracle import U_FOLD, fold_t, scalar_roots


@pytest.fixture(scope="module")
def torus_curve(torus16, unit_cubic):
    return trace_curve(unit_cubic, tol=1e-11)


@pytest.fixture(scope="module")
def torus_fold(torus_curve):
    return detect_fold(torus_curve)[0]


@pytest.fixture(scope="module")
def octagon_curve(octagon2, octagon2_cubic):
    return trace_curve(octagon2_cubic, tol=1e-10)


@pytest.fixture(scope="module")
def octagon_fold(octagon_curve):
    return detect_fold(octagon_curve)[0]


def lambda_mins(curve):
    return np.array([p.lambda_min for p in curve.points])


def test_curve_starts_at_origin(torus_curve):
    p0 = torus_curve.points[0]
    assert p0.t == 0.0
    assert np.all(p0.u == 0.0)


def test_curve_monotone_t_and_stable(torus_curve, octagon_curve):
    for curve in (torus_curve, octagon_curve):
        ts = [p.t for p in curve.points]
        assert np.all(np.diff(ts) > 0.0)
        assert np.all(lambda_mins(curve) > 0.0)


def test_fold_location_constant_data(torus_fold):
    assert torus_fold.t == pytest.approx(fold_t(1.0), rel=1e-11)
    assert abs(torus_fold.lambda_min) <= 1e-9
    assert np.abs(torus_fold.u - U_FOLD).max() <= 1e-9


def test_fold_scaling_in_c(torus16):
    q2 = constant_cubic(torus16, 2.0)
    curve = trace_curve(q2, tol=1e-11)
    fold, _ = detect_fold(curve)
    assert fold.t == pytest.approx(fold_t(2.0), rel=1e-11)


def test_octagon_fold(octagon_curve, octagon_fold):
    assert octagon_fold.t > octagon_curve.points[-1].t
    assert abs(octagon_fold.lambda_min) <= 1e-9
    assert max(p.u.max() for p in octagon_curve.points) <= 1e-8


def test_sup_norm_monitor(torus_curve):
    sup_norms = [float(np.abs(p.u).max()) for p in torus_curve.points]
    assert np.isfinite(max(sup_norms))
    # on constant data the largest |u| along the branch is at the fold
    assert max(sup_norms) <= abs(U_FOLD) + 1e-3
    assert sup_norms == sorted(sup_norms)


def test_lambda_decreasing_near_fold(torus_curve, torus_fold,
                                     octagon_curve, octagon_fold):
    # lambda_min falls at every traced point, and the last point, the first
    # from which the fold solve may start, lies within 1% of the fold
    for curve, fold in ((torus_curve, torus_fold),
                        (octagon_curve, octagon_fold)):
        lams = lambda_mins(curve)
        assert np.all(np.diff(lams) < 0.0)
        assert 0.99 * fold.t < curve.points[-1].t < fold.t


def test_truncated_curve_has_no_fold(torus_curve, torus_fold):
    # a curve that ends at half the fold, where lambda_min is still high
    p0 = torus_curve.points[0]
    half = newton_solve(p0.u, 0.5 * torus_fold.t, torus_curve.cubic, tol=1e-11)
    trunc = dataclasses.replace(torus_curve, points=[p0, half])
    with pytest.raises(NoFoldDetected):
        detect_fold(trunc)


def test_short_curve_rejected(torus_curve):
    trunc = dataclasses.replace(torus_curve, points=torus_curve.points[:1])
    with pytest.raises(NoFoldDetected):
        detect_fold(trunc)


def moore_spence_field(q, x, m_phi0):
    """M times `detect_fold`'s field:
    -M F(u, t), L(u, t) phi, <M phi0, phi> - 1."""
    n, m = q.surface.n_classes, q.surface.mass_diag
    u, phi, t = x[:n], x[n:-1], x[-1]
    return np.concatenate([-m * residual(u, t, q),
                           assembled_operator(q.surface,
                                              linearize(u, t, q)) @ phi,
                           [m_phi0 @ phi - 1.0]])


def fold_states(curve, fold):
    """(x, M phi0) at the trace's last point and at the solved fold, phi the
    M-normalized smallest eigenvector at each and phi0 the last point's."""
    q = curve.cubic
    states = []
    for p in (curve.points[-1], fold):
        states.append(np.concatenate([p.u, p.eigenvector, [p.t]]))
    m_phi0 = q.surface.mass_diag * states[0][q.surface.n_classes:-1]
    return [(x, m_phi0) for x in states]


@pytest.mark.parametrize("name", ["torus_curve", "octagon_curve"])
def test_fold_solve_reuses_the_traced_eigenvector(name, request):
    # detect_fold starts from the eigenvector the last point's newton_solve
    # kept: bitwise the one a fresh eigen solve there gives, so T0 is that
    # of a fold solve started from the fresh one
    curve = request.getfixturevalue(name)
    fold = request.getfixturevalue(name.replace("curve", "fold"))
    p, q = curve.points[-1], curve.cubic
    _, phi = smallest_eigenvalue(q.surface, linearize(p.u, p.t, q))
    assert p.eigenvector.tobytes() == phi.tobytes()
    fresh = dataclasses.replace(
        curve,
        points=[*curve.points[:-1], dataclasses.replace(p, eigenvector=phi)])
    assert detect_fold(fresh)[0].t == fold.t


def test_detect_fold_leaves_the_curve_unchanged(unit_cubic):
    # the fold point and the level table are returned, not stored: the
    # curve keeps its points, their fields and its diagnostics
    qs = nested_cubics(unit_cubic)
    curve = trace_curve(qs[0], tol=1e-11)
    points, diagnostics = list(curve.points), dict(curve.diagnostics)
    fields = [(p.u.copy(), p.eigenvector.copy(), dict(p.meta))
              for p in points]
    fold, levels = detect_fold(curve, qs[1:], tol=1e-11)
    assert fold.t == levels[-1]["T0"]
    assert curve.diagnostics == diagnostics
    assert len(curve.points) == len(points)
    assert all(a is b for a, b in zip(curve.points, points))
    for p, (u, phi, meta) in zip(curve.points, fields):
        assert p.u.tobytes() == u.tobytes()
        assert p.eigenvector.tobytes() == phi.tobytes()
        assert p.meta == meta


def test_moore_spence_reference_matches_finite_differences(torus_curve,
                                                           torus_fold):
    q = torus_curve.cubic
    rng = np.random.default_rng(4)
    for x, m_phi0 in fold_states(torus_curve, torus_fold):
        J = moore_spence_jacobian(q, x, m_phi0)
        for _ in range(3):
            v = rng.normal(size=x.size)
            h = 1e-6
            fd = (moore_spence_field(q, x + h * v, m_phi0)
                  - moore_spence_field(q, x - h * v, m_phi0)) / (2.0 * h)
            assert np.linalg.norm(J @ v - fd) <= 1e-6 * np.linalg.norm(fd)


def test_fold_step_matches_dense_solve(torus_curve, torus_fold):
    # at the last traced point and at the fold itself, where L is singular
    # to solver tolerance and plain block elimination loses digits
    q = torus_curve.cubic
    assert abs(torus_fold.lambda_min) <= 1e-6
    rng = np.random.default_rng(8)
    for x, m_phi0 in fold_states(torus_curve, torus_fold):
        rhs = rng.normal(size=x.size)
        step = fold_step(q, m_phi0)(x, rhs)
        ref = np.linalg.solve(moore_spence_jacobian(q, x, m_phi0), rhs)
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


def test_fold_step_zero_schur_complement_raises(torus_curve, torus_fold):
    # a border row orthogonal to everything: the bordered matrix is singular
    q = torus_curve.cubic
    x, m_phi0 = fold_states(torus_curve, torus_fold)[0]
    step = fold_step(q, np.zeros_like(m_phi0))
    with pytest.raises(SingularJacobian, match="Schur"):
        step(x, np.ones(x.size))


def test_fold_solve_failure_raises(torus_curve, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise NonConvergence("forced failure")

    monkeypatch.setattr(continuation, "damped_newton", fail)
    with pytest.raises(NoFoldDetected):
        detect_fold(torus_curve)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "backend": {"type": "torus", "n": 16, "side": 1.0, "lambda0": 1.0},
        "cubic": {"constant": [1.0, 0.0]}}))
    code = main(["continue", str(cfg), "-o", str(tmp_path / "curve")])
    assert code == EXIT_NUMERICAL
    assert not (tmp_path / "curve.json").exists()


def test_fold_solve_behind_the_curve_raises(torus_curve, monkeypatch):
    # a coarse fold solve that ends at or before the last traced t
    t_last = torus_curve.points[-1].t

    def behind(q, u, phi, t, tol):
        return u, phi, t_last, 1

    monkeypatch.setattr(continuation, "solve_fold", behind)
    with pytest.raises(NoFoldDetected, match=r"level 1 of 1 .* not a fold "
                       r"beyond t = "):
        detect_fold(torus_curve)


def test_fold_classification_failure_raises(torus_curve, monkeypatch):
    # a failed solve and a failed classification (on the torus, a null
    # vector that is not positive) both reject the fold
    for error in (NonConvergence, EigenFailure):
        def fail(u, t, q, tol, positive):
            raise error("forced failure")

        monkeypatch.setattr(continuation, "newton_solve", fail)
        with pytest.raises(NoFoldDetected, match=r"^fold classification "
                           r"failed on level 1 of 1 \(256 classes\): "
                           r"forced failure$"):
            detect_fold(torus_curve)


def off_the_fold(lam, bounds):
    """A `newton_solve` whose point has lambda_min `lam` and, unless
    `bounds` is None, the enclosure `bounds`; with None it is classified as
    by an eigen solve, with no enclosure."""
    def solve(u, t, q, tol, positive):
        p = newton_solve(u, t, q, tol=tol, positive=positive)
        meta = {"newton_iterations": p.meta["newton_iterations"]}
        if bounds is not None:
            meta["lambda_bounds"] = bounds
        return dataclasses.replace(p, lambda_min=lam, meta=meta)
    return solve


def test_fold_off_the_fold_raises(torus_curve, monkeypatch):
    # a classification whose lambda_min is far from 0 rejects the fold
    monkeypatch.setattr(continuation, "newton_solve",
                        off_the_fold(10.0 * EPS_FOLD, None))
    with pytest.raises(NoFoldDetected, match=r"with lambda_min = 0\.001, "
                       r"not a fold$"):
        detect_fold(torus_curve)


@pytest.mark.parametrize("bounds, within", [
    ([0.5 * EPS_FOLD, 2.0 * EPS_FOLD], r"\[5e-05, 0\.0002\]"),
    ([-2.0 * EPS_FOLD, 0.0], r"\[-0\.0002, 0\]")])
def test_fold_enclosure_past_eps_raises(torus_curve, monkeypatch, bounds,
                                        within):
    # on a Z-matrix the enclosure decides: lambda_min within EPS_FOLD of 0
    # is refused when either end of its enclosure lies past EPS_FOLD
    monkeypatch.setattr(continuation, "newton_solve",
                        off_the_fold(0.5 * EPS_FOLD, bounds))
    with pytest.raises(NoFoldDetected, match=r"with lambda_min = 5e-05 in "
                       + within + ", not a fold$"):
        detect_fold(torus_curve)


def trace_to_underflow(curve, step, tol):
    """Continue `curve` from its last point in steps of at most `step`,
    starting at `step`, until the step falls below 1e-4 `step`."""
    q = curve.cubic
    points = list(curve.points)
    dt = step
    while dt >= step * 1e-4:
        prev = points[-1]
        try:
            p = newton_solve(prev.u, prev.t + dt, q, tol=tol)
        except (NonConvergence, SingularJacobian):
            dt *= 0.5
            continue
        if p.lambda_min <= 0.0 or p.lambda_min < 0.5 * prev.lambda_min:
            dt *= 0.5
            continue
        points.append(p)
        dt = min(1.25 * dt, step)
    return dataclasses.replace(curve, points=points, diagnostics={})


def test_trace_stops_at_fold_entry(torus_curve, torus_fold):
    can_start = continuation._fold_solve_can_start
    pts = torus_curve.points
    assert can_start(pts)
    assert not any(can_start(pts[:k]) for k in range(1, len(pts)))
    assert sorted(torus_curve.diagnostics) == [
        "newton_iterations", "rejected_steps"]
    assert torus_curve.diagnostics["newton_iterations"] == sum(
        p.meta["newton_iterations"] for p in pts)

    crept = trace_to_underflow(torus_curve, 0.01, tol=1e-11)
    assert len(crept.points) > len(pts)
    assert detect_fold(crept)[0].t == pytest.approx(torus_fold.t, rel=1e-11)


def test_step_growth_thins_the_octagon_curve(octagon_curve, octagon_fold):
    # dense reference: the same walk from (0, 0) with every step capped at 0.5
    origin = dataclasses.replace(octagon_curve,
                                 points=octagon_curve.points[:1])
    dense = trace_to_underflow(origin, 0.5, tol=1e-10)
    ts = np.array([p.t for p in dense.points])
    assert np.diff(ts).max() <= 0.5
    t_last = octagon_curve.points[-1].t
    assert len(octagon_curve.points) < np.count_nonzero(ts <= t_last)
    assert detect_fold(dense)[0].t == pytest.approx(octagon_fold.t,
                                                    rel=1e-11)


# amplitude of the benchmark's seed-7 variant
SEED7_AMPLITUDE = float(np.exp(np.random.default_rng(7).uniform(-0.2, 0.2)))

# (surface, size, amplitude): the torus at n = 16 and 32 with constant q,
# and octagon refinements 1 to 3 with the benchmark's zeros
TWO_POINT = [("torus", n, a) for n in (16, 32)
             for a in (1.0, math.exp(-0.2), math.exp(0.2))] + [
    ("octagon", r, a) for r in (1, 2, 3) for a in (1.0, SEED7_AMPLITUDE)]


@pytest.mark.parametrize("kind, size, amplitude", TWO_POINT,
                         ids=[f"{k}{n}-a{a:.4f}" for k, n, a in TWO_POINT])
def test_trace_is_two_points_short_of_the_fold(kind, size, amplitude):
    # from t = 0 the one step goes FOLD_STEP_FRACTION of the way to the
    # series estimate of the fold, and lands on the branch short of the
    # fold at a point the fold solve starts from
    if kind == "torus":
        q = constant_cubic(surface.build_flat_torus(size, 1.0, 1.0), amplitude)
    else:
        s = build_genus2_octagon(size)
        q = synthetic_cubic(s, octagon_zero_classes(s), amplitude)
    curve = trace_curve(q, tol=1e-10)
    series = continuation.branch_series(q)
    t = [p.t for p in curve.points]
    assert len(t) == 2 and curve.diagnostics["rejected_steps"] == 0
    assert t[1] == continuation.FOLD_STEP_FRACTION * min(series.t0,
                                                         series.bound)
    assert t[1] < detect_fold(curve, tol=1e-10)[0].t


@pytest.mark.parametrize("name, step", [("unit_cubic", 0.01),
                                        ("octagon2_cubic", 0.5)])
def test_fold_cap_keeps_the_dense_fold(name, step, request):
    # dense reference: the walk from (0, 0) with every step capped at
    # `step`, halved after a lambda_min drop of more than half, up to
    # underflow
    curve = trace_curve(request.getfixturevalue(name), tol=1e-11)
    origin = dataclasses.replace(curve, points=curve.points[:1])
    dense = trace_to_underflow(origin, step, tol=1e-11)
    assert detect_fold(curve)[0].t == pytest.approx(detect_fold(dense)[0].t,
                                                    rel=1e-11)


def test_first_step_is_capped_by_the_bound(unit_cubic, monkeypatch):
    # no solution exists past T = 0.354, so a series estimate past T aims at
    # T instead: the step halves down onto the branch, and the fold is the
    # oracle's still
    series = continuation.branch_series(unit_cubic)
    monkeypatch.setattr(continuation, "branch_series", lambda q: (
        dataclasses.replace(series, t0=10.0 * series.bound)))
    curve = trace_curve(unit_cubic, tol=1e-11)
    ratio = curve.points[1].t / (continuation.FOLD_STEP_FRACTION
                                 * series.bound)
    j = round(-math.log2(ratio))
    assert j >= 1 and ratio == pytest.approx(0.5 ** j, rel=1e-12)
    assert curve.diagnostics["rejected_steps"] >= j
    assert detect_fold(curve)[0].t == pytest.approx(fold_t(1.0), rel=1e-11)


def test_trace_of_zero_cubic_raises_at_once(torus16):
    # q = 0 has no fold and no bound: the trace refuses it before any solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroCubic):
            trace_curve(constant_cubic(torus16, 0.0))


@pytest.mark.parametrize("name", ["unit_cubic", "octagon2_cubic"])
def test_short_fold_estimate_stalls(name, monkeypatch, request):
    # a series estimate 10% short of the fold leaves the trace where the
    # fold solve cannot start: each step closes the gap to that aim by a
    # factor of 200, and the trace stops at the first step below 1e-4 of
    # the aim, naming it, and returns no fold
    q = request.getfixturevalue(name)
    series = continuation.branch_series(q)
    aim = 0.9 * series.t0
    monkeypatch.setattr(continuation, "branch_series", lambda q: (
        dataclasses.replace(series, t0=aim)))
    solved = []

    def recording_solve(u0, t, q, tol, **kwargs):
        solved.append(t)
        return newton_solve(u0, t, q, tol=tol, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", recording_solve)
    with pytest.raises(StallBeforeFold, match=f"3 points, 0 rejected steps, "
                       f".* estimated fold t = {aim:.6g}$"):
        trace_curve(q, tol=1e-10)
    # the step that stalls falls below the floor, the last accepted did not
    t = np.array(solved)
    assert len(t) == 3
    assert continuation.FOLD_STEP_FRACTION * (aim - t[-1]) < 1e-4 * aim \
        < t[-1] - t[-2]


def test_series_matches_the_wp_identity_and_udotdot(unit_cubic,
                                                    octagon2_cubic):
    # the first coefficient is the branch's second t-derivative at 0 over
    # 2 T^2, so A_1, the s-derivative of the area -integral e^u at 0, is
    # half the second variation 16 <q, q>, and 2 U_1 / T^2 is udotdot
    for q in (unit_cubic, octagon2_cubic):
        series = continuation.branch_series(q)
        u1 = series.coefficients[1] / series.bound ** 2
        a1 = -(q.surface.mass_diag @ u1)
        exact = 8.0 * wp_pairing(q, q).real
        assert abs(a1 - exact) <= 1e-12 * exact
        udd = udotdot(q)
        assert np.abs(2.0 * u1 - udd).max() <= 1e-12 * np.abs(udd).max()


def test_summed_series_is_the_branch(octagon2_cubic):
    # at half the fold the terms fall as 4^-n, so the summed series is the
    # stable point that branch_point solves for
    series = continuation.branch_series(octagon2_cubic)
    t = 0.5 * series.t0
    sigma = (t / series.bound) ** 2
    u = sigma ** np.arange(len(series.coefficients)) @ series.coefficients
    assert np.abs(u - branch_point(octagon2_cubic, t, tol=1e-12)).max() \
        <= 1e-10


@pytest.mark.parametrize("amplitude", [1.0, math.e, 1.0 / math.e],
                         ids=["a1", "e", "1/e"])
def test_series_fold_matches_the_traced_fold(amplitude, torus16):
    # the series estimate lies within 1e-3 of the Moore-Spence fold of the
    # level it is computed on: the oracle 1/(c sqrt(54)) on the torus, and
    # the traced fold on octagon refinements 1 to 3
    t0 = continuation.branch_series(constant_cubic(torus16, amplitude)).t0
    assert t0 == pytest.approx(fold_t(amplitude), rel=1e-3)
    for r in (1, 2, 3):
        s = build_genus2_octagon(r)
        q = synthetic_cubic(s, octagon_zero_classes(s), amplitude)
        fold = detect_fold(trace_curve(q, tol=1e-10),
                           tol=1e-10)[0]
        assert continuation.branch_series(q).t0 == pytest.approx(
            fold.t, rel=1e-3)


def test_nonexistence_bound_torus(torus16, unit_cubic, torus_fold):
    bound = nonexistence_bound(unit_cubic)
    assert bound == pytest.approx(0.5 ** 1.5, rel=1e-12)
    assert torus_fold.t < bound - 1e-6


def test_nonexistence_bound_octagon(octagon2, octagon2_cubic, octagon_fold):
    bound = nonexistence_bound(octagon2_cubic)
    denom = integrate(octagon2, norm_field(octagon2_cubic) ** (2.0 / 3.0))
    assert bound == pytest.approx((0.5 * octagon2.area / denom) ** 1.5,
                                  rel=1e-12)
    assert octagon_fold.t < bound - 1e-6


def test_nonexistence_bound_homogeneity(octagon2, octagon2_cubic):
    scaled = dataclasses.replace(octagon2_cubic,
                                 values=8.0 * octagon2_cubic.values)
    assert nonexistence_bound(scaled) == pytest.approx(
        nonexistence_bound(octagon2_cubic) / 8.0, rel=1e-12)


def test_zero_cubic_rejected(torus16):
    with pytest.raises(ZeroCubic):
        nonexistence_bound(constant_cubic(torus16, 0.0))


def test_branch_point_is_one_cold_solve(torus16, unit_cubic, monkeypatch):
    calls = []

    def recording_solve_u(u0, t, *args, **kwargs):
        calls.append((np.array(u0), t))
        return solve_u(u0, t, *args, **kwargs)

    monkeypatch.setattr(continuation, "solve_u", recording_solve_u)
    u = branch_point(unit_cubic, 0.1, tol=1e-11)
    assert len(calls) == 1
    u0, t = calls[0]
    assert t == 0.1 and u.shape == u0.shape == (torus16.n_classes,)
    assert np.all(u0 == 0.0)


def test_branch_point_matches_trace(torus_curve, octagon_curve):
    # the traced points are warm-started along t; branch_point solves from
    # u = 0 at each t alone and must land on the same stable point
    for curve, tol in ((torus_curve, 1e-11), (octagon_curve, 1e-10)):
        q = curve.cubic
        m = q.surface.mass_diag
        for p in curve.points:
            u = branch_point(q, p.t, tol=tol)
            lam, _ = smallest_eigenvalue(q.surface, linearize(u, p.t, q))
            assert lam > 0.0
            assert np.sqrt(m @ residual(u, p.t, q) ** 2) <= tol
            assert np.abs(u - p.u).max() <= 1e-9
            assert lam == pytest.approx(p.lambda_min, abs=1e-9)


def test_branch_point_near_fold_is_upper_root(torus16, unit_cubic):
    t = 0.9999 * fold_t(1.0)
    u = branch_point(unit_cubic, t, tol=1e-11)
    _, upper = scalar_roots(16.0 * t * t)
    lam, _ = smallest_eigenvalue(torus16, linearize(u, t, unit_cubic))
    assert lam > 0.0
    assert np.abs(u - upper).max() <= 1e-8


def test_branch_point_beyond_fold_raises(torus16, unit_cubic):
    assert 0.15 > 1.0 / math.sqrt(54.0)
    with pytest.raises(NonConvergence, match="fold") as err:
        branch_point(unit_cubic, 0.15)
    # the failure carries the count of its Newton solve, two iterations
    with pytest.raises(NonConvergence) as inner:
        solve_u(np.zeros(torus16.n_classes), 0.15, unit_cubic)
    assert err.value.iterations == inner.value.iterations == 2


def nested_fold(q, tol):
    """continue's fold: trace the coarsest level, then refine level by level.
    Returns the fold point, the level table and the curve."""
    qs = nested_cubics(q)
    curve = trace_curve(qs[0], tol=tol)
    return (*detect_fold(curve, qs[1:], tol=tol), curve)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("amplitude", [1.0, SEED7_AMPLITUDE],
                         ids=["a1", "seed7"])
def test_nested_fold_matches_single_level(r, amplitude):
    s = build_genus2_octagon(r)
    q = synthetic_cubic(s, octagon_zero_classes(s), amplitude)
    single = trace_curve(q, tol=1e-10)
    t_single = detect_fold(single, tol=1e-10)[0].t
    fold, levels, curve = nested_fold(q, 1e-10)
    assert fold.t == pytest.approx(t_single, rel=1e-12)
    assert abs(fold.lambda_min) <= EPS_FOLD
    # the trace ran on refinement 1, the fold on every level up to r
    assert curve.cubic.surface.n_classes == 30
    assert [lv["classes"] for lv in levels] == [30, 126, 510][:r]
    assert levels[-1]["T0"] == fold.t
    assert fold.u.shape == (s.n_classes,)


def test_nested_fold_torus_matches_oracle(torus16, unit_cubic):
    fold, levels, _ = nested_fold(unit_cubic, 1e-11)
    assert fold.t == pytest.approx(1.0 / math.sqrt(54.0), rel=1e-12)
    assert [lv["classes"] for lv in levels] == [16, 64, 256]
    # constant q gives a constant u, so the prolonged fold is already solved
    assert [lv["fold_newton_iterations"] for lv in levels][1:] == [0, 0]


def cubic_with_norm_sq(s, target):
    """A cubic on s with ||q||^2 = target per class: real class values
    sqrt(target) lambda^(3/2), broadcast to the chart vertices."""
    c = np.sqrt(target) * s.lambda_classes() ** 1.5
    return CubicDifferential(values=c[s.class_of], surface=s)


@pytest.mark.parametrize("name", ["torus16", "octagon2"])
def test_fold_gradient_in_q_matches_central_differences(name,
                                                        unit_cubic,
                                                        octagon2_cubic):
    # L is self-adjoint at the fold, so phi is also its left null vector:
    # scaling ||q||^2 by (1 + eps delta) moves T0 at the rate
    # -(T0 / 2) <phi, ||q||^2 delta e^{-2u}>_M / <phi, ||q||^2 e^{-2u}>_M.
    # delta = 1 gives T0 (1 + eps)^(-1/2), the scaling law, whose central
    # difference is off by O(eps^2) = 6e-9
    q = unit_cubic if name == "torus16" else octagon2_cubic
    tol, eps = 1e-11, 1e-4
    fold = nested_fold(q, tol)[0]
    w = q.surface.mass_diag * fold.eigenvector * q.norm_sq \
        * np.exp(-2.0 * fold.u)
    rng = np.random.default_rng(14)
    for delta in (np.ones(q.surface.n_classes),
                  rng.standard_normal(q.surface.n_classes)):
        rate = -0.5 * fold.t * (w @ delta) / w.sum()
        t_up, t_down = (nested_fold(cubic_with_norm_sq(
            q.surface, q.norm_sq * (1.0 + e * delta)), tol)[0].t
            for e in (eps, -eps))
        assert (t_up - t_down) / (2.0 * eps) == pytest.approx(rate, rel=1e-7)


def test_nested_cubics_builds_the_octagon_once(monkeypatch):
    # the coarser levels are slices of the user's one build
    calls = []
    build = surface.build_genus2_octagon

    def counting_build(refinement):
        calls.append(refinement)
        return build(refinement)

    monkeypatch.setattr(surface, "build_genus2_octagon", counting_build)
    s = surface.build_genus2_octagon(3)
    qs = nested_cubics(synthetic_cubic(s, octagon_zero_classes(s), 1.0))
    assert [q.surface.n_classes for q in qs] == [30, 126, 510]
    assert calls == [3]


def test_nested_cubics_sample_the_chart_vertices(octagon2_cubic):
    qs = nested_cubics(octagon2_cubic)
    assert [q.surface.n_classes for q in qs] == [30, 126]
    assert qs[-1] is octagon2_cubic
    nv = len(qs[0].surface.vertices)
    assert np.array_equal(qs[0].values, octagon2_cubic.values[:nv])



# the benchmark's seed-7 torus cubic: a constant of seed-chosen modulus and
# phase (bench/workloads.py's Variant)
_SEED7 = np.random.default_rng(7).uniform([-0.2, 0.0], [0.2, 2.0 * math.pi])
SEED7_CONSTANT = complex(np.exp(_SEED7[0]) * np.exp(1j * _SEED7[1]))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("c", [1.0, SEED7_CONSTANT], ids=["seed0", "seed7"])
def test_fold_enclosure_contains_the_eigen_solve(n, c):
    # the torus is a Z-matrix, so the fold is classified by the
    # Collatz-Wielandt enclosure of phi*, which holds the Rayleigh quotient
    # and the smallest eigenvalue an eigen solve finds at the same point.
    # Both carry rounding of order eps ||M^{-1} L||_inf (1.8e-12 at n = 32)
    # at a lambda_min of 3.4e-12: at n = 32, seed 7, ARPACK's value lies
    # 1.4e-13 below the enclosure, so it is held to within that rounding.
    # The constant field's enclosure, free of rounding here (K 1 = 0
    # exactly, and u* is constant), must meet phi*'s
    q = constant_cubic(surface.build_flat_torus(n, 1.0, 1.0), c)
    s = q.surface
    assert s.z_matrix
    fold = nested_fold(q, 1e-10)[0]
    lo, hi = fold.meta["lambda_bounds"]
    p = linearize(fold.u, fold.t, q)
    lam, _ = smallest_eigenvalue(s, p)
    m = s.mass_diag
    slack = np.finfo(float).eps * float(
        (abs(assembled_operator(s, p)).sum(axis=1).A1 / m).max())
    assert lo - slack <= lam <= hi + slack and lo <= fold.lambda_min <= hi
    assert hi - lo <= 1e-9 and -EPS_FOLD <= lo and hi <= EPS_FOLD
    _, _, (lo1, hi1) = pde.collatz_wielandt(s, p, np.ones(s.n_classes))
    assert max(lo, lo1) <= min(hi, hi1)
    assert fold.eigenvector.min() > 0.0
    assert float(m @ fold.eigenvector ** 2) == pytest.approx(1.0, rel=1e-12)


def test_trace_classifies_t0_by_the_constant(torus_curve, octagon_curve):
    # at t = 0, L = K + 2M and K 1 = 0, so the constant's enclosure on the
    # torus is exactly [2, 2]; the octagon is no Z-matrix and its point at
    # t = 0 is an eigen solve's, with no enclosure
    p0 = torus_curve.points[0]
    assert p0.meta["lambda_bounds"] == [2.0, 2.0] and p0.lambda_min == 2.0
    assert np.ptp(p0.eigenvector) == 0.0
    assert "lambda_bounds" not in octagon_curve.points[0].meta
    assert octagon_curve.points[0].lambda_min == pytest.approx(2.0, rel=1e-9)


def test_fold_refuses_a_null_vector_with_a_negative_entry(torus_curve,
                                                          monkeypatch):
    # by Perron-Frobenius the ground state of a Z-matrix is positive, so a
    # phi* with a negative entry is not it: the fold is refused, with no
    # eigen solve to retry
    solve_fold, eigsh = continuation.solve_fold, pde.spla.eigsh
    calls = []

    def negated(*args):
        u, phi, t, it = solve_fold(*args)
        phi = phi.copy()
        phi[7] = -phi[7]
        return u, phi, t, it

    def counting_eigsh(*args, **kwargs):
        calls.append(args)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(continuation, "solve_fold", negated)
    monkeypatch.setattr(pde.spla, "eigsh", counting_eigsh)
    with pytest.raises(NoFoldDetected, match=r"^fold classification failed "
                       r"on level 1 of 1 \(256 classes\): the field is not "
                       r"positive"):
        detect_fold(torus_curve)
    assert calls == []


def test_octagon_fold_makes_one_eigen_solve(octagon_curve, octagon_fold,
                                            monkeypatch):
    # the octagon's K has positive off-diagonal entries, so its fold is
    # classified by one eigen solve, as before, and carries no enclosure
    calls = []
    eigsh = pde.spla.eigsh

    def counting_eigsh(*args, **kwargs):
        calls.append(args)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(pde.spla, "eigsh", counting_eigsh)
    fold = detect_fold(octagon_curve)[0]
    assert len(calls) == 1
    assert "lambda_bounds" not in fold.meta
    assert fold.lambda_min == octagon_fold.lambda_min


NORMAL_FORM_CASES = [("torus", 16), ("octagon", 1), ("octagon", 2),
                     ("octagon", 3)]


@pytest.mark.parametrize("kind, size", NORMAL_FORM_CASES,
                         ids=[f"{k}{n}" for k, n in NORMAL_FORM_CASES])
def test_normal_form_is_quadratic_and_transversal(kind, size):
    # F_uu[phi, phi] = -(2 e^u + 64 t^2 ||q||^2 e^{-2u}) phi^2 and
    # F_t = -32 t ||q||^2 e^{-2u} are negative, so a and b are for phi > 0
    if kind == "torus":
        q = constant_cubic(surface.build_flat_torus(size, 1.0, 1.0), 1.0)
    else:
        s = build_genus2_octagon(size)
        q = synthetic_cubic(s, octagon_zero_classes(s), 1.0)
    fold = nested_fold(q, 1e-10)[0]
    phi, a, b = continuation.normal_form(q, fold)
    assert phi.min() > 0.0
    assert float(q.surface.mass_diag @ phi ** 2) == pytest.approx(1.0,
                                                                  rel=1e-12)
    assert a < 0.0 and b < 0.0


def test_normal_form_closed_form_on_the_unit_torus(torus_fold, unit_cubic):
    # q = 1 on the unit torus: u* is the constant with e^{u*} = 2/3 at
    # T0 = 1/sqrt(54), phi = 1, so a = -(2 e^u + 64 T0^2 e^{-2u}) = -4 and
    # b = -32 T0 e^{-2u} = -4 sqrt(6)
    _, a, b = continuation.normal_form(unit_cubic, torus_fold)
    assert abs(a + 4.0) <= 1e-9
    assert abs(b + 4.0 * math.sqrt(6.0)) <= 1e-9
