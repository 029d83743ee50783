"""Continuation of the stable solution branch and fold detection.

The branch starts at the exact point (u, t) = (0, 0) and is continued in the
natural parameter t with the previous solution as warm start.  The step is
halved whenever Newton fails or the smallest eigenvalue of the linearization
drops by more than half in one step; the trace stops when the step underflows
near the fold.  `detect_fold` then refines the fold location T0 by bisection
between the last converged t and a failed t until the smallest eigenvalue is
inside the fold tolerance.

`branch_point` reaches a single t on the same branch by a fixed warm-started
walk from (0, 0) (8 steps, halved on failure) and classifies only the point
it returns; the mountain-pass and frame commands start from it.

The nonexistence threshold is T = (area/2 / integral ||q||^(2/3))^(3/2);
on a hyperbolic surface area/2 = 2 pi (g - 1), and every computed fold must
sit strictly below it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .cubic import CubicDifferential, norm_field
from .pde import (NonConvergence, SingularJacobian, SolutionPoint,
                  newton_solve, solve_u)
from .surface import DiscreteSurface, integrate, laplacian

EPS_FOLD = 1e-4        # |lambda_min| window accepted as the fold point
NO_FOLD_FRACTION = 0.25  # terminal lambda_min above this fraction of the
                         # initial one means the trace never approached a fold


class StallBeforeFold(RuntimeError):
    """Steps shrank to nothing while lambda_min stayed away from zero."""


class NoFoldDetected(RuntimeError):
    """lambda_min is bounded below along the traced range."""


class ZeroCubic(ValueError):
    """The cubic differential vanishes identically."""


@dataclass
class SolutionCurve:
    """Ordered stable-branch points from t = 0 toward the fold."""

    points: list
    surface: DiscreteSurface
    cubic: CubicDifferential
    T0_estimate: float | None = None
    fold_point: SolutionPoint | None = None
    sup_norms: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def ts(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    def lambda_mins(self) -> np.ndarray:
        return np.array([p.lambda_min for p in self.points])


def trace_curve(s: DiscreteSurface, q: CubicDifferential, dt0: float,
                tol: float = 1e-10, max_points: int = 2000) -> SolutionCurve:
    """Natural-parameter continuation from (0, 0) until the step underflows.

    Raises StallBeforeFold if the step collapses while lambda_min is still a
    sizable fraction of its value at t = 0.
    """
    if dt0 <= 0:
        raise ValueError("dt0 must be positive")
    n = s.n_classes
    p0 = newton_solve(np.zeros(n), 0.0, s, q, tol=tol)
    points = [p0]
    sup_norms = [float(np.abs(p0.u).max())]
    rejects = 0

    dt = dt0
    dt_min = dt0 * 1e-4
    while dt >= dt_min and len(points) < max_points:
        prev = points[-1]
        t_next = prev.t + dt
        try:
            p = newton_solve(prev.u, t_next, s, q, tol=tol)
        except (NonConvergence, SingularJacobian):
            rejects += 1
            dt *= 0.5
            continue
        if p.lambda_min <= 0.0 or p.lambda_min < 0.5 * prev.lambda_min:
            # overshot toward or past the fold; retry with a smaller step
            rejects += 1
            dt *= 0.5
            continue
        points.append(p)
        sup_norms.append(float(np.abs(p.u).max()))
        dt = min(1.25 * dt, dt0)

    lam0 = points[0].lambda_min
    lam_end = points[-1].lambda_min
    diagnostics = {"rejected_steps": rejects, "final_step": dt,
                   "n_points": len(points)}
    if len(points) < 3 or lam_end > NO_FOLD_FRACTION * lam0:
        raise StallBeforeFold(
            f"step collapsed at t = {points[-1].t:.6g} with lambda_min = "
            f"{lam_end:.3g} (started at {lam0:.3g}); diagnostics: {diagnostics}")
    return SolutionCurve(points=points, surface=s, cubic=q,
                         sup_norms=sup_norms, diagnostics=diagnostics)


def branch_point(s: DiscreteSurface, q: CubicDifferential, t: float,
                 tol: float = 1e-10) -> SolutionPoint:
    """Stable-branch point at t, walked from (0, 0) in 8 warm-started steps.

    A failed step is halved; the walk raises NonConvergence when the step
    drops below t * 1e-6 (t at or beyond the fold).  Intermediate points
    skip the eigen solve; the returned point carries lambda_min.
    """
    u, _, _ = solve_u(np.zeros(s.n_classes), 0.0, s, q, tol=tol)
    step = t / 8
    tau = 0.0
    while tau < t - 1e-15 * max(1.0, t):
        target = min(t, tau + step)
        try:
            u, _, _ = solve_u(u, target, s, q, tol=tol)
        except (NonConvergence, SingularJacobian):
            step *= 0.5
            if step < t * 1e-6:
                raise NonConvergence(
                    f"branch walk stalled at t = {tau:.6g} before {t}")
            continue
        tau = target
    # already converged at tau (t up to rounding of the step sums): this
    # only classifies the point
    return newton_solve(u, tau, s, q, tol=tol)


def _quadratic_root(ts, lams):
    """Smallest root >= ts[-1] of the quadratic through the last 3 samples."""
    coeffs = np.polyfit(ts, lams, 2)
    roots = np.roots(coeffs)
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-12 * max(1, abs(r))]
    ahead = [r for r in real if r >= ts[-1]]
    return min(ahead) if ahead else None


def detect_fold(curve: SolutionCurve, tol: float = 1e-11,
                eps_fold: float = EPS_FOLD, max_bisect: int = 200) -> float:
    """Locate the fold T0 and refine until |lambda_min| <= eps_fold there.

    Extrapolates lambda_min(t) quadratically to its zero crossing, brackets
    the fold between the last converged t and a t where Newton fails, then
    bisects with warm-started solves.  Sets T0_estimate and fold_point on the
    curve and returns T0.
    """
    pts = curve.points
    if len(pts) < 3:
        raise NoFoldDetected("need at least 3 points to detect a fold")
    lam0 = pts[0].lambda_min
    lams = curve.lambda_mins()
    ts = curve.ts()
    if lams[-1] > NO_FOLD_FRACTION * lam0:
        raise NoFoldDetected(
            f"lambda_min stays above {NO_FOLD_FRACTION:.2f} of its initial "
            f"value ({lams[-1]:.3g} vs {lam0:.3g}) on the traced range")
    if not (lams[-1] < lams[-2] < lams[-3]):
        raise NoFoldDetected("terminal lambda_min is not decreasing")

    s, q = curve.surface, curve.cubic
    lo_point = pts[-1]
    lo = lo_point.t
    guess = _quadratic_root(ts[-3:], lams[-3:])
    last_dt = max(ts[-1] - ts[-2], 1e-12 * max(1.0, lo))
    hi = guess if guess is not None and guess > lo else lo + 10.0 * last_dt
    hi = max(hi, lo + 4.0 * last_dt)

    def try_solve(t, u_start):
        try:
            p = newton_solve(u_start, t, s, q, tol=tol)
        except (NonConvergence, SingularJacobian):
            return None
        return p if p.lambda_min > 0.0 else None

    # push hi beyond the fold
    for _ in range(80):
        p = try_solve(hi, lo_point.u)
        if p is None:
            break
        lo_point, lo = p, hi
        hi = lo + 2.0 * (hi - ts[-1] if hi > ts[-1] else last_dt)
    else:
        raise NoFoldDetected("no Newton failure found beyond the traced range")

    for _ in range(max_bisect):
        if lo_point.lambda_min <= eps_fold:
            break
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        p = try_solve(mid, lo_point.u)
        if p is None:
            hi = mid
        else:
            lo_point, lo = p, mid

    curve.T0_estimate = float(lo)
    curve.fold_point = lo_point
    curve.diagnostics["fold_lambda_min"] = lo_point.lambda_min
    curve.diagnostics["fold_bracket"] = (float(lo), float(hi))
    return float(lo)


def nonexistence_bound(s: DiscreteSurface, q: CubicDifferential) -> float:
    """Upper bound T beyond which the structure equation has no solution."""
    nq = norm_field(q)
    denom = integrate(s, nq ** (2.0 / 3.0))
    if denom <= 0.0:
        raise ZeroCubic("integral of ||q||^(2/3) vanishes")
    return (0.5 * s.area / denom) ** 1.5


def write_curve_csv(curve: SolutionCurve, path: str,
                    comment: str | None = None) -> None:
    """Curve table: t, lambda_min, residual_norm, u_min, u_max, area_induced."""
    m = laplacian(curve.surface).mass_diag
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        w = csv.writer(fh)
        w.writerow(["t", "lambda_min", "residual_norm", "u_min", "u_max",
                    "area_induced"])
        for p in curve.points:
            w.writerow([repr(float(x)) for x in
                        (p.t, p.lambda_min, p.residual_norm, p.u.min(),
                         p.u.max(), float(m @ np.exp(p.u)))])


def curve_to_json(curve: SolutionCurve) -> dict:
    return {
        "points": [p.to_json() for p in curve.points],
        "T0_estimate": None if curve.T0_estimate is None else float(curve.T0_estimate),
        "fold_point": None if curve.fold_point is None else curve.fold_point.to_json(),
        "sup_norms": [float(v) for v in curve.sup_norms],
        "diagnostics": {k: v for k, v in curve.diagnostics.items()},
    }
