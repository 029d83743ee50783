"""Reformulated functional with cutoff nonlinearities and mountain-pass search.

The structure equation is recast as -Delta u + V u = f1(u) + V f2(u) with
V = 16 t^2 ||q||^2 (`pde.v_field`) and cutoff functions

    f1(s) = 2 - 2 e^s        (s <= 0),   -theta s^(theta-1)  (s > 1),
    f2(s) = s - e^{-2s}      (s <= 0),   0                   (s > 1),

joined on (0, 1) by quintic blends that match value and first derivative at
both ends, stay negative inside, and integrate to the exact jump of the
closed-form antiderivatives F1, F2 so that F1' = f1 and F2' = f2 globally.
Both equations have the same solution set: any critical point of

    F(u) = 1/2 integral (|grad u|^2 + V u^2) - integral (F1(u) + V F2(u))

with u <= 0 solves the structure equation, and conversely.  The growth
exponent theta > 2 is a device of the existence proof: it gives F the
Ambrosetti-Rabinowitz growth condition.  The cutoffs depend on it only for
s > 0, so every critical point with u <= 0 is a solution whatever theta is,
and it is the constant THETA = 3.  The functional and its gradient take
the cutoffs fused, one kernel (`_pointwise`) over the whole field: on
u <= 0 the V u^2 terms of F cancel, so the s <= 0 closed form costs one
e^u and one e^{-2u} per entry, and only the positive entries are then
overwritten with the blends or the s > 1 branch.  The cutoffs one by one
are needed only by the tests (tests/reference.py), which check the kernel
against them.  The second (mountain-pass) solution at t in (0, T0) is
found by deforming a discrete path from the stable field (which the mpass
command takes from `continuation.branch_point`) to a deep negative
constant, then polishing the path maximum with `pde.solve_u`, Newton on
the structure equation itself.  A mountain-pass critical point
has Morse index at most 1 (Hofer, Proc. AMS 90, 1984), so the polish is
tried only where L has index 1, read from the pivots of its LU.
The point found is classified by `pde.newton_solve`, which returns it with
residual norm at most tol and its smallest eigenpair.
Every function reads the surface from the cubic differential (`q.surface`)
and ||q||^2 from its cache (`q.norm_sq`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.polynomial import polynomial as P

from .cubic import CubicDifferential
from .pde import (TOL_POS, NonConvergence, SolutionPoint, linearize,
                  newton_solve, solve_u, v_field)
from .surface import NumericalFailure

THETA = 3.0           # growth exponent of the cutoffs for s > 1
EPS_UNSTABLE = 1e-4   # mountain-pass points must have lambda_min below this
PATH_NODES = 20       # nodes of the first mountain-pass path
MAX_SWEEPS = 600      # relaxation sweeps per path
POLISH_PERIOD = 5     # a Newton polish at least every this many sweeps


class DegenerateNorm(ValueError):
    """integral V = 0: the V-inner product is not a norm (t = 0 or q = 0)."""


class PathCollapse(NumericalFailure):
    """The deformed path slid back to the stable minimizer."""


class VerificationFailure(NumericalFailure):
    """A computed critical point violates the cutoff-equivalence checks."""


# ---------------------------------------------------------------------------
# cutoff construction


def _hermite_blend(v0, d0, v1, d1, jump, curv0):
    """Quintic on [0,1] matching end values/slopes, a prescribed integral,
    and the left second derivative.

    Returns polynomial coefficients (ascending).  The basis is the cubic
    Hermite interpolant plus a*s^2(1-s)^2 + b*s^2(1-s)^3, both of which keep
    the end values and slopes; integral and curvature constraints fix (a, b).
    """
    h = np.zeros(6)
    h[0] = v0
    h[1] = d0
    h[2] = -3 * v0 - 2 * d0 + 3 * v1 - d1
    h[3] = 2 * v0 + d0 - 2 * v1 + d1
    p4 = np.array([0.0, 0.0, 1.0, -2.0, 1.0, 0.0])        # s^2 (1-s)^2
    p5 = np.array([0.0, 0.0, 1.0, -3.0, 3.0, -1.0])       # s^2 (1-s)^3

    def poly_int01(c):
        return sum(ck / (k + 1) for k, ck in enumerate(c))

    # [integral, f''(0)] conditions on the two free coefficients
    A = np.array([[poly_int01(p4), poly_int01(p5)], [2.0, 2.0]])
    rhs = np.array([jump - poly_int01(h), curv0 - 2.0 * h[2]])
    a, b = np.linalg.solve(A, rhs)
    return h + a * p4 + b * p5


# Each blend is `_hermite_blend` with the curvature of its left branch at 0;
# at THETA = 3 both are negative on (0, 1), which `test_cutoff_sign_conditions`
# checks.  f1 matches 2 - 2e^s at 0 and -THETA s^(THETA-1) at 1; its integral
# over (0,1) must equal F1(1+) - F1(0-) = -1 so that F1' = f1
# distributionally.
_BLEND1 = _hermite_blend(v0=0.0, d0=-2.0, v1=-THETA, d1=-THETA * (THETA - 1.0),
                         jump=-1.0, curv0=-2.0)
# f2 matches s - e^{-2s} at 0 and 0 at 1; integral equals 0 - 1/2.
_BLEND2 = _hermite_blend(v0=-1.0, d0=3.0, v1=0.0, d1=0.0, jump=-0.5,
                         curv0=-4.0)

# The pointwise parts of F's integrand and of its gradient,
#     1/2 V s^2 - F1(s) - V F2(s)   and   V s - f1(s) - V f2(s).
# On s <= 0 their V s^2 and V s terms cancel, leaving
#     -(2s - 2e^s + 2) - 1/2 V e^{-2s}   and   2e^s - 2 + V e^{-2s}.
# On (0, 1] each is A(s) + V B(s), with the (A, B) coefficients below (F1(0)
# = 0 and F2(0) = 1/2 fix the antiderivatives); on s > 1, where F1 = -s^THETA
# and F2 = 0, they are 1/2 V s^2 + s^THETA and V s + THETA s^(THETA-1).
_VALUE_BLEND = (-P.polyint(_BLEND1, k=0.0),
                P.polysub([0.0, 0.0, 0.5], P.polyint(_BLEND2, k=0.5)))
_GRADIENT_BLEND = (-_BLEND1, P.polysub([0.0, 1.0], _BLEND2))


def _horner(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The polynomial with ascending coefficients c at s."""
    out = np.full_like(s, c[-1])
    for ck in c[-2::-1]:
        out *= s
        out += ck
    return out


def _pointwise(U: np.ndarray, V: np.ndarray, gradient: bool) -> np.ndarray:
    """The pointwise part of F's integrand at each entry of U, or with
    `gradient` that of its gradient.

    The s <= 0 closed form is taken over the whole array, with e^s and
    e^{-2s} once per entry, and only the positive entries are then
    overwritten.  A NaN entry is not positive, so it propagates.
    """
    e, e2 = np.exp(U), np.exp(-2.0 * U)
    if gradient:
        out = 2.0 * e - 2.0 + V * e2
    else:
        out = -(2.0 * U - 2.0 * e + 2.0) - 0.5 * V * e2
    pos = U > 0.0
    if pos.any():
        s, v = U[pos], np.broadcast_to(V, U.shape)[pos]
        a, b = _GRADIENT_BLEND if gradient else _VALUE_BLEND
        blend = _horner(a, s) + v * _horner(b, s)
        if gradient:
            top = v * s + THETA * s ** (THETA - 1.0)
        else:
            top = 0.5 * v * s * s + s ** THETA
        out[pos] = np.where(s > 1.0, top, blend)
    return out


# ---------------------------------------------------------------------------
# functional and gradient


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b.

    Over C-contiguous rows each row sums in the order it would alone, so a
    stack's row and the same field alone give the same bits; a strided row
    would sum in another order.
    """
    return np.einsum("ij,ij->i", a, np.ascontiguousarray(b))


def functional_value(u: np.ndarray, t: float, q: CubicDifferential):
    """F(u) = 1/2 integral(|grad u|^2 + V u^2) - integral(F1(u) + V F2(u)).

    A (k, n) stack of fields gives the k values, each bitwise equal to the
    value of its row alone.
    """
    s = q.surface
    U = np.atleast_2d(np.asarray(u, dtype=float))
    m = np.broadcast_to(s.mass_diag, U.shape)
    # overflowing trial fields yield inf/nan, rejected by the line searches
    with np.errstate(over="ignore", invalid="ignore"):
        vals = 0.5 * _row_dots(U, (s.stiffness @ U.T).T) \
            + _row_dots(m, _pointwise(U, v_field(t, q), gradient=False))
    return float(vals[0]) if np.ndim(u) == 1 else vals


def functional_gradient(u: np.ndarray, t: float,
                        q: CubicDifferential) -> np.ndarray:
    """Nodal gradient field g with dF(u)[v] = <g, v>_M."""
    s = q.surface
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return (s.stiffness @ u) / s.mass_diag \
            + _pointwise(u, v_field(t, q), gradient=True)


# ---------------------------------------------------------------------------
# mountain pass


def _negative_endpoint(f_target, t, q):
    """Constant field w with F(w) strictly below f_target; exists because
    F(k) -> -infinity for constants k -> -infinity."""
    n = q.surface.n_classes
    k = -1.0
    while k > -200.0:
        w = np.full(n, k)
        if functional_value(w, t, q) < f_target - 1.0:
            return w
        k *= 2.0
    raise VerificationFailure("no negative constant with low functional value")


def find_mountain_pass(u_stable: np.ndarray, t: float,
                       q: CubicDifferential,
                       tol: float = 1e-10) -> SolutionPoint:
    """Second critical point of F at t, given the stable field u_stable at t.

    Runs a discretized min-max, the path deformation of Choi and McKenna.
    The path is one (nodes, n_classes) array, at first the straight
    PATH_NODES-node path from u_stable to a deep negative constant.  Each
    sweep resamples it at uniform V-arclength with the endpoints fixed,
    takes its interior node of highest F and moves that node by one
    backtracked descent step preconditioned with the V-Gram matrix
    K + M diag(V), which the V-norms apply and the descent factorizes once;
    DegenerateNorm is raised when integral V = 0 (t = 0 or q = 0).  The
    node as it was before the step is then a polish candidate when its
    gradient norm is below 0.1, on every POLISH_PERIOD-th sweep, and when
    the step could not lower F.  A candidate is polished by `pde.solve_u`,
    Newton on the structure equation, only when L there has Morse index 1,
    or one `ShiftedLU.morse_index` cannot read (an off-diagonal pivot).
    The saddle sought has index 1 (Hofer 1984); on the octagons and tori
    measured, every solve started at another index failed or came back to
    u_stable.  A singular L admits no polish.  The gate costs one LU of L
    per candidate, and the polish's first Newton step solves with it.  The
    cutoff equivalence justifies the polish: for u <= 0, grad F = 0 is the
    structure equation, and the verification below checks u <= 0.  A
    polished point V-separated from u_stable ends the search.  A step that
    cannot lower F, or MAX_SWEEPS sweeps, end the path; it restarts with
    twice the nodes, twice at most, and then PathCollapse is raised.

    The three are module constants, not options: no caller, config or
    benchmark workload needs other values, and the node doubling already
    refines a path that is too coarse.

    The result is verified against the cutoff equivalence: u <= 0 within
    TOL_POS, then `pde.newton_solve` from it at tol, which returns the
    point only at structure-equation residual at most tol, and its
    smallest eigenvalue at most EPS_UNSTABLE (a second minimizer would
    signal a path collapse).  The point returned is `newton_solve`'s with
    the search's own `meta`: path_iterations, vnorm_separation and
    path_nodes.
    """
    s, V = q.surface, v_field(t, q)
    m = s.mass_diag
    if float(m @ V) <= 0.0:
        raise DegenerateNorm("integral V = 0; V-norm requires t > 0 and q != 0")
    gram_lu = s.factorize(V)

    f_stable = functional_value(u_stable, t, q)
    w = _negative_endpoint(f_stable, t, q)

    def vnorms(X):
        """V-norm of each row of X."""
        return np.sqrt(_row_dots(X, s.apply(V, X.T).T))

    def polish_lu(u):
        """The LU of L(u) when L has Morse index 1, or one its LU cannot
        read; None otherwise.

        A singular L, or a u below the overflow guard (`ResidualBlowup`,
        also a RuntimeError), admits no polish: its Newton solve would
        fail at once.  The polish's first Newton step solves with the LU.
        """
        try:
            lu = s.factorize(linearize(u, t, q))
        except RuntimeError:
            return None
        return lu if lu.morse_index() in (1, None) else None

    def relax(nodes):
        """(u, V-norm separation, sweeps), or None."""
        tau = np.linspace(0.0, 1.0, nodes)[:, None]
        path = (1.0 - tau) * u_stable + tau * w
        step = 1.0
        for sweeps in range(1, MAX_SWEEPS + 1):
            # interior targets lie strictly inside the arclength range, so
            # each falls in a segment of positive length
            seg = vnorms(np.diff(path, axis=0))
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            targets = np.linspace(0.0, cum[-1], nodes)[1:-1]
            i = np.searchsorted(cum, targets) - 1
            frac = ((targets - cum[i]) / seg[i])[:, None]
            path[1:-1] = (1.0 - frac) * path[i] + frac * path[i + 1]

            vals = functional_value(path[1:-1], t, q)
            j = int(np.argmax(vals)) + 1
            u_top = path[j].copy()
            g = functional_gradient(u_top, t, q)
            gnorm = np.sqrt(float(m @ g ** 2))
            d = gram_lu.solve(m * g)   # descent in the V-inner product
            alpha, moved = step, False
            for _ in range(40):
                u_try = u_top - alpha * d
                if functional_value(u_try, t, q) < vals[j - 1]:
                    path[j] = u_try
                    step = min(alpha * 2.0, 1.0)
                    moved = True
                    break
                alpha *= 0.5

            # polish candidates near stationarity where L has Morse index 1;
            # keep deforming if Newton fails or lands back on the stable
            # minimizer
            if ((gnorm < 0.1 or sweeps % POLISH_PERIOD == 0 or not moved)
                    and (lu := polish_lu(u_top)) is not None):
                try:
                    u, _, _ = solve_u(u_top, t, q, tol, lu)
                except NonConvergence:
                    pass
                else:
                    sep = float(vnorms((u - u_stable)[None])[0])
                    if sep > 10.0 * tol:
                        return u, sep, sweeps
            if not moved:
                return None
        return None

    for nodes in (PATH_NODES, 2 * PATH_NODES, 4 * PATH_NODES):
        found = relax(nodes)
        if found is not None:
            break
    else:
        raise PathCollapse(
            f"path slid back to the stable solution for up to {nodes} nodes")
    u2, sep, sweeps = found

    if u2.max() > TOL_POS:
        raise VerificationFailure(
            f"critical point violates u <= 0: max u = {u2.max():.3g}")
    p2 = newton_solve(u2, t, q, tol)
    if p2.lambda_min > EPS_UNSTABLE:
        raise VerificationFailure(
            f"second critical point is stable (lambda_min = "
            f"{p2.lambda_min:.3g}); the path converged to another minimizer")
    return replace(p2, meta={"path_iterations": sweeps,
                             "vnorm_separation": sep, "path_nodes": nodes})
