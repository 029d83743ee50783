import dataclasses
import math
import re

import numpy as np
import pytest

from minlag import frame
from minlag.cubic import CubicDifferential, constant_cubic
from minlag.frame import (MeshCoefficients, StepTooLarge, flatness_defect,
                          integrate_frame, maurer_cartan, s_from_u,
                          su21_defect)
from minlag.pde import newton_solve
from minlag.surface import build_flat_torus, build_genus2_octagon

from reference import (constant_coefficients, poincare_trivial_coefficients,
                       second_fundamental_form, side_pairing_frame_product,
                       stagewise_rk4_frames, vertex_wirtinger_lstsq)
from scalar_oracle import U_FOLD
from test_surface import _levels

ETA = np.diag([1.0, 1.0, -1.0])


def times(t, q):
    """t q: the u solved at t for q solves the structure equation of t q at
    t = 1, so frames are built from t q, as `cmd_frame` does."""
    return CubicDifferential(values=t * q.values, surface=q.surface)


def test_s_from_u_constant_factor():
    s = build_flat_torus(8, 1.0, 4.0)
    vals = s_from_u(np.zeros(s.n_classes), s.lambda_classes())
    assert vals == pytest.approx(math.sqrt(2.0) * np.ones_like(vals))


def test_s_from_u_disk_center(octagon2):
    vals = s_from_u(np.zeros(octagon2.n_classes), octagon2.lambda_classes())
    center = int(octagon2.class_of[0])
    assert vals[center] == pytest.approx(math.sqrt(2.0))


def test_s_from_u_fold_state(torus16):
    vals = s_from_u(np.full(torus16.n_classes, U_FOLD),
                    torus16.lambda_classes())
    assert vals == pytest.approx(math.sqrt(1.0 / 3.0) * np.ones_like(vals))


def test_maurer_cartan_structure():
    A, B = maurer_cartan(1.7, 0.0, 0.0)
    # constant s, q = 0: only the two s entries survive
    expectA = np.zeros((3, 3), dtype=complex)
    expectA[0, 2] = expectA[2, 1] = 1.7
    assert A == pytest.approx(expectA)
    assert B == pytest.approx(expectA.T)


def test_maurer_cartan_traceless():
    rng = np.random.default_rng(1)
    for _ in range(10):
        sval = rng.uniform(0.2, 3.0)
        s_z = complex(*rng.standard_normal(2))
        qv = complex(*rng.standard_normal(2))
        A, B = maurer_cartan(sval, s_z, qv)
        assert abs(np.trace(A)) == 0.0
        assert abs(np.trace(B)) == 0.0


def test_maurer_cartan_mirror_pattern():
    sval, s_z, qv = 1.3, 0.2 + 0.1j, 0.5 - 0.25j
    A, B = maurer_cartan(sval, s_z, qv)
    assert B[0, 1] == pytest.approx(np.conjugate(qv) / sval ** 2)
    assert A[1, 0] == pytest.approx(-qv / sval ** 2)
    assert B[0, 0] == pytest.approx(-np.conjugate(A[0, 0]))
    assert B[1, 2] == A[0, 2] == sval


def test_maurer_cartan_constant_data_not_flat():
    # with s_z = 0, [A, B] = diag(k, -k, 0) with k = s^2 + |q|^2 s^-4, the
    # right side of the Gauss equation (log s)_{z zbar} = s^2 + |q|^2 s^-4;
    # it never vanishes, so constant (s, q) is never a flat connection
    for sval, qv in ((0.8, 1.0), (0.8, 1.0 - 0.5j), (1.7, 0.0), (0.3, 2j)):
        A, B = maurer_cartan(sval, 0.0, qv)
        k = sval ** 2 + abs(qv) ** 2 * sval ** -4
        assert A @ B - B @ A == pytest.approx(np.diag([k, -k, 0.0]),
                                              rel=1e-14, abs=1e-14)


def test_connection_in_lie_algebra():
    # A zdot + B conj(zdot) is eta-anti-Hermitian for any real tangent
    rng = np.random.default_rng(8)
    for _ in range(10):
        sval = rng.uniform(0.2, 3.0)
        s_z = complex(*rng.standard_normal(2))
        qv = complex(*rng.standard_normal(2))
        zdot = complex(*rng.standard_normal(2))
        A, B = maurer_cartan(sval, s_z, qv)
        X = A * zdot + B * np.conjugate(zdot)
        assert np.abs((ETA @ X).conj().T + ETA @ X).max() <= 1e-12


def test_su21_defect_identity():
    assert su21_defect(np.eye(3, dtype=complex)) == (0.0, 0.0)


def test_su21_defect_diag_unitary():
    F = np.diag([np.exp(0.9j), np.exp(-0.9j), 1.0])
    u, d = su21_defect(F)
    assert u <= 1e-15 and d <= 1e-15


def test_su21_defect_scaled_identity():
    u, d = su21_defect(2.0 * np.eye(3, dtype=complex))
    assert u == pytest.approx(3.0)
    assert d == pytest.approx(7.0)


def test_maurer_cartan_and_su21_defect_take_stacks():
    rng = np.random.default_rng(4)
    sval = rng.uniform(0.2, 3.0, 6)
    s_z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    qv = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    A, B = maurer_cartan(sval, s_z, qv)
    assert A.shape == B.shape == (6, 3, 3)
    F = np.eye(3) + 0.1 * (A + B)
    unit, det = su21_defect(F)
    for k in range(6):
        Ak, Bk = maurer_cartan(sval[k], s_z[k], qv[k])
        assert np.array_equal(A[k], Ak) and np.array_equal(B[k], Bk)
        uk, dk = su21_defect(F[k])
        assert unit[k] == pytest.approx(uk, rel=1e-14)
        assert det[k] == pytest.approx(dk, rel=1e-14)


def test_sff_vanishes_without_cubic():
    assert np.all(second_fundamental_form(1.3, 0.0) == 0.0)


def test_sff_unit_example():
    II = second_fundamental_form(1.0, 1.0j)
    assert II[0] == pytest.approx([-2.0 ** -0.5, 0.0])
    assert II[1] == pytest.approx([0.0, 2.0 ** -0.5])


def test_sff_trace_free_and_scaling():
    rng = np.random.default_rng(12)
    for _ in range(10000):
        sval = rng.uniform(0.1, 5.0)
        qv = complex(*rng.standard_normal(2))
        II = second_fundamental_form(sval, qv)
        assert np.all(II[0] + II[2] == 0.0)       # exact cancellation
    for lam in (2.0, 8.0):
        a = second_fundamental_form(1.4, lam * (0.3 + 0.4j))
        b = second_fundamental_form(1.4, 0.3 + 0.4j)
        assert a == pytest.approx(lam * b, rel=1e-14)
    # s^{-3} scaling
    a = second_fundamental_form(2.0, 1.0 + 1.0j)
    b = second_fundamental_form(1.0, 1.0 + 1.0j)
    assert a == pytest.approx(b / 8.0, rel=1e-14)


# ---------------------------------------------------------------------------
# frame integration


def test_trivial_frame_unit_length():
    coeffs = poincare_trivial_coefficients()
    r = math.tanh(0.5)           # hyperbolic length 1 from the origin
    sheet = integrate_frame(coeffs, [0.0, r], step=0.005)
    assert sheet.defects[:, 0].max() <= 1e-8
    assert sheet.defects[:, 1].max() <= 1e-8
    assert np.array_equal(sheet.frames[0], np.eye(3, dtype=complex))
    # trivial solution on the disk chart is exactly flat
    assert sheet.defects[:, 2].max() <= 1e-4


def test_frame_convergence_order():
    coeffs = poincare_trivial_coefficients()
    r = math.tanh(0.5)
    defects = []
    for n in (25, 50, 100):
        sheet = integrate_frame(coeffs, [0.0, r], step=r / n)
        defects.append(sheet.defects[-1, 0])
    orders = [math.log2(defects[i] / defects[i + 1]) for i in range(2)]
    print(f"frame defect orders under step halving: {orders}")
    assert min(orders) >= 3.5


def test_loop_holonomy_vanishes():
    coeffs = poincare_trivial_coefficients()
    loop = [0.0, 0.3, 0.3 + 0.3j, 0.3j, 0.0]
    hols = []
    for step in (0.02, 0.01, 0.005):
        sheet = integrate_frame(coeffs, loop, step=step)
        hols.append(np.abs(sheet.frames[-1] - np.eye(3)).max())
    order = math.log2(hols[0] / hols[1])
    assert order >= 3.5
    assert hols[-1] <= 1e-9


def test_path_independence():
    coeffs = poincare_trivial_coefficients()
    end = 0.25 + 0.2j
    direct = integrate_frame(coeffs, [0.0, end], step=0.004)
    dogleg = integrate_frame(coeffs, [0.0, 0.25, end], step=0.004)
    budget = (direct.defects[:, 0].max() + dogleg.defects[:, 0].max() + 1e-12)
    assert np.abs(direct.frames[-1] - dogleg.frames[-1]).max() <= 100 * budget


def test_constant_coefficients_frame():
    # torus constant data: coefficients are spatially constant
    coeffs = constant_coefficients(math.sqrt(0.5 * math.exp(U_FOLD)), 1.0)
    sheet = integrate_frame(coeffs, [0.0, 1.0], step=0.01)
    assert sheet.defects[:, 0].max() <= 1e-8
    # defect accumulates at most linearly along the path
    growth = np.diff(sheet.defects[:, 0])
    assert growth.max() <= 2.0 * np.median(growth) + 1e-14


def test_frame_path_needs_two_points():
    with pytest.raises(ValueError, match="path needs at least two points"):
        integrate_frame(poincare_trivial_coefficients(), [0.1], step=0.01)


def test_flatness_defect_second_order(monkeypatch):
    coeffs = poincare_trivial_coefficients()
    z0 = 0.2 + 0.1j
    monkeypatch.setattr(frame, "STENCIL_RADIUS", 1e-2)
    d1 = flatness_defect(coeffs, z0)
    monkeypatch.setattr(frame, "STENCIL_RADIUS", 1e-3)
    d2 = flatness_defect(coeffs, z0)
    assert d2 <= 1e-5
    ratio = d1 / d2
    assert 30.0 <= ratio <= 300.0            # consistent with O(h^2)


class CountingCoefficients:
    """Coefficient source that records every batch it is evaluated on."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def at_many(self, zs):
        self.batches.append(list(zs))
        return self.inner.at_many(zs)


def test_frame_evaluates_coefficients_in_two_batches():
    inner = poincare_trivial_coefficients()
    coeffs = CountingCoefficients(inner)
    sheet = integrate_frame(coeffs, [0.0, 0.1 + 0.05j], step=0.02)
    nodes = len(sheet.path)
    assert nodes == 7
    rk4, stencils = coeffs.batches
    # the start, then a midpoint and an end point per step, each point once
    assert len(rk4) == len(set(rk4)) == 1 + 2 * (nodes - 1)
    assert rk4[0] == 0.0 and rk4[2::2] == list(sheet.path[1:])
    # one 5-point flatness stencil per node
    assert len(stencils) == 5 * nodes
    fresh = [flatness_defect(inner, z) for z in sheet.path]
    assert np.array_equal(sheet.defects[:, 2], fresh)


def test_frame_batch_reevaluates_missed_segment_start():
    # 6 steps of 1/6 end at tau = 1 - 2^-53, missing the corner 0.06;
    # 5 steps of 1/5 end on the corner 0.05 exactly
    for corner, step, missed in ((0.06, 0.01, True), (0.05, 0.01, False)):
        coeffs = CountingCoefficients(poincare_trivial_coefficients())
        sheet = integrate_frame(coeffs, [0.0, corner, corner * (1 + 1j)],
                                step=step)
        rk4 = coeffs.batches[0]
        assert len(rk4) == len(set(rk4)) == 1 + 2 * (len(sheet.path) - 1) + missed
        assert rk4.count(corner) == 1


def _single_column_interpolators(u, q):
    """The five one-column interpolators MeshCoefficients used to build, on
    its joggled triangulation."""
    from scipy.interpolate import CloughTocher2DInterpolator
    from scipy.spatial import Delaunay
    from minlag.frame import _vertex_wirtinger

    surface = q.surface
    z = surface.vertices
    pts = np.column_stack([z.real, z.imag])
    s_chart = np.sqrt(np.exp(u[surface.class_of]) * surface.conformal_factor
                      / 2.0)
    s_z = _vertex_wirtinger(surface, s_chart)
    qv = q.values.astype(complex)
    tri = Delaunay(pts, qhull_options="QJ")
    return [CloughTocher2DInterpolator(tri, col) for col in
            (s_chart, s_z.real, s_z.imag, qv.real, qv.imag)]


@pytest.fixture(scope="module")
def octagon2_mesh(octagon2, octagon2_cubic):
    p = newton_solve(np.zeros(octagon2.n_classes), 5.0, octagon2_cubic,
                     tol=1e-11)
    tq = times(5.0, octagon2_cubic)
    return (MeshCoefficients(p.u, tq), _single_column_interpolators(p.u, tq))


def on_mesh(surface, zs, slack=0.0):
    """Whether each chart point lies in a (counterclockwise) mesh triangle,
    or within `slack` of one."""
    z = np.asarray(zs)[:, None]
    a, b, c = (surface.vertices[surface.triangles[:, k]] for k in range(3))

    def left(p, q):                     # z on or left of the edge p -> q
        return ((q - p).conjugate() * (z - p)).imag >= -slack * abs(q - p)

    return (left(a, b) & left(b, c) & left(c, a)).any(axis=1)


def test_mesh_at_many_matches_single_column_interpolators(octagon2,
                                                          octagon2_mesh):
    coeffs, (s_i, szr_i, szi_i, qr_i, qi_i) = octagon2_mesh
    rng = np.random.default_rng(6)
    cand = rng.uniform(-0.9, 0.9, 2000) + 1j * rng.uniform(-0.9, 0.9, 2000)
    inside = cand[on_mesh(octagon2, cand)][:500]
    assert len(inside) == 500
    s, s_z, q = coeffs.at_many(inside)
    x, y = inside.real, inside.imag
    assert np.abs(s - s_i(x, y)).max() == 0.0
    assert np.abs(s_z.real - szr_i(x, y)).max() == 0.0
    assert np.abs(s_z.imag - szi_i(x, y)).max() == 0.0
    assert np.abs(q.real - qr_i(x, y)).max() == 0.0
    assert np.abs(q.imag - qi_i(x, y)).max() == 0.0


@pytest.mark.parametrize("r", [2, 3])
def test_frames_do_not_depend_on_rounding_of_the_chart(r, request):
    # the regular octagon's chart vertices hold many cocircular quadruples,
    # where an unjoggled Delaunay triangulation is decided by rounding: there
    # one ulp toward 0 on every chart vertex past the corners moves these
    # frames by 6.5e-4 (r = 2) and 1.1e-5 (r = 3)
    s = request.getfixturevalue(f"octagon{r}")
    q = request.getfixturevalue(f"octagon{r}_cubic")
    t = 20.0
    u = newton_solve(np.zeros(s.n_classes), t, q, tol=1e-11).u
    z = s.vertices.copy()
    z[9:] = (np.nextafter(z[9:].real, 0.0)
             + 1j * np.nextafter(z[9:].imag, 0.0))
    nudged = dataclasses.replace(s, vertices=z)
    loop = [0.0, 0.5, 0.5j, -0.5, -0.5j, 0.5, 0.0]
    frames = [integrate_frame(MeshCoefficients(u, CubicDifferential(
        values=t * q.values, surface=surface)), loop, step=0.005).frames
        for surface in (s, nudged)]
    assert np.abs(frames[0] - frames[1]).max() <= 1e-12


def test_mesh_at_many_names_first_point_outside(octagon2_mesh):
    coeffs, (s_i, *_) = octagon2_mesh
    with pytest.raises(StepTooLarge, match=r"point 0\.9900\+0\.0000j is outside"):
        coeffs.at_many([0.1, 0.99, 0.95, 0.2j])
    # a path leaving the patch: the first RK4 point outside is named
    path, step = [0.0, 0.95], 0.01
    nsub = int(np.ceil(0.95 / step))
    taus = np.arange(1, 2 * nsub + 1) / (2 * nsub)
    first = 0.95 * taus[~np.isfinite(s_i(0.95 * taus, 0.0 * taus))][0]
    with pytest.raises(StepTooLarge, match="outside the meshed patch") as err:
        integrate_frame(coeffs, path, step=step)
    assert f"point {complex(first):.4f} is outside" in str(err.value)


def test_mesh_at_many_refuses_points_off_the_mesh(octagon2, octagon2_mesh):
    # the interpolator covers the hull of the chart vertices, which reaches
    # past each octagon side between its corners: on the ray at angle pi/8,
    # side 0's midpoint vertex is at radius 0.6436 and the chord between
    # its corners at 0.77689
    coeffs, (s_i, *_) = octagon2_mesh
    ray = np.exp(1j * np.pi / 8)
    assert np.isfinite(coeffs.at_many([0.6 * ray])[0]).all()
    for r in (0.7, 0.7768):
        assert np.isfinite(s_i(r * ray.real, r * ray.imag))
        with pytest.raises(StepTooLarge,
                           match=re.escape(f"point {r * ray:.4f} is outside")):
            coeffs.at_many([0.6 * ray, r * ray])
    # every point of the hull off the mesh raises
    rng = np.random.default_rng(9)
    cand = rng.uniform(-0.9, 0.9, 1000) + 1j * rng.uniform(-0.9, 0.9, 1000)
    off = cand[np.isfinite(s_i(cand.real, cand.imag))
               & ~on_mesh(octagon2, cand)]
    assert len(off) >= 10
    for z in off:
        with pytest.raises(StepTooLarge):
            coeffs.at_many([z])


@pytest.mark.parametrize("s", [
    *_levels(build_genus2_octagon(4)), *_levels(build_flat_torus(8, 1.0, 1.0)),
    *_levels(build_flat_torus(32, 1.0, 1.0))],
    ids=[*(f"octagon4-{k}" for k in range(4)), "torus8-0", "torus8-1",
         *(f"torus32-{k}" for k in range(4))])
def test_off_mesh_simplices_have_centroids_off_the_mesh(s):
    # a simplex that find_simplex can return (one with a finite barycentric
    # transform) is off exactly when its centroid lies in no mesh triangle;
    # the rest, the torus joggle's zero-area slivers, are all off.  On the
    # octagon's mirror lines some centroids fall on a mesh edge, which
    # rounding may put just outside both of its triangles: a slack of 1e-12
    # keeps them on, far below the 1.6e-4 that off centroids keep from it
    from scipy.spatial import Delaunay

    tri = Delaunay(np.column_stack([s.vertices.real, s.vertices.imag]),
                   qhull_options="QJ")
    off = frame._off_mesh(tri, s.sides)
    assert len(off) == len(tri.simplices) + 1 and off[-1]
    finite = np.isfinite(tri.transform).all(axis=(1, 2))
    centroids = s.vertices[tri.simplices].mean(axis=1)
    assert np.array_equal(off[:-1][finite],
                          ~on_mesh(s, centroids[finite], slack=1e-12))
    assert off[:-1][~finite].all()
    assert off[:-1].any()


def test_flatness_flags_nonholomorphic(octagon2, octagon2_cubic,
                                      monkeypatch):
    p = newton_solve(np.zeros(octagon2.n_classes), 5.0, octagon2_cubic,
                     tol=1e-11)
    monkeypatch.setattr(frame, "STENCIL_RADIUS", 0.02)
    defect = flatness_defect(MeshCoefficients(p.u, times(5.0, octagon2_cubic)),
                             0.1 + 0.05j)
    assert np.isfinite(defect)
    print(f"octagon mesh flatness defect (synthetic q): {defect:.3e}")


def test_mesh_coefficients_constant_data(torus16):
    q = constant_cubic(torus16, 1.0)
    p = newton_solve(np.zeros(torus16.n_classes), 0.1, q, tol=1e-11)
    coeffs = MeshCoefficients(p.u, q)
    (sval,), (s_z,), (qv,) = coeffs.at_many([0.5 + 0.5j])
    assert sval == pytest.approx(math.sqrt(0.5 * math.exp(p.u[0])), rel=1e-10)
    assert abs(s_z) <= 1e-8
    assert qv == pytest.approx(1.0 + 0.0j)
    sheet = integrate_frame(coeffs, [0.3 + 0.3j, 0.7 + 0.3j], step=0.01)
    assert sheet.defects[:, 0].max() <= 1e-9


@pytest.mark.parametrize("n", [16, 32])
def test_mesh_coefficients_constant_on_the_torus_sides(n):
    # the joggled triangulation holds zero-area slivers along the square's
    # straight sides (51 at n = 16, 111 at n = 32); constant data still
    # interpolates to its constant on all four sides and just inside them
    s = build_flat_torus(n, 1.0, 1.0)
    qc = 0.7 - 0.2j
    coeffs = MeshCoefficients(np.full(s.n_classes, -0.3),
                              CubicDifferential(values=np.full(
                                  len(s.vertices), qc), surface=s))
    x = np.linspace(0.0, 1.0, 401)
    for d in (0.0, 1e-12, 1e-6, 1e-3):
        sval, s_z, qv = coeffs.at_many(np.concatenate(
            [x + 1j * d, 1.0 - d + 1j * x, x + 1j * (1.0 - d), d + 1j * x]))
        assert np.all(np.isfinite(sval)) and np.all(np.isfinite(qv))
        assert np.abs(sval - s_from_u(-0.3, 1.0)).max() <= 1e-15
        assert np.abs(s_z).max() <= 1e-15
        assert np.abs(qv - qc).max() <= 1e-15


def test_constant_coefficients_order():
    coeffs = constant_coefficients(0.8, 1.0 - 0.5j)
    defects = []
    for n in (20, 40, 80):
        sheet = integrate_frame(coeffs, [0.0, 1.0], step=1.0 / n)
        defects.append(sheet.defects[-1, 0])
    orders = [math.log2(defects[i] / defects[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5


def test_mesh_flatness_trivial_octagon(octagon3, monkeypatch):
    # u = 0 with q = 0 solves the structure equation on the hyperbolic chart,
    # so the mesh flatness defect is pure discretization error
    q0 = constant_cubic(octagon3, 0.0)
    monkeypatch.setattr(frame, "STENCIL_RADIUS", 0.02)
    defect = flatness_defect(
        MeshCoefficients(np.zeros(octagon3.n_classes), q0), 0.15 + 0.1j)
    assert defect <= 0.5
    print(f"octagon trivial-solution mesh flatness defect: {defect:.3e}")


def test_side_pairing_frame_product_needs_the_octagon(torus16):
    # the torus carries its two translations as side pairings, but no
    # octagon corners to integrate between
    assert len(torus16.side_pairings) == 2
    with pytest.raises(ValueError, match="genus-2 octagon"):
        side_pairing_frame_product(poincare_trivial_coefficients(), torus16, 0)


def test_side_pairing_frame_product(octagon2):
    coeffs = poincare_trivial_coefficients()
    product, defects = side_pairing_frame_product(coeffs, octagon2, 0,
                                                  step=0.005)
    # the product is (approximately) a group element and is not the identity
    assert defects["product_unitarity"] <= 1e-7
    assert defects["product_det"] <= 1e-7
    assert np.abs(product - np.eye(3)).max() > 0.5
    print(f"side-pairing product defects: {defects}")


@pytest.mark.parametrize("source", ["poincare", "constant", "octagon2_mesh"])
def test_frame_matches_stagewise_rk4(source, request):
    if source == "poincare":
        coeffs = poincare_trivial_coefficients()
        path, step = [0.0, 0.3, 0.3 + 0.3j, 0.3j, 0.0], 0.01
    elif source == "constant":
        coeffs = constant_coefficients(0.8, 1.0 - 0.5j)
        path, step = [0.0, 1.0, 1.0 + 0.5j], 0.02
    else:
        coeffs = request.getfixturevalue("octagon2_mesh")[0]
        path, step = [0.0, 0.4, 0.2 + 0.3j, 0.0], 0.005
    sheet = integrate_frame(coeffs, path, step=step)
    ref = stagewise_rk4_frames(coeffs, path, step)
    assert sheet.frames.shape == ref.shape
    assert np.abs(sheet.frames - ref).max() <= 1e-13 * np.abs(ref).max()


def test_repeated_points_give_one_node():
    coeffs = poincare_trivial_coefficients()
    sheet = integrate_frame(coeffs, [0.2j, 0.2j, 0.2j], step=0.01)
    assert list(sheet.path) == [0.2j]
    assert np.array_equal(sheet.frames, np.eye(3, dtype=complex)[None])
    assert sheet.defects.shape == (1, 3)
    assert list(sheet.defects[0, :2]) == [0.0, 0.0]


def test_step_guard(monkeypatch):
    monkeypatch.setattr(frame, "MAX_STEP_DEFECT", 1e-10)
    coeffs = poincare_trivial_coefficients()
    with pytest.raises(StepTooLarge):
        integrate_frame(coeffs, [0.0, 0.97], step=0.5)
    # the message names the end point of the first step over the threshold
    path, step, threshold = [0.0, 0.97], 0.1, 1e-5
    monkeypatch.setattr(frame, "MAX_STEP_DEFECT", np.inf)
    sheet = integrate_frame(coeffs, path, step=step)
    first = int(np.argmax(np.diff(sheet.defects[:, 0]) > threshold))
    assert 0 < first < len(sheet.path) - 2   # good steps before a bad one
    z_end = sheet.path[first + 1]
    monkeypatch.setattr(frame, "MAX_STEP_DEFECT", threshold)
    with pytest.raises(StepTooLarge, match=re.escape(f"near z = {z_end:.4f};")):
        integrate_frame(coeffs, path, step=step)


def test_step_guard_overflowing_product():
    # far past the first rejected step the product overflows; with
    # RuntimeWarnings as errors, the guard must still be what is raised
    coeffs = constant_coefficients(30.0, 5.0)
    with pytest.raises(StepTooLarge, match=re.escape("near z = 0.5000+0.0000j;")):
        integrate_frame(coeffs, [0.0, 100.0], step=0.5)


@pytest.mark.parametrize("name", ["torus16", "octagon2"])
def test_vertex_wirtinger_matches_per_vertex_lstsq(name, request):
    # the stacked QR solve against the loop of one lstsq per vertex; torus
    # chart corners have fewer than six neighbors and take the two-ring
    from minlag.frame import _vertex_wirtinger

    surface = request.getfixturevalue(name)
    z = surface.vertices
    f = np.exp(z.real) * np.cos(3.0 * z.imag) + np.abs(z) ** 2
    ref = vertex_wirtinger_lstsq(surface, f)
    assert np.abs(_vertex_wirtinger(surface, f) - ref).max() \
        <= 1e-12 * np.abs(ref).max()
