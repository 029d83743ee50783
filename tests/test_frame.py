import math

import numpy as np
import pytest

from minlag.cubic import constant_cubic
from minlag.frame import (MeshCoefficients, StepTooLarge,
                          constant_coefficients, flatness_defect,
                          integrate_frame, maurer_cartan,
                          mesh_flatness_defect, poincare_trivial_coefficients,
                          s_from_u, second_fundamental_form, su21_defect)
from minlag.pde import newton_solve
from minlag.surface import build_flat_torus

from scalar_oracle import U_FOLD

ETA = np.diag([1.0, 1.0, -1.0])


def test_s_from_u_constant_factor():
    s = build_flat_torus(8, 1.0, 4.0)
    vals = s_from_u(np.zeros(s.n_classes), s)
    assert vals == pytest.approx(math.sqrt(2.0) * np.ones_like(vals))


def test_s_from_u_disk_center(octagon2):
    vals = s_from_u(np.zeros(octagon2.n_classes), octagon2)
    center = int(octagon2.class_of[0])
    assert vals[center] == pytest.approx(math.sqrt(2.0))


def test_s_from_u_fold_state(torus16):
    vals = s_from_u(np.full(torus16.n_classes, U_FOLD), torus16)
    assert vals == pytest.approx(math.sqrt(1.0 / 3.0) * np.ones_like(vals))


def test_maurer_cartan_structure():
    A, B = maurer_cartan(1.7, 0.0, 0.0, 0.0)
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
        A, B = maurer_cartan(sval, s_z, np.conjugate(s_z), qv)
        assert abs(np.trace(A)) == 0.0
        assert abs(np.trace(B)) == 0.0


def test_maurer_cartan_mirror_pattern():
    sval, s_z, qv = 1.3, 0.2 + 0.1j, 0.5 - 0.25j
    A, B = maurer_cartan(sval, s_z, np.conjugate(s_z), qv)
    assert B[0, 1] == pytest.approx(np.conjugate(qv) / sval ** 2)
    assert A[1, 0] == pytest.approx(-qv / sval ** 2)
    assert B[0, 0] == pytest.approx(-np.conjugate(A[0, 0]))
    assert B[1, 2] == A[0, 2] == sval


def test_connection_in_lie_algebra():
    # A zdot + B conj(zdot) is eta-anti-Hermitian for any real tangent
    rng = np.random.default_rng(8)
    for _ in range(10):
        sval = rng.uniform(0.2, 3.0)
        s_z = complex(*rng.standard_normal(2))
        qv = complex(*rng.standard_normal(2))
        zdot = complex(*rng.standard_normal(2))
        A, B = maurer_cartan(sval, s_z, np.conjugate(s_z), qv)
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


def test_flatness_defect_second_order():
    coeffs = poincare_trivial_coefficients()
    z0 = 0.2 + 0.1j
    d1 = flatness_defect(coeffs, z0, h=1e-2)
    d2 = flatness_defect(coeffs, z0, h=1e-3)
    assert d2 <= 1e-5
    ratio = d1 / d2
    assert 30.0 <= ratio <= 300.0            # consistent with O(h^2)


class CountingCoefficients:
    """Coefficient source that records every point it is evaluated at."""

    def __init__(self, inner):
        self.inner = inner
        self.points = []

    def at(self, z):
        self.points.append(z)
        return self.inner.at(z)


def test_frame_flatness_reuses_node_coefficients():
    inner = poincare_trivial_coefficients()
    coeffs = CountingCoefficients(inner)
    sheet = integrate_frame(coeffs, [0.0, 0.1 + 0.05j], step=0.02)
    nodes = len(sheet.path)
    assert nodes == 7
    # the start point, a midpoint and an end point per step, and only the
    # 4 outer flatness stencil points per node: the centre is the node
    assert len(coeffs.points) == 1 + 2 * (nodes - 1) + 4 * nodes
    fresh = [flatness_defect(inner, z) for z in sheet.path]
    assert np.array_equal(sheet.defects[:, 2], fresh)


def test_flatness_flags_nonholomorphic(octagon2, octagon2_cubic):
    p = newton_solve(np.zeros(octagon2.n_classes), 5.0, octagon2,
                     octagon2_cubic, tol=1e-11)
    defect = mesh_flatness_defect(octagon2, p.u, octagon2_cubic, 0.1 + 0.05j,
                                  h=0.02)
    assert np.isfinite(defect)
    print(f"octagon mesh flatness defect (synthetic q): {defect:.3e}")


def test_mesh_coefficients_constant_data(torus16):
    q = constant_cubic(torus16, 1.0)
    p = newton_solve(np.zeros(torus16.n_classes), 0.1, torus16, q, tol=1e-11)
    coeffs = MeshCoefficients(torus16, p.u, q)
    sval, s_z, s_zbar, qv = coeffs.at(0.5 + 0.5j)
    assert sval == pytest.approx(math.sqrt(0.5 * math.exp(p.u[0])), rel=1e-10)
    assert abs(s_z) <= 1e-8
    assert qv == pytest.approx(1.0 + 0.0j)
    sheet = integrate_frame(coeffs, [0.3 + 0.3j, 0.7 + 0.3j], step=0.01)
    assert sheet.defects[:, 0].max() <= 1e-9


def test_constant_coefficients_order():
    coeffs = constant_coefficients(0.8, 1.0 - 0.5j)
    defects = []
    for n in (20, 40, 80):
        sheet = integrate_frame(coeffs, [0.0, 1.0], step=1.0 / n)
        defects.append(sheet.defects[-1, 0])
    orders = [math.log2(defects[i] / defects[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5


def test_projection_restores_group():
    coeffs = poincare_trivial_coefficients()
    plain = integrate_frame(coeffs, [0.0, 0.6], step=0.02)
    projected = integrate_frame(coeffs, [0.0, 0.6], step=0.02, project=True)
    assert projected.defects[:, 0].max() <= 1e-12
    assert projected.defects[:, 1].max() <= 1e-12
    # projection is a small correction of the unprojected frame
    assert np.abs(projected.frames[-1] - plain.frames[-1]).max() <= 1e-6


def test_mesh_flatness_trivial_octagon(octagon3):
    # u = 0 with q = 0 solves the structure equation on the hyperbolic chart,
    # so the mesh flatness defect is pure discretization error
    with pytest.warns(UserWarning):
        q0 = constant_cubic(octagon3, 0.0)
    defect = mesh_flatness_defect(octagon3, np.zeros(octagon3.n_classes), q0,
                                  0.15 + 0.1j, h=0.02)
    assert defect <= 0.5
    print(f"octagon trivial-solution mesh flatness defect: {defect:.3e}")


def test_side_pairing_frame_product(octagon2):
    from minlag.frame import side_pairing_frame_product
    coeffs = poincare_trivial_coefficients()
    product, defects = side_pairing_frame_product(coeffs, octagon2, 0,
                                                  step=0.005)
    # the product is (approximately) a group element and is not the identity
    assert defects["product_unitarity"] <= 1e-7
    assert defects["product_det"] <= 1e-7
    assert np.abs(product - np.eye(3)).max() > 0.5
    print(f"side-pairing product defects: {defects}")


def test_step_guard():
    coeffs = poincare_trivial_coefficients()
    with pytest.raises(StepTooLarge):
        integrate_frame(coeffs, [0.0, 0.97], step=0.5,
                        max_step_defect=1e-10)


def test_frame_sheet_json():
    coeffs = poincare_trivial_coefficients()
    sheet = integrate_frame(coeffs, [0.0, 0.2], step=0.05)
    payload = sheet.to_json()
    assert set(payload) == {"path", "frames", "defects"}
    assert len(payload["frames"]) == len(payload["path"])
    assert all(len(f) == 9 for f in payload["frames"])
