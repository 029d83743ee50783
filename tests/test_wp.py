import math

import numpy as np
import pytest

from minlag.cubic import constant_cubic, norm_field, wp_pairing
from minlag.pde import newton_solve
from minlag.surface import integrate
from minlag.wp import area_record, d_operator, udotdot

from scalar_oracle import scalar_roots

# frozen from the scalar oracle: -e^{u(t)} for c = 1 on the unit-area torus
AREA_ORACLE = {0.05: -0.979138690231440246, 0.10: -0.901580554275311454}


def test_area_oracle_frozen_values():
    for t, val in AREA_ORACLE.items():
        _, hi = scalar_roots(16.0 * t * t)
        assert -math.exp(hi) == pytest.approx(val, abs=1e-14)


def test_area_at_zero_torus(unit_cubic):
    assert area_record(unit_cubic, 0.01).areas[0] == pytest.approx(-1.0,
                                                                   rel=1e-12)


def test_area_at_zero_octagon(octagon3_cubic):
    # 4 pi (1 - g) = -4 pi for genus 2, up to the mesh area error
    assert area_record(octagon3_cubic, 0.5).areas[0] == pytest.approx(
        -4.0 * math.pi, rel=0.02)


def test_area_matches_scalar_oracle(torus16, unit_cubic):
    # A = -integral e^u dA, the formula area_record reports
    for t, val in AREA_ORACLE.items():
        p = newton_solve(np.zeros(torus16.n_classes), t, unit_cubic, tol=1e-12)
        assert -integrate(torus16, np.exp(p.u)) == pytest.approx(val,
                                                                 abs=1e-10)


def test_d_fixes_constants(torus16, octagon2):
    for s in (torus16, octagon2):
        out = d_operator(s, np.ones(s.n_classes))
        assert np.abs(out - 1.0).max() <= 1e-12


def test_d_spectral_calculus(torus32):
    # discrete Fourier mode is an exact eigenvector of (K, M) on the torus
    x = torus32.vertices[torus32.class_representative].real
    f = np.sin(2.0 * math.pi * x)
    mu = (float(f @ (torus32.stiffness @ f))
          / float(f @ (torus32.mass_diag * f)))
    out = d_operator(torus32, f)
    assert out == pytest.approx(2.0 * f / (mu + 2.0), abs=1e-10)


def test_d_self_adjoint_positive(torus16, octagon2):
    rng = np.random.default_rng(6)
    for s in (torus16, octagon2):
        m = s.mass_diag
        for _ in range(20):
            f, g = rng.standard_normal((2, s.n_classes))
            df, dg = d_operator(s, f), d_operator(s, g)
            lhs = float(m @ (df * g))
            rhs = float(m @ (f * dg))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert float(m @ (df * f)) > 0.0


def test_d_rejects_a_field_of_the_wrong_size(torus16):
    with pytest.raises(ValueError, match="field size does not match"):
        d_operator(torus16, np.ones(torus16.n_classes + 1))


def test_udotdot_constant_data(torus16):
    for c in (1.0, 2.0):
        q = constant_cubic(torus16, c)
        udd = udotdot(q)
        assert udd == pytest.approx(-16.0 * c * c * np.ones_like(udd),
                                    rel=1e-10)


def test_udotdot_zero_cubic(torus16):
    q = constant_cubic(torus16, 0.0)
    assert np.abs(udotdot(q)).max() == 0.0


def test_udotdot_defining_equation(octagon2, octagon2_cubic):
    udd = udotdot(octagon2_cubic)
    nq2 = norm_field(octagon2_cubic) ** 2
    lhs = octagon2.stiffness @ udd + 2.0 * octagon2.mass_diag * udd
    rhs = -32.0 * octagon2.mass_diag * nq2
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


def test_second_variation_torus(unit_cubic):
    rec = area_record(unit_cubic, 0.01)
    rel = rec.rel_err
    assert rec.exact_second == pytest.approx(16.0, rel=1e-12)
    assert rel <= 0.02
    print(f"second variation: centred rel {rel:.2e}")


def test_second_variation_quadratic_in_q(torus16):
    e1 = area_record(constant_cubic(torus16, 1.0), 0.01).exact_second
    e2 = area_record(constant_cubic(torus16, 2.0), 0.005).exact_second
    assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


def test_second_variation_octagon(octagon2, octagon2_cubic):
    rec = area_record(octagon2_cubic, 0.5)
    assert rec.exact_second == 16.0 * wp_pairing(octagon2_cubic,
                                                 octagon2_cubic).real
    assert rec.exact_second == pytest.approx(
        16.0 * integrate(octagon2, norm_field(octagon2_cubic) ** 2), rel=1e-12)
    assert rec.rel_err <= 0.05


def first_variation(q, h):
    return area_record(q, h, tol=1e-13).fd1


def test_first_variation_vanishes_linearly(unit_cubic):
    fd_coarse = first_variation(unit_cubic, 1e-2)
    fd_fine = first_variation(unit_cubic, 1e-3)
    assert abs(fd_fine) <= 0.2 * abs(fd_coarse)     # O(h) or better
    assert abs(first_variation(unit_cubic, 1e-4)) <= 1e-3


def test_area_record_table(unit_cubic):
    rec = area_record(unit_cubic, 0.01)
    assert len(rec.ts) == len(rec.areas) == 2
    assert rec.ts[0] == 0.0
    assert rec.areas[0] == pytest.approx(-1.0, rel=1e-12)
    assert rec.rel_err <= 0.02


def test_fd2_converges_under_h_and_mesh(torus16, torus32):
    from minlag.cubic import constant_cubic as cc
    table = []
    for s in (torus16, torus32):
        q = cc(s, 1.0)
        for h in (0.02, 0.01):
            rel = area_record(q, h).rel_err
            table.append((s.n_classes, h, rel))
    print("fd2 convergence (classes, h, rel_err):", table)
    # error shrinks with h at fixed mesh
    assert table[1][2] < table[0][2]
    assert table[3][2] < table[2][2]


def test_area_record_checks_share_the_chain(unit_cubic):
    h = 0.01
    rec = area_record(unit_cubic, h)
    assert rec.ts.tolist() == [0.0, h]
    assert len(rec.areas) == 2
    # both variation checks read the reported samples
    assert rec.fd1 == (rec.areas[1] - rec.areas[0]) / h
    assert rec.fd2 == 2.0 * (rec.areas[1] - rec.areas[0]) / h ** 2


def test_udd_gap_second_order_octagon(octagon2_cubic):
    # measured 5.05e-5, 1.26e-5, 3.15e-6: the centred stencil's O(h^2)
    gaps = [area_record(octagon2_cubic, h).udd_gap
            for h in (0.5, 0.25, 0.125)]
    print("udd_gap at h = 0.5, 0.25, 0.125:", gaps)
    assert gaps[0] <= 1e-4
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 <= coarse / fine <= 4.5
