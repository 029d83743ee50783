import dataclasses
import warnings

import numpy as np
import pytest

from minlag import cubic
from minlag.continuation import detect_fold, trace_curve
from minlag.cubic import (constant_cubic, norm_field, synthetic_cubic,
                          wp_pairing)
from minlag.surface import build_flat_torus, integrate
from conftest import octagon_zero_classes


def test_constant_zero(torus16):
    q = constant_cubic(torus16, 0.0)
    assert np.all(norm_field(q) == 0.0)


def test_constant_unit(torus16):
    q = constant_cubic(torus16, 1.0)
    assert norm_field(q) == pytest.approx(np.ones(torus16.n_classes))
    assert np.unique(q.values).size == 1


def test_constant_norm_scaling():
    s = build_flat_torus(8, 1.0, 4.0)
    q = constant_cubic(s, 2.0j)
    # |q| / lambda^(3/2) = 2 / 8
    assert norm_field(q) == pytest.approx(0.25 * np.ones(s.n_classes))


def test_constant_on_octagon_warns(octagon2):
    # q = 0 is holomorphic on every surface, so only a nonzero c warns
    with pytest.warns(UserWarning):
        constant_cubic(octagon2, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(constant_cubic(octagon2, 0.0).values == 0.0)


def test_synthetic_single_zero(octagon2):
    q = synthetic_cubic(octagon2, [(5, 6)], amplitude=2.0)
    nf = norm_field(q)
    assert nf[5] == 0.0
    assert np.all(nf >= 0.0)


def test_synthetic_two_zeros(octagon2, octagon2_cubic):
    zeros = octagon_zero_classes(octagon2)
    nf = norm_field(octagon2_cubic)
    for cls, _ in zeros:
        assert nf[cls] == 0.0
    assert nf.max() > 0.0


def test_synthetic_degree_mismatch(octagon2):
    with pytest.raises(ValueError, match="6g-6"):
        synthetic_cubic(octagon2, [(1, 2), (2, 3)], amplitude=1.0)


@pytest.mark.parametrize("zeros, amplitude, error", [
    ([(5, 6)], 0.0, "amplitude must be positive"),
    ([(5, 6)], -1.0, "amplitude must be positive"),
    ([(5, 6), (11, 0)], 1.0, "zero orders must be positive integers")])
def test_synthetic_rejects_bad_data(octagon2, zeros, amplitude, error):
    with pytest.raises(ValueError, match=error):
        synthetic_cubic(octagon2, zeros, amplitude=amplitude)


def test_synthetic_rejects_torus(torus16):
    with pytest.raises(ValueError):
        synthetic_cubic(torus16, [(0, 0)], amplitude=1.0)


def test_wp_pairing_is_norm_integral(torus16, octagon2, octagon2_cubic):
    q = constant_cubic(torus16, 1.5 + 0.5j)
    for s, qq in ((torus16, q), (octagon2, octagon2_cubic)):
        pair = wp_pairing(qq, qq)
        assert pair.imag == pytest.approx(0.0, abs=1e-15)
        assert pair.real == pytest.approx(integrate(s, norm_field(qq) ** 2),
                                          rel=1e-12)


def test_wp_pairing_constant(torus16):
    c = 2.0 - 1.0j
    q = constant_cubic(torus16, c)
    assert wp_pairing(q, q) == pytest.approx(abs(c) ** 2, rel=1e-12)


def test_wp_pairing_hermitian(octagon2):
    q1 = synthetic_cubic(octagon2, [(3, 6)], amplitude=1.0)
    q2 = synthetic_cubic(octagon2, [(10, 2), (20, 4)], amplitude=2.0)
    p12 = wp_pairing(q1, q2)
    p21 = wp_pairing(q2, q1)
    assert p12 == pytest.approx(np.conjugate(p21), rel=1e-12)


def test_wp_pairing_surface_mismatch(torus16):
    other = build_flat_torus(16, 1.0, 1.0)
    with pytest.raises(ValueError):
        wp_pairing(constant_cubic(torus16, 1.0), constant_cubic(other, 1.0))


def test_wp_positivity(octagon2_cubic):
    assert wp_pairing(octagon2_cubic, octagon2_cubic).real > 0.0


def test_norm_scales_linearly(octagon2_cubic):
    base = norm_field(octagon2_cubic)
    # power-of-two factors scale exactly in floating point
    for t in (0.5, 2.0, 8.0):
        scaled = dataclasses.replace(octagon2_cubic,
                                     values=t * octagon2_cubic.values)
        assert np.array_equal(norm_field(scaled), t * base)
    scaled = dataclasses.replace(octagon2_cubic,
                                 values=3.7 * octagon2_cubic.values)
    assert norm_field(scaled) == pytest.approx(3.7 * base, rel=1e-14)


def test_norm_sq_is_the_squared_norm_field(octagon2_cubic):
    assert np.array_equal(octagon2_cubic.norm_sq,
                          norm_field(octagon2_cubic) ** 2)
    scaled = dataclasses.replace(octagon2_cubic,
                                 values=2.0 * octagon2_cubic.values)
    assert np.array_equal(scaled.norm_sq, 4.0 * octagon2_cubic.norm_sq)


def test_norm_field_computed_once_per_cubic(torus16, monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return norm_field(q)

    monkeypatch.setattr(cubic, "norm_field", counting)
    q = constant_cubic(torus16, 1.0)
    detect_fold(trace_curve(q, tol=1e-11))
    assert len(calls) == 1 and calls[0] is q
