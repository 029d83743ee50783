"""Metamorphic tests: the octagon's symmetries z -> -z and z -> conj(z).

Both map the refinement-2 octagon mesh onto itself.  With ||q||^2 pulled
back by the class map, the fold, the mountain pass and the second variation
of the area are the same problems with their classes renumbered, so they
must agree with the unmapped field's to solver tolerance.  The class maps
are found here by matching chart vertices.
"""

import numpy as np
import pytest

from minlag.continuation import branch_point
from minlag.mpass import find_mountain_pass
from minlag.wp import area_record

from test_continuation import cubic_with_norm_sq, nested_fold

SYMMETRIES = {"minus": np.negative, "conj": np.conjugate}


@pytest.fixture(scope="module", params=list(SYMMETRIES))
def vertex_map(request, octagon2):
    """For each chart vertex v, the chart vertex nearest g(v), and the
    largest distance of a match."""
    z = octagon2.vertices
    d = np.abs(SYMMETRIES[request.param](z)[:, None] - z[None, :])
    vmap = d.argmin(axis=1)
    return vmap, float(d[np.arange(len(vmap)), vmap].max())


@pytest.fixture(scope="module")
def class_map(vertex_map, octagon2):
    """The class permutation of a symmetry: class c goes to cmap[c]."""
    cmap = np.full(octagon2.n_classes, -1)
    cmap[octagon2.class_of] = octagon2.class_of[vertex_map[0]]
    return cmap


def test_symmetry_maps_the_mesh_onto_itself(vertex_map, class_map, octagon2):
    s, (vmap, gap) = octagon2, vertex_map
    assert gap <= 1e-13
    assert ({frozenset(t) for t in vmap[s.triangles].tolist()}
            == {frozenset(t) for t in s.triangles.tolist()})
    # every chart vertex of a class goes to the same class, and no two
    # classes go to one
    assert np.array_equal(class_map[s.class_of], s.class_of[vmap])
    assert np.array_equal(np.sort(class_map), np.arange(s.n_classes))


@pytest.fixture(scope="module")
def unmapped(octagon2_cubic):
    """The field the pulled back one is compared with, ||q||^2 built the
    same way (`cubic_with_norm_sq`), and its nested fold T0."""
    q = cubic_with_norm_sq(octagon2_cubic.surface, octagon2_cubic.norm_sq)
    return q, nested_fold(q, 1e-11)[0].t


@pytest.fixture(scope="module")
def pulled(class_map, unmapped):
    """||q||^2 pulled back by the class map: ||q||^2(cmap[c]) at class c."""
    q = unmapped[0]
    return cubic_with_norm_sq(q.surface, q.norm_sq[class_map])


@pytest.fixture(scope="module")
def unmapped_passes(unmapped):
    q, t0 = unmapped
    return [find_mountain_pass(branch_point(q, f * t0), f * t0, q)
            for f in (0.45, 0.55, 0.75)]


def test_pulled_back_fold_agrees(unmapped, pulled):
    assert nested_fold(pulled, 1e-11)[0].t == pytest.approx(
        unmapped[1], rel=1e-12)


def test_pulled_back_mountain_pass_agrees(class_map, unmapped, pulled,
                                          unmapped_passes):
    # the norms and the descent of the minimax see the renumbered classes
    t0 = unmapped[1]
    for f, p in zip((0.45, 0.55, 0.75), unmapped_passes):
        t = f * t0
        got = find_mountain_pass(branch_point(pulled, t), t, pulled)
        assert got.lambda_min == pytest.approx(p.lambda_min, rel=1e-11)
        assert np.abs(got.u - p.u[class_map]).max() <= 1e-10
        for key in ("path_iterations", "path_nodes"):
            assert got.meta[key] == p.meta[key]


def test_pulled_back_second_variation_agrees(unmapped, pulled):
    # at the octagon's wpcheck step h = 0.5; fd2 = 2 (A(h) - A(0)) / h^2
    # cancels, so rel_err keeps fewer digits than the solves (3e-7 apart
    # for z -> conj(z))
    assert area_record(pulled, 0.5).rel_err == pytest.approx(
        area_record(unmapped[0], 0.5).rel_err, rel=1e-5)
