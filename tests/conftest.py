import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from minlag.surface import build_flat_torus, build_genus2_octagon
from minlag.cubic import constant_cubic, synthetic_cubic


@pytest.fixture(scope="session")
def torus16():
    return build_flat_torus(16, 1.0, 1.0)


@pytest.fixture(scope="session")
def torus32():
    return build_flat_torus(32, 1.0, 1.0)


@pytest.fixture(scope="session")
def octagon2():
    return build_genus2_octagon(2)


@pytest.fixture(scope="session")
def octagon3():
    return build_genus2_octagon(3)


@pytest.fixture(scope="session")
def unit_cubic(torus16):
    return constant_cubic(torus16, 1.0)


def octagon_zero_classes(o):
    """Two interior classes near fixed chart positions, orders (3, 3)."""
    reps = o.class_representative
    zpos = o.vertices[reps]
    p1 = int(np.argmin(np.abs(zpos - (0.3 + 0.1j))))
    p2 = int(np.argmin(np.abs(zpos - (-0.2 + 0.25j))))
    return [(p1, 3), (p2, 3)]


@pytest.fixture(scope="session")
def octagon2_cubic(octagon2):
    return synthetic_cubic(octagon2, octagon_zero_classes(octagon2), 1.0)


@pytest.fixture(scope="session")
def octagon3_cubic(octagon3):
    return synthetic_cubic(octagon3, octagon_zero_classes(octagon3), 1.0)

