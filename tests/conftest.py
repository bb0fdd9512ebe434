import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from grouplab.corpus import (
    alternating,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    quaternion8,
    symmetric,
)


@pytest.fixture(scope="session")
def s3():
    return symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric(4)


@pytest.fixture(scope="session")
def s5():
    return symmetric(5)


@pytest.fixture(scope="session")
def a4():
    return alternating(4)


@pytest.fixture(scope="session")
def a5():
    return alternating(5)


@pytest.fixture(scope="session")
def d8():
    return dihedral(8)


@pytest.fixture(scope="session")
def q8():
    return quaternion8()


@pytest.fixture(scope="session")
def s3s3():
    return direct_product(symmetric(3), symmetric(3))


@pytest.fixture(scope="session")
def c6():
    return cyclic(6)


@pytest.fixture(scope="session")
def e49():
    return elementary_abelian(7, 2)


LARGE_PRODUCTS = ("C5^3xS3", "C2^6xS3", "C3^4xS3", "S4xS4", "A4xA4xC2", "D10xA5")
"""Direct products of order 288-750 like those of the benchmark's check
stream; no pinned corpus digest reaches above order 200."""


@pytest.fixture(scope="session")
def large_products():
    """The large products by name, each built once per session."""
    from grouplab.corpus import named_group

    return {name: named_group(name).group for name in LARGE_PRODUCTS}
