"""Coset enumeration (Dimino's algorithm, ``groups._enumerate``) against the
element-list closure of ``tests/naive.py``, and the enumeration cap on
both sides of the boundary."""

import random

import numpy as np
import pytest

import naive
from grouplab.corpus import (
    builtin_corpus,
    cyclic,
    dihedral,
    direct_product,
    named_group,
    symmetric,
)
from grouplab.errors import EnumerationCapError
from grouplab.groups import Group, _enumerate
from grouplab.perms import Permutation

STREAM_LARGE = (
    "A4xA4xC2", "A4xS4", "A5xC2^2", "A5xC4", "A5xS3", "C11^2xC2", "C2^3xS3xS3",
    "C2^6xS3", "C2^7xC3", "C3^2xS4", "C3^3xA4", "C3^4xC2^2", "C3^4xS3", "C3^5",
    "C5^2xA4", "C5^2xS4", "C5^3xS3", "C7^2xC6", "C7^2xS3", "D10xA5",
    "D10xC5^2", "D16xC2^4", "D8xC2^5", "D8xC3^3", "Q8xC2^5", "S3xS3xS3",
    "S4xC2^4", "S4xD12", "S4xS4", "S5xC2", "S5xC3",
)
"""The benchmark's larger check-stream groups, orders 216-750."""


def oracle(G: Group) -> np.ndarray:
    """G's elements from the worklist closure, as sorted image rows."""
    elems = sorted(naive.closure(G.degree, G.generators))
    return np.array([p.images for p in elems], dtype=np.int32)


def relabelled(G: Group, rng: random.Random) -> Group:
    points = list(range(G.degree))
    rng.shuffle(points)
    s = Permutation(tuple(points))
    return Group(G.degree, [s.inverse() * g * s for g in G.generators])


def assert_enumerates(G: Group, label) -> None:
    emat = G._matrix()
    assert emat.dtype == np.int32 and G._levels is None, label
    assert np.array_equal(emat, oracle(G)), label


def test_relabelled_corpus_groups_enumerate_to_the_closure():
    rng = random.Random(11)
    for ng in builtin_corpus(200):
        assert_enumerates(relabelled(ng.group, rng), ng.name)


@pytest.mark.parametrize("name", STREAM_LARGE)
def test_stream_groups_enumerate_to_the_closure(name):
    assert_enumerates(relabelled(named_group(name).group, random.Random(name)), name)


def test_degree_above_256_takes_wide_keys():
    """Images above 255 need two bytes per point, big-endian so that the
    sorted keys are still the lexicographic row order."""
    for G in (dihedral(600), direct_product(cyclic(257), symmetric(3))):
        assert G.degree > 256
        assert_enumerates(relabelled(G, random.Random(G.degree)), G.degree)


def test_trivial_group_and_repeated_generators():
    for G in (Group(5), Group(5, [Permutation.identity(5)]), Group(1)):
        assert G.order() == 1
        assert G._matrix().tolist() == [list(range(G.degree))]
    a, b = Permutation.parse(4, "(1 2 3 4)"), Permutation.parse(4, "(1 2)")
    G = Group(4, [a, a, b, a, b])
    assert G.generators == (a, b)
    assert_enumerates(G, "S4")
    assert np.array_equal(_enumerate(4, [b, a, b, a, b], 24), G._matrix())


@pytest.mark.parametrize(
    "make", [lambda: symmetric(4), lambda: cyclic(10), lambda: named_group("C2^3").group]
)
def test_the_enumeration_cap_is_exact(make):
    """Order = cap enumerates; order = cap + 1 stops the enumeration, keeps
    the order exact through the stabilizer chain, and lists no element."""
    G0 = make()
    n = G0.order()
    at_cap = Group(G0.degree, G0.generators, enum_cap=n)
    assert at_cap.order() == n and at_cap._levels is None
    assert np.array_equal(at_cap._matrix(), G0._matrix())
    above = Group(G0.degree, G0.generators, enum_cap=n - 1)
    assert _enumerate(G0.degree, G0.generators, n - 1) is None
    assert above.order() == n and above._emat is None and above._levels is not None
    assert all(above.contains(g) for g in G0.generators)
    with pytest.raises(EnumerationCapError):
        above.elements()
