"""Checks on direct products of order 288-750, the size of the benchmark's
larger stream requests: pinned main-check records and chief series, and
the whole-array kernels (conjugacy classes, the multiplication table and
the element index) against element-loop references."""

import hashlib
import itertools
import json

import numpy as np
import pytest

import naive
from grouplab.corpus import (
    alternating,
    builtin_corpus,
    cyclic,
    direct_product,
    elementary_abelian,
    symmetric,
)
from grouplab.perms import Permutation
from grouplab.solubility import chief_series
from grouplab.structure import _conjugacy_class_indices, primes_of
from grouplab.theorems import HypothesisMode, verify_main

RECORDS_DIGEST = "7f4a8ec699bec73fbf7cd5426e8d043594e1bc4a918b1686c22dee9df7638bb2"
LARGE_CHIEF_DIGEST = "d30833e233a451e5a90a32b5e7220f848abbc0bff7a07fe55974053a87939e77"

ORACLE_PRODUCTS = ("S4xS4", "D10xA5")
"""The large products also compared with the element-loop references."""


def test_main_records_digest(large_products):
    """Every prime and every mode: hypothesis, conclusion and the full
    witnesses, which the rendered report cuts short."""
    h = hashlib.sha256()
    for name, G in large_products.items():
        for p in primes_of(G):
            for mode in HypothesisMode:
                r = verify_main(G, p, mode, name)
                witnesses = json.dumps(r.witnesses, sort_keys=True)
                h.update(
                    f"{r.group} {r.prime} {mode.value} {r.hypothesis} "
                    f"{r.conclusion} {witnesses}\n".encode()
                )
    assert h.hexdigest() == RECORDS_DIGEST


def test_chief_series_digest(large_products):
    h = hashlib.sha256()
    for name, G in large_products.items():
        cs = chief_series(G)
        h.update(f"{name} {[hex(m) for m in cs.masks]} {cs.factor_orders}\n".encode())
    assert h.hexdigest() == LARGE_CHIEF_DIGEST


def oracle_groups(large_products):
    groups = [(ng.name, ng.group) for ng in builtin_corpus(48)]
    return groups + [(name, large_products[name]) for name in ORACLE_PRODUCTS]


def test_conjugacy_classes_against_naive(large_products):
    for name, G in oracle_groups(large_products):
        elems = G.elements()
        E = frozenset(elems)
        want, seen = [], set()
        for i, g in enumerate(elems):
            if g not in seen:
                cls = set().union(*(naive.conjugate_set({g}, x) for x in E))
                seen |= cls
                want.append(sorted(G.element_index(c) for c in cls))
        got = _conjugacy_class_indices(G)
        assert [c.tolist() for c in got] == want, name


def test_table_is_the_row_composition_product(large_products):
    """Product e_i * e_j has images e_j[e_i], so row tbl[i, j] of the
    element matrix must be ``emat[j][emat[i]]``, for every pair."""
    for name, G in oracle_groups(large_products):
        emat = G._matrix()
        tbl = G.table()
        n = len(emat)
        want = emat[:, emat].transpose(1, 0, 2)
        assert tbl.shape == (n, n), name
        assert np.array_equal(emat[tbl], want), name
        assert (tbl[np.arange(n), G.inverse_indices()] == 0).all(), name


@pytest.mark.parametrize(
    "make",
    [
        lambda: elementary_abelian(2, 3),
        lambda: direct_product(symmetric(3), symmetric(3)),
        lambda: direct_product(alternating(4), cyclic(2)),
    ],
    ids=["C2^3", "S3xS3", "A4xC2"],
)
def test_find_over_the_whole_symmetric_group(make):
    """``_find`` on every permutation of G's points, and the array lookup
    ``_lookup`` on their base images: the index of each element, -1 for
    everything else.  Some non-members share the first base image with an
    element but no element has their first two, so the key walk runs on
    from the -1 row."""
    G = make()
    index = {p.images: i for i, p in enumerate(G.elements())}
    G._ensure_index()
    base = G._base.tolist()
    by_base = {tuple(images[b] for b in base): i for images, i in index.items()}
    firsts = {images[base[0]] for images in index}
    pairs = {(images[base[0]], images[base[1]]) for images in index}
    left_early = 0
    for images in itertools.permutations(range(G.degree)):
        assert G._find(Permutation(images)) == index.get(images, -1), images
        first, second = images[base[0]], images[base[1]]
        left_early += first in firsts and (first, second) not in pairs
    assert len(base) >= 3 and left_early > 0
    prefixes = np.array(list(itertools.permutations(range(G.degree), len(base))))
    want = [by_base.get(tuple(row), -1) for row in prefixes.tolist()]
    assert G._lookup(prefixes.T, len(prefixes)).tolist() == want
