"""The NumPy element layer (element matrix, element index, multiplication
table and inverses) against element-loop references: the brute-force
closure of ``tests/naive.py`` and Permutation products looked up in a dict.
"""

import gc
import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest

import naive
from grouplab.corpus import (
    alternating,
    builtin_corpus,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    symmetric,
)
from grouplab import groups
from grouplab.groups import Group, normal_closure
from grouplab.perms import Permutation
from grouplab.structure import lattice_masks, normal_subgroup_masks, primes_of
from grouplab.theorems import (
    HypothesisMode,
    verify_lemma_2_1,
    verify_lemma_2_2,
    verify_main,
)

LARGE = {
    "S4xS4": lambda: direct_product(symmetric(4), symmetric(4)),
    "C3^4xS3": lambda: direct_product(elementary_abelian(3, 4), symmetric(3)),
}


def element_groups():
    groups = [(ng.name, ng.group) for ng in builtin_corpus(48)]
    return groups + [(name, make()) for name, make in LARGE.items()]


def check_against_loop(G: Group, pairs=None):
    """Table entries and inverses of G equal Permutation products looked up
    by image tuple; ``pairs`` limits the table check to those (i, j)."""
    elems = G.elements()
    index = {p: i for i, p in enumerate(elems)}
    tbl = G.table()
    n = len(elems)
    if pairs is None:
        pairs = itertools.product(range(n), repeat=2)
    for i, j in pairs:
        assert tbl[i, j] == index[elems[i] * elems[j]]
    inverses = [index[p.inverse()] for p in elems]
    assert G.inverse_indices().tolist() == inverses


def test_element_layer_against_naive():
    rng = random.Random(7)
    for name, G in element_groups():
        elems = G.elements()
        assert elems == tuple(sorted(naive.closure(G.degree, G.generators))), name
        assert np.array_equal(G._emat, [p.images for p in elems])
        n = len(elems)
        pairs = None
        if n > 64:
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(4000)]
        check_against_loop(G, pairs)
        assert [G.element_index(p) for p in elems] == list(range(n))


def test_subgroup_element_matrix_is_the_parents_rows():
    for name, G in element_groups()[::7]:
        masks = lattice_masks(G) if G.order() <= 400 else normal_subgroup_masks(G)
        for m in masks[:: max(1, len(masks) // 5)]:
            H = G.subgroup_from_mask(m)
            assert np.array_equal(H._emat, G._emat[G.indices_of(m)])
            rebuilt = Group(G.degree, H.generators)
            assert H.elements() == rebuilt.elements(), name
            assert np.array_equal(H._emat, rebuilt._emat)
            assert np.array_equal(G.indices_of(rebuilt), G.indices_of(m))


def involutions(k: int, degree: int, shift: int) -> Group:
    """C2^k: generator i swaps the points i and i + shift."""
    gens = []
    for i in range(k):
        images = list(range(degree))
        images[i], images[i + shift] = i + shift, i
        gens.append(Permutation(images))
    return Group(degree, gens)


@pytest.mark.parametrize(
    "make",
    [
        # degree ** |base| = 80 ** 10 > 2 ** 63
        lambda: involutions(10, 80, 40),
        # 8192 ** 5 = 2 ** 65: a mixed-radix int64 key of base images wraps,
        # and elements differing by 4096 in the last base image collide
        lambda: involutions(5, 8192, 4096),
        lambda: Group(5, ()),
        lambda: Group(1, ()),
    ],
    ids=["C2^10-on-80", "C2^5-on-8192", "trivial", "degree-1"],
)
def test_element_index_is_exact(make):
    G = make()
    check_against_loop(G)
    elems = G.elements()
    assert [G.element_index(p) for p in elems] == list(range(len(elems)))
    outside = Permutation(range(G.degree)[::-1])
    assert G.contains(outside) == (outside in set(elems))


def test_table_build_memory_stays_near_the_table():
    G = direct_product(symmetric(6), cyclic(3))
    G = Group(G.degree, G.generators)
    tracemalloc.start()
    try:
        tbl = G.table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order() == 2160 and tbl.nbytes == 2160 * 2160 * 4
    assert peak < 2 * tbl.nbytes


def test_checked_group_is_freed_without_the_cycle_collector():
    """G's caches (the shared Sylow subgroups and systems, chief series,
    the quotients of the lemma suites) hold no reference back to G, so a
    dropped group and its table are freed at once rather than at the next
    full cyclic collection.  D8 is its own Sylow 2-subgroup, which G's
    cache must not keep, and A4 fails the canonical check at p = 2, which
    builds a failure witness."""
    witnessed = []
    gc.collect()
    gc.disable()
    try:
        for name, make in (
            ("S4", lambda: symmetric(4)),
            ("D12", lambda: dihedral(12)),
            ("D8", lambda: dihedral(8)),
            ("A4", lambda: alternating(4)),
        ):
            G = make()
            for p in primes_of(G):
                for mode in HypothesisMode:
                    hyp = verify_main(G, p, mode).witnesses["hypothesis"]
                    witnessed.append((name, p, mode, "failure" in hyp))
            verify_lemma_2_1(G)
            verify_lemma_2_2(G)
            assert any(k[0] == "quotient" for k in G.cache if isinstance(k, tuple))
            assert G.cache and G._table is not None
            ref = weakref.ref(G)
            del G
            assert ref() is None
    finally:
        gc.enable()
    assert ("D8", 2, HypothesisMode.EXISTS, False) in witnessed
    assert ("A4", 2, HypothesisMode.CANONICAL, True) in witnessed


NO_TABLE = {
    "S4": lambda: symmetric(4),
    "D24": lambda: dihedral(24),
    "C3xS3": lambda: direct_product(cyclic(3), symmetric(3)),
}


@pytest.mark.parametrize("name", sorted(NO_TABLE))
def test_remaining_no_table_fallbacks_agree(name, monkeypatch):
    """normal_closure on generators, which runs above DEFAULT_TABLE_CAP
    and tests membership in each group it generates by that group's own
    enumeration, gives the table path's subgroups."""
    ref = NO_TABLE[name]()
    masks = lattice_masks(ref)
    picks = masks[1 :: max(1, len(masks) // 6)]
    subgroups = [ref.subgroup_from_mask(m) for m in picks]
    want = [ref.mask_of(normal_closure(ref, H)) for H in subgroups]
    monkeypatch.setattr(groups, "DEFAULT_TABLE_CAP", 0)
    bare = Group(ref.degree, ref.generators)
    got = [normal_closure(bare, Group(H.degree, H.generators)) for H in subgroups]
    assert bare._table is None and bare._elements is None
    assert [ref.mask_of(K) for K in got] == want
