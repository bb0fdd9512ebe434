import math
import pickle
import random

import numpy as np
import pytest

import naive
from grouplab.corpus import alternating, builtin_corpus, direct_product, symmetric
from grouplab.errors import EnumerationCapError, NotASubgroupError, NotNormalError
from grouplab.groups import (
    ElementSet,
    Group,
    center,
    centralizer,
    conjugate_subgroup,
    group_from_generators,
    intersection,
    is_normal,
    is_subnormal,
    normal_closure,
    normalizer,
    quotient,
    subgroup_generated,
)
from grouplab.perms import Permutation
from grouplab.structure import all_sylow_subgroups, normal_subgroup_masks, primes_of

P = Permutation.parse


def test_known_orders(s4, a4, q8, s3):
    assert s4.order() == 24
    assert a4.order() == 12
    assert q8.order() == 8
    assert s3.order() == 6


def test_empty_generators_trivial():
    G = group_from_generators(4, [])
    assert G.order() == 1
    assert G.elements() == (Permutation.identity(4),)


def test_seven_commuting_seven_cycles():
    gens = [
        Permutation.from_cycles(49, [range(b * 7 + 1, b * 7 + 8)]) for b in range(7)
    ]
    G = group_from_generators(49, gens)
    assert G.order() == 7**7 == 823543


def test_membership(a4):
    assert not a4.contains(P(4, "(1 2)"))
    assert a4.contains(P(4, "(1 2 3)"))


def test_elements_sorted_unique(s4):
    elems = s4.elements()
    assert len(elems) == 24 == len(set(elems))
    assert list(elems) == sorted(elems)
    assert elems[0].is_identity


def test_membership_agrees_with_element_list(s4):
    elems = set(s4.elements())
    rng = random.Random(99)
    for _ in range(1000):
        imgs = list(range(4))
        rng.shuffle(imgs)
        p = Permutation(imgs)
        assert s4.contains(p) == (p in elems)


def test_enumeration_cap():
    gens = [
        Permutation.from_cycles(49, [range(b * 7 + 1, b * 7 + 8)]) for b in range(7)
    ]
    G = group_from_generators(49, gens)
    with pytest.raises(EnumerationCapError) as exc:
        G.elements()
    assert "10000" in str(exc.value)  # names the cap


def test_random_groups_match_closure_oracle():
    rng = random.Random(4321)
    for _ in range(60):
        n = rng.randint(1, 6)
        gens = []
        for _ in range(rng.randint(0, 3)):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        G = group_from_generators(n, gens)
        E = naive.closure(n, gens)
        assert G.order() == len(E)
        assert frozenset(G.elements()) == E


def test_subgroup_generated(s3, s4):
    H = subgroup_generated(s3, [P(3, "(1 2 3)")])
    assert H.order() == 3
    assert subgroup_generated(s4, []).order() == 1
    K = subgroup_generated(s4, [P(4, "(1 2)(3 4)"), P(4, "(1 3)(2 4)")])
    assert K.order() == 4
    with pytest.raises(NotASubgroupError):
        subgroup_generated(
            group_from_generators(4, [P(4, "(1 2 3)"), P(4, "(2 3 4)")]),
            [P(4, "(1 2)")],
        )


def test_lagrange_over_sample(s4, a4, q8, s3s3):
    from grouplab.structure import all_subgroups

    for G in (s4, a4, q8, s3s3):
        assert math.factorial(G.degree) % G.order() == 0
        for H in all_subgroups(G):
            assert G.order() % H.order() == 0


def test_conjugate_subgroup(s4):
    H = subgroup_generated(s4, [P(4, "(1 2)")])
    Hg = conjugate_subgroup(s4, H, P(4, "(2 3)"))
    assert Hg.order() == 2
    assert Hg.contains(P(4, "(1 3)"))


def test_is_normal(s4, s3):
    V = subgroup_generated(s4, [P(4, "(1 2)(3 4)"), P(4, "(1 3)(2 4)")])
    assert is_normal(s4, V)
    assert not is_normal(s3, subgroup_generated(s3, [P(3, "(1 2)")]))


def test_normal_closure(s3):
    H = subgroup_generated(s3, [P(3, "(1 2)")])
    assert normal_closure(s3, H).order() == 6
    N = subgroup_generated(s3, [P(3, "(1 2 3)")])
    assert normal_closure(s3, N).same_elements(N)


def test_normal_closure_matches_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 5)
        gens = []
        for _ in range(rng.randint(1, 2)):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        G = group_from_generators(n, gens)
        if G.order() > 200 or G.order() == 1:
            continue
        elems = G.elements()
        h = rng.choice(elems)
        H = subgroup_generated(G, [h])
        nc = normal_closure(G, H)
        oracle = naive.normal_closure(n, frozenset(elems), naive.closure(n, [h]))
        assert frozenset(nc.elements()) == oracle
        assert is_normal(G, nc)
        assert all(nc.contains(x) for x in H.elements())


def test_centralizer_normalizer_center(s4, q8):
    H3 = subgroup_generated(s4, [P(4, "(1 2 3)")])
    N = normalizer(s4, H3)
    assert N.order() == 6
    assert center(q8).order() == 2
    triv = subgroup_generated(s4, [])
    assert centralizer(s4, triv).same_elements(s4)
    # containments
    C = centralizer(s4, H3)
    assert all(N.contains(h) for h in H3.elements())
    assert all(N.contains(c) for c in C.elements())
    Z = center(s4)
    assert is_normal(s4, Z)
    assert all(a * b == b * a for a in Z.elements() for b in Z.elements())


def test_intersection(s4, a4, d8):
    D8_in_s4 = subgroup_generated(s4, [P(4, "(1 2 3 4)"), P(4, "(1 3)")])
    I = intersection(s4, D8_in_s4, a4)
    assert I.order() == 4


def test_quotient_s4_by_klein(s4):
    V = subgroup_generated(s4, [P(4, "(1 2)(3 4)"), P(4, "(1 3)(2 4)")])
    cm = quotient(s4, V)
    Q = cm.quotient
    assert Q.order() == 6
    assert V.order() * Q.order() == s4.order()
    # S3-like: non-commutative
    qe = Q.elements()
    assert any(a * b != b * a for a in qe for b in qe)
    # regular action
    assert Q.degree == 6


def test_quotient_homomorphism_random_pairs(s4):
    V = subgroup_generated(s4, [P(4, "(1 2)(3 4)"), P(4, "(1 3)(2 4)")])
    cm = quotient(s4, V)
    rng = random.Random(5)
    elems = s4.elements()
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        assert cm.project(a * b) == cm.project(a) * cm.project(b)


def test_quotient_a4_by_klein(a4):
    V = subgroup_generated(a4, [P(4, "(1 2)(3 4)"), P(4, "(1 3)(2 4)")])
    Q = quotient(a4, V).quotient
    assert Q.order() == 3
    assert all(a * b == b * a for a in Q.elements() for b in Q.elements())


def test_quotient_by_trivial_is_regular(s4):
    cm = quotient(s4, Group(4))
    assert cm.quotient.order() == 24
    assert cm.quotient.degree == 24


def test_quotient_requires_normal(s4):
    H = subgroup_generated(s4, [P(4, "(1 2)")])
    with pytest.raises(NotNormalError):
        quotient(s4, H)


@pytest.mark.parametrize("name", ["s4", "a4", "s3s3"])
def test_quotient_by_mask_numbers_cosets_by_least_element(name, request):
    """quotient takes N as a Group or its mask; cosets are numbered in the
    order of their least elements, as a scan over G's elements finds them."""
    G = request.getfixturevalue(name)
    tbl = G.table()
    for nm in normal_subgroup_masks(G):
        by_mask = quotient(G, nm)
        by_group = quotient(G, G.subgroup_from_mask(nm))
        nidx = G.indices_of(nm)
        coset_of, reps = [-1] * G.order(), []
        for i in range(G.order()):
            if coset_of[i] < 0:
                for j in tbl[nidx, i]:
                    coset_of[j] = len(reps)
                reps.append(i)
        for cm in (by_mask, by_group):
            assert cm.coset_of.tolist() == coset_of
            assert cm.reps.tolist() == reps
        assert by_mask.quotient.generators == by_group.quotient.generators
        assert by_mask.quotient.order() * nm.bit_count() == G.order()


def test_quotient_is_read_off_the_coset_table():
    """G/N takes its element matrix from G's table: it has the elements that
    Schreier-Sims finds from its generators, the projection is a
    homomorphism onto it, and no stabilizer chain is built for it."""
    corpus = [ng.group for ng in builtin_corpus(48)]
    for G in corpus + [alternating(5), direct_product(symmetric(4), symmetric(4))]:
        tbl = G.table()
        for nm in normal_subgroup_masks(G):
            cm = quotient(G, nm)
            Q, proj = cm.quotient, cm.coset_of
            assert Q.order() * nm.bit_count() == G.order()
            qtbl = Q.table()
            for p in primes_of(Q):
                all_sylow_subgroups(Q, p)
            assert Q._levels is None
            assert (proj[tbl] == qtbl[proj[:, None], proj[None, :]]).all()
            assert np.unique(proj).size == Q.order()
            assert Q.elements() == Group(Q.degree, Q.generators).elements()
            coset_perms = [
                Permutation(tuple(proj[tbl[cm.reps, G.element_index(g)]].tolist()))
                for g in G.generators
            ]
            assert Q.generators == Group(Q.degree, coset_perms).generators


def test_quotient_is_handed_its_table():
    """G/N's table is its element matrix transposed and its inverses the
    column of the identity in each row: both equal those of the group that
    G/N's generators build afresh, for every normal N (1 and G included),
    and G/N builds no element index for them."""
    for ng in builtin_corpus(32):
        G = ng.group
        for nm in normal_subgroup_masks(G):
            Q = quotient(G, nm).quotient
            fresh = Group(Q.degree, Q.generators)
            assert np.array_equal(Q.table(), fresh.table()), ng.name
            assert np.array_equal(Q.inverse_indices(), fresh.inverse_indices())
            assert Q._keys is None


def test_quotient_mask_requires_normal(s4):
    H = subgroup_generated(s4, [P(4, "(1 2)")])
    with pytest.raises(NotNormalError):
        quotient(s4, s4.mask_of(H))


def test_is_subnormal(s3, s4):
    N = subgroup_generated(s3, [P(3, "(1 2 3)")])
    assert is_subnormal(s3, N)
    assert not is_subnormal(s3, subgroup_generated(s3, [P(3, "(1 2)")]))
    # contract is the ascending normalizer chain: for <(1 3)(2 4)> it stalls
    # at the dihedral Sylow 2-subgroup (confirmed by the chain oracle), even
    # though a normal chain through the Klein group exists
    H = subgroup_generated(s4, [P(4, "(1 3)(2 4)")])
    chain = naive.closure(4, H.generators)
    E = frozenset(s4.elements())
    while True:
        nxt = naive.normalizer_set(E, chain)
        if nxt == chain:
            break
        chain = nxt
    assert len(chain) == 8  # the chain oracle stalls below S4
    assert not is_subnormal(s4, H)
    # self-normalizing chain stops for <(1 2)>
    assert not is_subnormal(s4, subgroup_generated(s4, [P(4, "(1 2)")]))


def test_element_set_subgroup_check(s3):
    H = subgroup_generated(s3, [P(3, "(1 2 3)")])
    es = ElementSet(s3, s3.mask_of(H))
    assert es.cardinality == 3
    assert es.is_subgroup_set()
    bad = ElementSet(s3, s3.mask_of(H) | 2)  # adjoin one stray element
    assert not bad.is_subgroup_set()


def test_group_equality_canonical(s4):
    A = subgroup_generated(s4, [P(4, "(1 2)(3 4)"), P(4, "(1 3)(2 4)")])
    B = subgroup_generated(s4, [P(4, "(1 3)(2 4)"), P(4, "(1 4)(2 3)")])
    assert A == B
    assert not (A == subgroup_generated(s4, [P(4, "(1 2)")]))


def test_pickle_round_trip():
    """A permutation and a group with its table built survive pickling, as
    the worker processes of ``run_corpus`` receive them."""
    g = P(5, "(1 2 3)(4 5)")
    h = pickle.loads(pickle.dumps(g))
    assert h == g and hash(h) == hash(g) and h.images == g.images
    G = symmetric(4)
    G.table()
    H = pickle.loads(pickle.dumps(G))
    assert H.generators == G.generators
    assert H.elements() == G.elements()
    assert np.array_equal(H.table(), G.table())
