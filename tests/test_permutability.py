
import pytest

import naive
from grouplab import permutability
from grouplab.corpus import builtin_corpus, symmetric
from grouplab.errors import DEFAULT_LATTICE_CAP, LatticeCapError
from grouplab.groups import is_normal, normalizer, subgroup_generated
from grouplab.permutability import (
    _lattice_predicate,
    is_s_permutable,
    is_s_semipermutable,
    is_semipermutable,
    product_set,
)
from grouplab.perms import Permutation
from grouplab.structure import (
    _lattice,
    all_subgroups,
    all_sylow_subgroups,
    o_p,
    p_part,
    p_residual,
    primes_of,
)

P = Permutation.parse


def test_product_set_s3(s3):
    H = subgroup_generated(s3, [P(3, "(1 2)")])
    K = subgroup_generated(s3, [P(3, "(1 2 3)")])
    r = product_set(s3, H, K)
    assert r.cardinality == 6 and r.equal and r.is_subgroup
    r2 = product_set(s3, H, subgroup_generated(s3, [P(3, "(1 3)")]))
    assert r2.cardinality == 4 and not r2.equal and not r2.is_subgroup
    r3 = product_set(s3, H, s3)
    assert r3.equal


def test_product_set_cardinality_law(s4):
    subs = all_subgroups(s4)
    for H in subs[::3]:
        for K in subs[::4]:
            r = product_set(s4, H, K)
            inter = s4.mask_of(H) & s4.mask_of(K)
            assert r.cardinality == H.order() * K.order() // inter.bit_count()
            assert r.hk.cardinality == r.kh.cardinality == r.cardinality
            # symmetry
            assert product_set(s4, K, H).equal == r.equal


def test_product_set_matches_oracle(s3, a4):
    for G in (s3, a4):
        E = naive.closure(G.degree, G.generators)
        subs = all_subgroups(G)
        for H in subs:
            for K in subs:
                r = product_set(G, H, K)
                HE = frozenset(H.elements())
                KE = frozenset(K.elements())
                assert r.equal == naive.permutes(HE, KE)


def test_is_s_permutable_examples(s3, s4):
    assert is_s_permutable(s3, subgroup_generated(s3, [P(3, "(1 2 3)")]))
    assert not is_s_permutable(s3, subgroup_generated(s3, [P(3, "(1 2)")]))
    V = subgroup_generated(s4, [P(4, "(1 2)(3 4)"), P(4, "(1 3)(2 4)")])
    assert is_s_permutable(s4, V)


def test_is_s_semipermutable_examples(s3, a4, q8):
    assert is_s_semipermutable(s3, subgroup_generated(s3, [P(3, "(1 2)")]))
    H2 = subgroup_generated(a4, [P(4, "(1 2)(3 4)")])
    assert not is_s_semipermutable(a4, H2)
    # Sylow subgroup of a p-group: vacuously true
    assert is_s_semipermutable(q8, q8)


def test_is_semipermutable_examples(s3, a4):
    assert is_semipermutable(s3, subgroup_generated(s3, [P(3, "(1 2)")]))
    # |H| covering all primes: only the trivial K is coprime
    assert is_semipermutable(s3, s3)
    H2 = subgroup_generated(a4, [P(4, "(1 2)(3 4)")])
    assert not is_semipermutable(a4, H2)


def test_semipermutable_cap_errors(s3):
    with pytest.raises(LatticeCapError):
        is_semipermutable(s3, subgroup_generated(s3, [P(3, "(1 2)")]), lattice_cap=2)


def test_separation_witness(s3):
    # s-semipermutable but not s-permutable, confirmed by the raw oracle
    H = subgroup_generated(s3, [P(3, "(1 2)")])
    assert is_s_semipermutable(s3, H) and not is_s_permutable(s3, H)
    E = naive.closure(3, s3.generators)
    HE = naive.closure(3, H.generators)
    assert naive.is_s_semipermutable(3, E, HE)
    assert not naive.is_s_permutable(3, E, HE)


def corpus_pairs(max_order):
    for ng in builtin_corpus(max_order):
        for H in all_subgroups(ng.group):
            yield ng.group, H


def test_implication_chain_over_corpus():
    seen_normal = seen_sp = seen_semi = 0
    for G, H in corpus_pairs(24):
        sp = is_s_permutable(G, H)
        ssp = is_s_semipermutable(G, H)
        semi = is_semipermutable(G, H)
        if is_normal(G, H):
            seen_normal += 1
            assert sp
        if sp:
            seen_sp += 1
            assert ssp
        if semi:
            seen_semi += 1
            assert ssp
    assert seen_normal > 50 and seen_sp > 50 and seen_semi > 50


def test_lemma_2_1_5_property_over_corpus():
    # intersections of s-permutable subgroups stay s-permutable
    count = 0
    for ng in builtin_corpus(24):
        G = ng.group
        sp = [H for H in all_subgroups(G) if is_s_permutable(G, H)]
        for i in range(len(sp)):
            for j in range(i + 1, min(len(sp), i + 6)):
                inter = G.subgroup_from_mask(G.mask_of(sp[i]) & G.mask_of(sp[j]))
                assert is_s_permutable(G, inter)
                count += 1
    assert count > 100


def test_lemma_2_1_6_property_over_corpus():
    # p-subgroups: s-permutable iff the normalizer contains the p-residual
    count = 0
    for G, H in corpus_pairs(24):
        n = H.order()
        ps = [p for p in primes_of(G) if n == p_part(n, p) and n > 1]
        if not ps:
            continue
        p = ps[0]
        lhs = is_s_permutable(G, H)
        nz = G.mask_of(normalizer(G, H))
        rhs = G.mask_of(p_residual(G, p)) | nz == nz
        assert lhs == rhs
        count += 1
    assert count > 100


def test_lemma_2_2_3_property_over_corpus():
    # inside the p-core, s-semipermutable implies s-permutable
    count = 0
    for G, H in corpus_pairs(24):
        n = H.order()
        ps = [p for p in primes_of(G) if n == p_part(n, p) and n > 1]
        if not ps:
            continue
        p = ps[0]
        core_mask = G.mask_of(o_p(G, p))
        h_mask = G.mask_of(H)
        if h_mask | core_mask != core_mask:
            continue
        if is_s_semipermutable(G, H):
            assert is_s_permutable(G, H)
            count += 1
    assert count > 40


def test_cache_consistency(s4):
    from grouplab.groups import Group

    H = subgroup_generated(s4, [P(4, "(1 2 3 4)")])
    warm = is_s_permutable(s4, H)
    # a fresh parent with no caches must agree
    fresh = Group(s4.degree, s4.generators)
    H2 = subgroup_generated(fresh, [P(4, "(1 2 3 4)")])
    assert is_s_permutable(fresh, H2) == warm
    assert is_s_permutable(s4, H) == warm



def test_lattice_predicate_sends_every_sylow_subgroup_through_the_kernel(
    monkeypatch,
):
    """S4's lattice vectors come from one kernel call for each of its 3
    Sylow 2-subgroups and 4 Sylow 3-subgroups, so the cross-assertions run
    on all of them."""
    calls = []
    real = permutability.permutes_with

    def counted(G, rows, L):
        calls.append(G.mask_of(L))
        return real(G, rows, L)

    monkeypatch.setattr(permutability, "permutes_with", counted)
    G = symmetric(4)
    _lattice_predicate(G, False, _lattice(G, DEFAULT_LATTICE_CAP))
    sylows = all_sylow_subgroups(G, 2).masks + all_sylow_subgroups(G, 3).masks
    assert len(sylows) == 7 and sorted(calls) == sorted(sylows)
