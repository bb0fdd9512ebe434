import naive
from grouplab.corpus import (
    builtin_corpus,
    cyclic,
    direct_product,
    elementary_abelian,
    quaternion8,
    symmetric,
)
from grouplab.groups import _normalizer_mask, normalizer
from grouplab.perms import Permutation
from grouplab.solubility import (
    _p_nilpotent_mask,
    chief_series,
    derived_subgroup,
    is_nilpotent,
    is_p_nilpotent,
    is_p_soluble,
    is_p_supersoluble,
    is_soluble,
    is_supersoluble,
)
from grouplab.structure import (
    all_sylow_subgroups,
    o_p_prime,
    p_part,
    primes_of,
    sylow_subgroup,
)


def test_chief_series_s4(s4):
    cs = chief_series(s4)
    assert cs.factor_orders == [2, 3, 4]
    orders = [g.order() for g in cs.chain]
    assert orders == [24, 12, 4, 1]
    # every chain member is normal in G
    from grouplab.groups import is_normal

    for H in cs.chain:
        assert is_normal(s4, H)


def test_chief_series_edge_cases(a5):
    assert chief_series(cyclic(7)).factor_orders == [7]
    assert chief_series(a5).factor_orders == [60]
    assert chief_series(cyclic(1)).factor_orders == []


def test_chief_series_against_naive_normal_subgroups():
    # every chain member is normal and no normal subgroup lies strictly
    # between neighbours, by the element-list oracle
    groups = [ng.group for ng in builtin_corpus(32)]
    groups += [quaternion8(), direct_product(symmetric(3), symmetric(3))]
    for G in groups:
        E = naive.closure(G.degree, G.generators)
        normals = naive.normal_subgroups(G.degree, E)
        chain = [frozenset(H.elements()) for H in chief_series(G).chain]
        assert chain[0] == E
        assert chain[-1] == {Permutation.identity(G.degree)}
        assert all(H in normals for H in chain)
        for upper, lower in zip(chain, chain[1:]):
            assert lower < upper
            assert not any(lower < N < upper for N in normals)


def test_soluble(s4, a5):
    assert is_soluble(s4)
    assert not is_soluble(a5)
    assert is_soluble(cyclic(1))
    # derived series of A5 stabilizes at A5
    assert derived_subgroup(a5).order() == 60


def test_soluble_agrees_with_chief_characterization(a5, s5):
    groups = [ng.group for ng in builtin_corpus(30)] + [a5, s5]
    for G in groups:
        via_chief = all(
            len(naive.prime_factors(f)) == 1  # prime-power chief factors
            for f in chief_series(G).factor_orders
        )
        assert is_soluble(G) == via_chief


def test_nilpotent(q8):
    assert is_nilpotent(q8)
    assert is_nilpotent(direct_product(quaternion8(), cyclic(3)))
    assert not is_nilpotent(symmetric(3))


def test_nilpotent_iff_every_sylow_subgroup_is_alone():
    """is_nilpotent reads the normal Sylow masks; it agrees with the Sylow
    counts, and a p-group above the enumeration cap is nilpotent without a
    table."""
    for ng in builtin_corpus(64):
        G = ng.group
        alone = all(all_sylow_subgroups(G, p).count == 1 for p in primes_of(G))
        assert is_nilpotent(G) == alone, ng.name
    E = elementary_abelian(7, 7)
    assert is_nilpotent(E) and E._table is None


def test_supersoluble(s4, q8):
    assert not is_supersoluble(s4)
    assert is_supersoluble(q8)
    assert is_supersoluble(cyclic(12))
    assert is_supersoluble(symmetric(3))


def test_p_soluble_p_supersoluble(a4, s3s3, a5):
    assert is_p_supersoluble(a4, 3)
    assert not is_p_supersoluble(a4, 2)
    assert is_p_supersoluble(s3s3, 2)
    assert is_p_soluble(a4, 2) and is_p_soluble(a4, 3)
    assert not is_p_soluble(a5, 2)
    assert not is_p_soluble(a5, 3)


def test_p_nilpotent(s3, s4, q8):
    assert is_p_nilpotent(s3, 2)
    assert not is_p_nilpotent(s4, 2)
    assert is_p_nilpotent(q8, 2)
    assert not is_p_nilpotent(s3, 3)


def test_class_implication_chain_over_corpus():
    for ng in builtin_corpus(36):
        G = ng.group
        if G.order() == 1:
            continue
        nil, sup, sol = is_nilpotent(G), is_supersoluble(G), is_soluble(G)
        if nil:
            assert sup
        if sup:
            assert sol
        for p in primes_of(G):
            psup, psol = is_p_supersoluble(G, p), is_p_soluble(G, p)
            if psup:
                assert psol
            if sup:
                assert psup


def test_smallest_prime_p_supersoluble_implies_p_nilpotent():
    # the applications section's opening remark, as a corpus property
    checked = 0
    for ng in builtin_corpus(60):
        G = ng.group
        if G.order() == 1:
            continue
        p = primes_of(G)[0]
        if is_p_supersoluble(G, p):
            assert is_p_nilpotent(G, p)
            checked += 1
    assert checked > 40


def test_predicates_match_naive_oracle():
    for ng in builtin_corpus(24):
        G = ng.group
        if G.order() == 1:
            continue
        E = naive.closure(G.degree, G.generators)
        assert is_supersoluble(G) == naive.is_supersoluble(G.degree, E)
        for p in primes_of(G):
            assert is_p_nilpotent(G, p) == naive.is_p_nilpotent(G.degree, E, p)
            # and on N_G(P), given to the library as a mask over G
            P = sylow_subgroup(G, p)
            NP = naive.normalizer_set(E, frozenset(P.elements()))
            nm = _normalizer_mask(G, G.mask_of(P))
            assert _p_nilpotent_mask(G, nm, p) == naive.is_p_nilpotent(G.degree, NP, p)


def test_p_nilpotent_mask_against_o_p_prime():
    """p-nilpotency read from element orders agrees with the normal Hall
    p'-subgroup test through ``o_p_prime``, for G and for N_G(P)."""
    pairs = 0
    for ng in builtin_corpus(120):
        G = ng.group
        for p in primes_of(G):
            NP = normalizer(G, sylow_subgroup(G, p))
            for H in (G, NP):
                want = o_p_prime(H, p).order() == H.order() // p_part(H.order(), p)
                assert _p_nilpotent_mask(G, G.mask_of(H), p) == want
            pairs += 1
    assert pairs == 1363
