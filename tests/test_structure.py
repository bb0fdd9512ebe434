
import pytest

import naive
from grouplab import groups
from grouplab.corpus import (
    builtin_corpus,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    named_group,
    quaternion8,
    symmetric,
)
from grouplab.errors import LatticeCapError, NotAPGroupError
from grouplab.groups import is_normal, normalizer, quotient, subgroup_generated
from grouplab.perms import Permutation
from grouplab import structure
from grouplab.structure import (
    _element_orders,
    _maximal_data,
    _maximal_masks,
    all_subgroups,
    all_sylow_subgroups,
    frattini_p_group,
    is_complemented,
    is_hall,
    maximal_subgroups_of_p_group,
    md_families,
    minimal_normal_subgroups,
    normal_subgroup_masks,
    normal_subgroups,
    o_p,
    o_p_prime,
    p_part,
    p_residual,
    primes_of,
    smallest_generator_number,
    sylow_subgroup,
)

P = Permutation.parse


def test_sylow_orders(s4, s3):
    assert sylow_subgroup(s4, 2).order() == 8
    assert sylow_subgroup(s4, 3).order() == 3
    assert sylow_subgroup(s3, 5).is_trivial
    E = elementary_abelian(7, 7)
    assert sylow_subgroup(E, 7) is E  # p-group shortcut


def test_sylow_counts(s4, a4):
    assert all_sylow_subgroups(s4, 3).count == 4
    assert all_sylow_subgroups(s4, 2).count == 3
    assert all_sylow_subgroups(a4, 2).count == 1


def test_normal_sylow_mask_is_the_single_sylow_mask():
    """The p-elements number |G|_p exactly when the Sylow p-subgroup is the
    only one, and then they are its mask: over the corpus and over every
    G/N of four groups with several normal subgroups."""
    cases = [ng.group for ng in builtin_corpus(64)]
    for name in ("S4", "D12", "S3xS3", "C2xA4"):
        G = named_group(name).group
        cases += [quotient(G, nm).quotient for nm in normal_subgroup_masks(G)]
    for G in cases:
        for p in primes_of(G):
            masks = all_sylow_subgroups(G, p).masks
            expected = masks[0] if len(masks) == 1 else 0
            assert structure._normal_sylow_mask(G, p) == expected


def test_sylow_subgroup_is_shared():
    """A proper nontrivial Sylow subgroup is one object per (G, p), and it
    is the Sylow system's representative; 1 and G are not kept in G's
    cache, which would then hold G itself."""
    for ng in builtin_corpus(64):
        G = ng.group
        for p in (2, 3, 5, 7):
            P = sylow_subgroup(G, p)
            if 1 < P.order() < G.order():
                assert sylow_subgroup(G, p) is P, (ng.name, p)
                assert all_sylow_subgroups(G, p).representative is P, (ng.name, p)
            else:
                assert all_sylow_subgroups(G, p).representative.order() == P.order()
                assert ("sylow", p) not in G.cache, (ng.name, p)
                assert ("sylows", p) not in G.cache, (ng.name, p)


@pytest.fixture(scope="module")
def sylow_corpus():
    corpus = [ng.group for ng in builtin_corpus(120)]
    return corpus + [direct_product(symmetric(4), symmetric(4))]


def test_sylow_ascent_matches_permutation_reference(sylow_corpus):
    """The mask ascent picks the generators of the element-list ascent, and
    the Sylow subgroup takes G's rows: no Schreier-Sims runs on it."""
    for G in sylow_corpus:
        elems = frozenset(G.elements())
        for p in naive.prime_factors(G.order()):
            P = sylow_subgroup(G, p)
            if P is G:
                continue
            gens, S = naive.sylow_ascent(G.degree, elems, p)
            assert P.generators == gens, (G, p)
            assert frozenset(P.elements()) == S
            assert P._levels is None


def test_element_orders_match_permutation_orders(sylow_corpus):
    for G in sylow_corpus:
        assert _element_orders(G).tolist() == [x.order() for x in G.elements()]


def test_sylow_system_count_builds_no_group(monkeypatch, s4, a5):
    for G in (s4, a5, direct_product(symmetric(3), cyclic(4))):
        for p in naive.prime_factors(G.order()):
            system = all_sylow_subgroups(G, p)

            def refuse(*args, **kwargs):
                raise AssertionError("count built a Group")

            with monkeypatch.context() as m:
                m.setattr(groups.Group, "__init__", refuse)
                assert system.count == len(system.masks)


def test_sylow_congruences_over_corpus():
    for ng in builtin_corpus(48):
        G = ng.group
        for p in {2, 3, 5, 7} & set(naive.prime_factors(G.order())):
            sys_p = all_sylow_subgroups(G, p)
            assert sys_p.representative.order() == p_part(G.order(), p)
            assert sys_p.count % p == 1
            assert (G.order() // sys_p.representative.order()) % sys_p.count == 0


@pytest.mark.parametrize(
    "maker,count",
    [
        (lambda: symmetric(3), 6),
        (lambda: symmetric(4), 30),
        (lambda: __import__("grouplab.corpus", fromlist=["alternating"]).alternating(4), 10),
        (lambda: quaternion8(), 6),
        (lambda: dihedral(8), 10),
    ],
)
def test_golden_lattice_counts(maker, count):
    # each golden value confirmed against the naive layered-closure oracle
    G = maker()
    subs = all_subgroups(G)
    assert len(subs) == count
    oracle = naive.all_subgroups(G.degree, naive.closure(G.degree, G.generators))
    assert len(oracle) == count
    assert {frozenset(H.elements()) for H in subs} == oracle


def test_cyclic_prime_has_two_subgroups():
    assert len(all_subgroups(cyclic(7))) == 2


def test_lattice_cap():
    G = cyclic(30)
    with pytest.raises(LatticeCapError):
        all_subgroups(G, lattice_cap=10)


def test_normal_subgroups(s4, a5):
    assert sorted(H.order() for H in normal_subgroups(s4)) == [1, 4, 12, 24]
    assert sorted(H.order() for H in normal_subgroups(a5)) == [1, 60]
    # abelian: all subgroups are normal
    C12 = cyclic(12)
    assert len(normal_subgroups(C12)) == len(all_subgroups(C12))


def test_minimal_normal_subgroups(s4, c6, a5):
    assert [H.order() for H in minimal_normal_subgroups(s4)] == [4]
    assert sorted(H.order() for H in minimal_normal_subgroups(c6)) == [2, 3]
    assert [H.order() for H in minimal_normal_subgroups(a5)] == [60]


def test_frattini(d8):
    assert frattini_p_group(elementary_abelian(3, 2)).is_trivial
    phi = frattini_p_group(d8)
    assert phi.order() == 2
    assert frattini_p_group(cyclic(8)).order() == 4
    with pytest.raises(NotAPGroupError):
        frattini_p_group(cyclic(6))


def test_frattini_matches_maximal_intersection():
    # two independent computations of the same subgroup
    for G in (dihedral(8), quaternion8(), cyclic(8), elementary_abelian(2, 3), dihedral(16)):
        phi = frattini_p_group(G)
        E = naive.closure(G.degree, G.generators)
        assert frozenset(phi.elements()) == naive.frattini(G.degree, E)


def test_maximal_subgroups_counts(d8):
    ms = maximal_subgroups_of_p_group(d8)
    assert len(ms) == 3
    assert sorted(m.order() for m in ms) == [4, 4, 4]
    assert [m.order() for m in maximal_subgroups_of_p_group(cyclic(5))] == [1]
    E = elementary_abelian(3, 3)
    assert len(maximal_subgroups_of_p_group(E)) == (3**3 - 1) // (3 - 1)


def _points_group(degree, maps):
    """The group generated by the point maps ``maps`` on range(degree)."""
    return groups.Group(
        degree, [Permutation(tuple(f(x) for x in range(degree))) for f in maps]
    )


def _heisenberg27():
    # exponent 3: (x, y) -> (x + y, y) and (x, y) -> (x, y + 1) on F_3^2
    return _points_group(
        9,
        [
            lambda v: 3 * ((v // 3 + v % 3) % 3) + v % 3,
            lambda v: 3 * (v // 3) + (v % 3 + 1) % 3,
        ],
    )


def _c9_by_c3():
    # exponent 9: x -> x + 1 and x -> 4x on Z/9
    return _points_group(9, [lambda x: (x + 1) % 9, lambda x: 4 * x % 9])


ORACLE_P_GROUPS = {
    "D8": lambda: dihedral(8),
    "Q8": quaternion8,
    "C4xC2": lambda: direct_product(cyclic(4), cyclic(2)),
    "C27": lambda: cyclic(27),
    "C9xC3": lambda: direct_product(cyclic(9), cyclic(3)),
    "C3^3": lambda: elementary_abelian(3, 3),
    "He3": _heisenberg27,
    "C9:C3": _c9_by_c3,
    "Sylow2(S4xS4)": lambda: sylow_subgroup(
        direct_product(symmetric(4), symmetric(4)), 2
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_P_GROUPS))
def test_maximal_subgroups_are_maximal(name):
    """Every maximal subgroup exactly once, and the rows each gets from its
    hyperplane kernel are the group its generators generate."""
    P = ORACLE_P_GROUPS[name]()
    assert P.order() in (8, 27, 64)
    E = naive.closure(P.degree, P.generators)
    computed = [frozenset(M.elements()) for M in maximal_subgroups_of_p_group(P)]
    assert len(set(computed)) == len(computed)
    assert set(computed) == naive.maximal_subgroups(P.degree, E)
    for M, elems in zip(maximal_subgroups_of_p_group(P), computed):
        assert naive.closure(P.degree, M.generators) == elems
    assert frozenset(frattini_p_group(P).elements()) == naive.frattini(P.degree, E)


def test_parent_table_frame_matches_the_standalone_frame():
    """For every Sylow subgroup of corpus 60, and for Srinivasan's first
    Sylow subgroup by mask, Phi(P) and the maximal subgroups built on G's
    table have the generators and elements that P's own table gives them,
    and the masks handed to the checks' predicates are G's masks of the
    maximal subgroups, in ``_maximal_data`` order."""
    for ng in builtin_corpus(60):
        G = ng.group
        for p in structure.primes_of(G):
            shared = sylow_subgroup(G, p)
            first = G.subgroup_from_mask(all_sylow_subgroups(G, p).masks[0])
            for P in (shared, first):
                _, phi, basis, d = structure._p_group_frame(P, G)
                alone = frattini_p_group(P)
                assert phi.generators == alone.generators, ng.name
                assert phi.same_elements(alone), ng.name
                assert structure._p_group_frame(P, P)[2:] == (basis, d), ng.name
                maximals = _maximal_data(P, G)[1]
                alone = maximal_subgroups_of_p_group(P)
                assert [M.generators for M in maximals] == [
                    M.generators for M in alone
                ], ng.name
                assert all(M.same_elements(A) for M, A in zip(maximals, alone))
                assert _maximal_masks(P, G) == [G.mask_of(M) for M in maximals]


def test_cyclic_p_group_has_phi_as_its_maximal_subgroup():
    """d = 1: the one maximal subgroup is Phi(P) itself, with no kernel
    rows; its mask is Phi(P)'s mask over the table's group."""
    D18 = dihedral(18)
    for P, G in ((cyclic(27), None), (cyclic(5), None), (sylow_subgroup(D18, 3), D18)):
        G = G or P
        functionals, maximals, masks = _maximal_data(P, G)
        assert functionals == [(1,)] and maximals == [frattini_p_group(P)]
        assert masks is None
        assert maximals[0] is structure._p_group_frame(P, G)[1]
        assert maximals[0].order() == P.order() // structure.p_group_prime(P)
        assert _maximal_masks(P, G) == [G.mask_of(maximals[0])]


def test_smallest_generator_number(d8):
    assert smallest_generator_number(elementary_abelian(7, 7)) == 7
    assert smallest_generator_number(cyclic(9)) == 1
    assert smallest_generator_number(cyclic(8)) == 1
    assert smallest_generator_number(d8) == 2


def test_md_families_d8(d8):
    fams = list(md_families(d8))
    assert len(fams) == 3
    phi = frattini_p_group(d8)
    for fam in fams:
        assert fam.d == 2 and len(fam.members) == 2
        inter = frozenset(fam.members[0].elements()) & frozenset(
            fam.members[1].elements()
        )
        assert inter == frozenset(phi.elements())
    oracle = naive.md_families(4, naive.closure(4, d8.generators))
    assert len(oracle) == 3


def test_md_families_c_p():
    fams = list(md_families(cyclic(5)))
    assert len(fams) == 1
    assert fams[0].members[0].is_trivial


def test_md_families_elementary_abelian_p2():
    for p in (2, 3, 5):
        E = elementary_abelian(p, 2)
        fams = list(md_families(E))
        assert len(fams) == (p + 1) * p // 2


def test_md_families_canonical_first_and_deterministic(d8):
    first = next(iter(md_families(d8)))
    second = next(iter(md_families(d8)))
    key = lambda fam: [sorted(m.elements()) for m in fam.members]
    assert key(first) == key(second)
    # limit bounds enumeration
    assert len(list(md_families(elementary_abelian(2, 3), limit=4))) == 4


def test_op_and_residuals(s4, c6):
    assert o_p(s4, 2).order() == 4
    assert o_p_prime(s4, 2).order() == 1
    assert p_residual(c6, 2).order() == 3
    assert p_residual(c6, 3).order() == 2
    assert p_residual(s4, 2).order() == 12  # A4
    # o_p is the largest normal p-subgroup
    for G in (s4, c6, dihedral(12)):
        for p in naive.prime_factors(G.order()):
            core = o_p(G, p)
            assert is_normal(G, core)
            best = max(
                (
                    H.order()
                    for H in normal_subgroups(G)
                    if H.order() == p_part(H.order(), p)
                ),
                default=1,
            )
            assert core.order() == best
    # o_p_prime dually
    for G in (s4, c6, dihedral(12)):
        for p in naive.prime_factors(G.order()):
            co = o_p_prime(G, p)
            assert is_normal(G, co)
            best = max(
                H.order() for H in normal_subgroups(G) if H.order() % p != 0
            )
            assert co.order() == best


def test_p_residual_is_smallest_with_p_quotient(s4):
    R = p_residual(s4, 2)
    assert is_normal(s4, R)
    # quotient order is the 2-part
    assert (s4.order() // R.order()) == p_part(s4.order() // R.order(), 2)
    # no smaller normal subgroup has p-power quotient
    for H in normal_subgroups(s4):
        q = s4.order() // H.order()
        if q == p_part(q, 2):
            assert H.order() >= R.order()


def test_is_hall(s4):
    assert is_hall(s4, sylow_subgroup(s4, 2))
    assert is_hall(s4, subgroup_generated(s4, []))
    assert not is_hall(s4, subgroup_generated(s4, [P(4, "(1 2)")]))


def test_is_complemented(a4, q8):
    V = subgroup_generated(a4, [P(4, "(1 2)(3 4)"), P(4, "(1 3)(2 4)")])
    ok, K = is_complemented(a4, V)
    assert ok and K.order() == 3
    center_q8 = subgroup_generated(q8, [q8.elements()[1]])  # unique involution
    assert center_q8.order() == 2
    ok, K = is_complemented(q8, center_q8)
    assert not ok and K is None


def test_normalizer_of_sylow(s4):
    P3 = sylow_subgroup(s4, 3)
    assert normalizer(s4, P3).order() == 6
