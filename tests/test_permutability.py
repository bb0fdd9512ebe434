
import pytest

import naive
from grouplab import permutability
from grouplab.corpus import builtin_corpus, named_group, symmetric
from grouplab.errors import DEFAULT_LATTICE_CAP, LatticeCapError
from grouplab.groups import _mask_rows, is_normal, normalizer, subgroup_generated
from grouplab.permutability import (
    _block_test,
    _lattice_predicate,
    _semipermutable_rows,
    _sylow_primes,
    is_s_permutable,
    is_s_semipermutable,
    is_semipermutable,
    product_set,
)
from grouplab.perms import Permutation
from grouplab.structure import (
    _lattice,
    _maximal_masks,
    all_subgroups,
    all_sylow_subgroups,
    o_p,
    p_part,
    p_residual,
    primes_of,
    sylow_subgroup,
)
from grouplab.theorems import HypothesisMode, main_hypothesis

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


# -- the Sylow pass against the per-subgroup scan ----------------------------------


def _first_failure_scan(G, mask, coprime_only):
    """The per-subgroup Sylow test without the normal-Sylow skip: one row
    against every Sylow subgroup of every prime (of coprime order only when
    ``coprime_only``), primes ascending, and the first (q, Q) that fails,
    None when none does."""
    row = _mask_rows([mask], G.order())
    for q in primes_of(G):
        if coprime_only and mask.bit_count() % q == 0:
            continue
        for Q in all_sylow_subgroups(G, q).masks:
            if not permutability.permutes_with(G, row, Q)[0]:
                return q, Q
    return None


def _pass_cases():
    for ng in builtin_corpus(64):
        yield ng.name, ng.group
    for name in ("S4xS4", "D10xA5"):
        yield name, named_group(name).group


@pytest.mark.parametrize("coprime_only", [False, True])
def test_sylow_pass_agrees_with_the_per_subgroup_scan(coprime_only):
    """On the maximal subgroups of P at every prime, over corpus 64 and two
    large products: the pass at the non-normal primes gives each row the
    verdict and the first failing (q, Q) of the scan without the skip, and
    the block predicate at every prime the same verdicts."""
    failures = 0
    for name, G in _pass_cases():
        for p in primes_of(G):
            masks = _maximal_masks(sylow_subgroup(G, p), G)
            rows = _mask_rows(masks, G.order())
            first, sent = _block_test(G, rows, coprime_only, _sylow_primes(G))
            got = [sent[f] if f >= 0 else None for f in first]
            want = [_first_failure_scan(G, m, coprime_only) for m in masks]
            assert got == want, (name, p)
            verdicts = permutability._block_predicate(G, rows, coprime_only)
            assert verdicts.tolist() == [w is None for w in want], (name, p)
            failures += sum(w is not None for w in want)
    assert failures > 100


def test_semipermutable_rows_reads_and_writes_the_predicate_cache():
    """The block pass leaves every verdict where ``is_s_semipermutable``
    finds it, and a failing verdict already cached gets the same (q, Q)
    as on a fresh group, from a one-row pass."""
    for name in ("A4", "S4", "C3xS3", "S3xS3"):
        for p in primes_of(named_group(name).group):
            fresh = named_group(name).group
            P = sylow_subgroup(fresh, p)
            masks = _maximal_masks(P, fresh)
            want = _semipermutable_rows(fresh, masks)
            assert want[0] == [fresh.cache[("s-semiperm", m)] for m in masks]
            assert want[0] == [is_s_semipermutable(fresh, m) for m in masks]
            warm = named_group(name).group
            masks = _maximal_masks(sylow_subgroup(warm, p), warm)
            for m in masks:
                is_s_semipermutable(warm, m)
            assert _semipermutable_rows(warm, masks) == want, (name, p)


def test_main_check_skips_normal_sylow_subgroups(monkeypatch):
    """A nilpotent group's main check sends no Sylow subgroup through the
    kernel, at any prime and in any mode; S4 at 2 still sends its four
    Sylow 3-subgroups, which its normal Klein four-group must all pass."""
    calls = []
    real = permutability.permutes_with

    def counted(G, rows, L):
        calls.append(G.mask_of(L))
        return real(G, rows, L)

    monkeypatch.setattr(permutability, "permutes_with", counted)
    for name in ("Q8xC3", "C2^3xC5"):
        G = named_group(name).group
        for p in primes_of(G):
            for mode in HypothesisMode:
                assert main_hypothesis(G, p, mode)[0], (name, p, mode)
        assert calls == [], name
    G = symmetric(4)
    assert not main_hypothesis(G, 2)[0]
    assert calls == all_sylow_subgroups(G, 3).masks

