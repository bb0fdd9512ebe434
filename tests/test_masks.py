"""Subgroups given as masks over the parent's element index must give the
same answers as the same subgroups given as Groups, and the lemma suites
build witness text only for a counterexample."""

import pytest

import naive
from grouplab import theorems
from grouplab.corpus import dihedral, symmetric
from grouplab.errors import DEFAULT_LATTICE_CAP
from grouplab.groups import Group, is_subnormal, normalizer
from grouplab.permutability import (
    is_s_permutable,
    is_s_semipermutable,
    is_semipermutable,
    product_set,
)
from grouplab.structure import lattice_masks


def fresh(G: Group) -> Group:
    """A copy of G with empty caches (same canonical element index)."""
    return Group(G.degree, G.generators)


def naive_subnormal(E: frozenset, H: frozenset) -> bool:
    while H != E:
        N = naive.normalizer_set(E, H)
        if N == H:
            return False
        H = N
    return True


@pytest.mark.parametrize("name", ["s4", "a4", "q8", "s3s3"])
def test_masks_and_groups_agree(name, request):
    G = request.getfixturevalue(name)
    by_mask, by_group = fresh(G), fresh(G)
    masks = lattice_masks(by_mask)
    groups = [by_group.subgroup_from_mask(m) for m in masks]
    E = naive.closure(G.degree, G.generators)
    sets = [frozenset(H.elements()) for H in groups]
    for m, H, HE in zip(masks, groups, sets):
        for pred, oracle in (
            (is_s_permutable, naive.is_s_permutable),
            (is_s_semipermutable, naive.is_s_semipermutable),
            (is_semipermutable, naive.is_semipermutable),
        ):
            want = oracle(G.degree, E, HE)
            assert pred(by_mask, m) == pred(by_group, H) == want
        assert is_subnormal(by_mask, m) == is_subnormal(by_group, H)
        assert is_subnormal(by_mask, m) == naive_subnormal(E, HE)
        N = normalizer(by_group, H)
        assert frozenset(N.elements()) == naive.normalizer_set(E, HE)
        for km, K, KE in zip(masks, groups, sets):
            a = product_set(by_mask, m, km)
            b = product_set(by_group, H, K)
            assert (a.hk.mask, a.kh.mask) == (b.hk.mask, b.kh.mask)
            assert (a.equal, a.is_subgroup, a.cardinality) == (
                b.equal,
                b.is_subgroup,
                b.cardinality,
            )
            assert a.equal == naive.permutes(HE, KE)


@pytest.mark.parametrize("name", ["s4", "a4", "q8", "s3s3"])
def test_mask_within_overgroup(name, request):
    G = fresh(request.getfixturevalue(name))
    masks = lattice_masks(G)
    pairs = 0
    for km in masks:
        K = theorems._standalone(G, km)
        for m in masks:
            if m | km == km:
                H = G.subgroup_from_mask(m)
                assert theorems._mask_within(G, km, m) == K.mask_of(H)
                pairs += 1
    assert pairs > len(masks)


def test_clean_lemma_runs_format_no_witness(monkeypatch):
    calls = []
    real = theorems._fmt_group
    monkeypatch.setattr(theorems, "_fmt_group", lambda H: calls.append(H) or real(H))
    for G in (symmetric(4), dihedral(12)):
        records = theorems.verify_lemma_2_1(G) + theorems.verify_lemma_2_2(G)
        assert all(r.status == "ok" for r in records)
        assert sum(r.witnesses["instances"] for r in records) > 20
    assert calls == []


def test_counterexample_names_the_failing_subgroup(monkeypatch):
    G = symmetric(4)
    sp = [m for m in lattice_masks(G) if is_s_permutable(G, m)]
    target = sp[len(sp) // 2]
    real = theorems.is_subnormal
    monkeypatch.setattr(
        theorems, "is_subnormal", lambda G_, m: m != target and real(G_, m)
    )
    rec = theorems.verify_lemma_2_1(G)[0]
    assert rec.check == "lemma-2.1.1" and rec.status == "VIOLATED"
    text = rec.witnesses["counterexample"]["subgroup"]
    assert text == theorems._fmt_group(G.subgroup_from_mask(target))
    assert text.startswith(f"order {target.bit_count()} = <")


def test_restriction_counterexample_pairs_subgroup_and_overgroup(monkeypatch):
    G = dihedral(12)
    real = theorems.is_s_semipermutable
    # fail every restriction instance: the counterexample is the first one
    monkeypatch.setattr(
        theorems, "is_s_semipermutable", lambda K, h: K is G and real(K, h)
    )
    rec = theorems.verify_lemma_2_2(G)[0]
    assert rec.check == "lemma-2.2.1" and rec.status == "VIOLATED"
    lat = lattice_masks(G, DEFAULT_LATTICE_CAP)
    m = theorems._ssp_p_subgroups(G, DEFAULT_LATTICE_CAP)[0][1]
    km = next(k for k in lat if k != m and k | m == k)
    assert rec.witnesses["counterexample"] == {
        "subgroup": theorems._fmt_group(G.subgroup_from_mask(m)),
        "intermediate": theorems._fmt_group(G.subgroup_from_mask(km)),
    }
