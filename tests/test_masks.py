"""Subgroups given as masks over the parent's element index must give the
same answers as the same subgroups given as Groups, and the lemma suites
build witness text only for a counterexample."""

import pytest

import naive
from grouplab import groups, theorems
from grouplab.corpus import alternating, cyclic, dihedral, direct_product, symmetric
from grouplab.errors import DEFAULT_LATTICE_CAP
from grouplab.groups import (
    Group,
    _normal_closure_indices,
    indices_from_mask,
    is_subnormal,
    mask_from_indices,
    normal_closure,
    normalizer,
)
from grouplab.permutability import (
    is_s_permutable,
    is_s_semipermutable,
    is_semipermutable,
    product_set,
)
from grouplab.solubility import derived_series_masks, is_soluble
from grouplab.structure import _lattice, all_sylow_subgroups, lattice_masks, primes_of


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
def test_sylows_within_overgroup(name, request):
    """The restriction parts take an overgroup K's Sylow subgroups from G's
    lattice; they must be those of K built as a group in its own right."""
    G = fresh(request.getfixturevalue(name))
    lat = _lattice(G)
    masks = lat.masks
    checked = 0
    for km in masks:
        K = G.subgroup_from_mask(km)
        k_idx = G.indices_of(K)
        within = theorems._sylows_within(G, lat, km)
        assert sorted(within) == primes_of(K)
        for q in primes_of(K):
            own = [
                mask_from_indices(k_idx[indices_from_mask(s, len(k_idx))], G.order())
                for s in all_sylow_subgroups(K, q).masks
            ]
            assert sorted(within[q]) == sorted(own)
            checked += 1
    assert checked >= len(masks) - 1  # every nontrivial K has a prime


def test_clean_lemma_runs_format_no_witness(monkeypatch):
    calls = []
    real = theorems._fmt_group
    monkeypatch.setattr(theorems, "_fmt_group", lambda H: calls.append(H) or real(H))
    for G in (symmetric(4), dihedral(12)):
        records = theorems.verify_lemma_2_1(G) + theorems.verify_lemma_2_2(G)
        assert all(r.status == "ok" for r in records)
        assert sum(r.witnesses["instances"] for r in records) > 20
    assert calls == []


def test_clean_lemma_runs_build_no_subgroup_of_g(monkeypatch):
    """With G's Sylow systems built, lemmas 2.1-2.3 decide everything on
    G's masks: no subgroup of G becomes a Group on a clean run."""
    real = Group.subgroup_from_indices
    for G in (symmetric(4), dihedral(12)):
        for p in primes_of(G):
            all_sylow_subgroups(G, p)
        parents = []
        monkeypatch.setattr(
            Group,
            "subgroup_from_indices",
            lambda self, idx: parents.append(self) or real(self, idx),
        )
        records = (
            theorems.verify_lemma_2_1(G)
            + theorems.verify_lemma_2_2(G)
            + theorems.verify_lemma_2_3(G)
        )
        monkeypatch.undo()
        assert all(r.status == "ok" for r in records)
        assert not any(H is G for H in parents)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: symmetric(4), id="S4"),
        pytest.param(lambda: direct_product(symmetric(3), symmetric(3)), id="S3xS3"),
        pytest.param(lambda: direct_product(alternating(5), cyclic(2)), id="A5xC2"),
    ],
)
def test_normal_closure_and_solubility_on_masks(make, monkeypatch):
    """The table closure of a mask and its derived series against
    normal_closure and is_soluble on the stabilizer chain."""
    monkeypatch.setattr(groups, "DEFAULT_TABLE_CAP", 0)
    G = make()
    n = G.order()
    soluble = set()
    for m in lattice_masks(G):
        closure = normal_closure(G, G.subgroup_from_mask(m))
        cm = mask_from_indices(_normal_closure_indices(G, m), n)
        assert cm == G.mask_of(closure)
        assert (derived_series_masks(G, cm)[-1] == 1) == is_soluble(closure)
        soluble.add(is_soluble(closure))
    assert soluble == ({True, False} if n == 120 else {True})


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
    # fail every restriction instance: the counterexample is the first one
    monkeypatch.setattr(theorems, "_permutes_with_sylows", lambda *args: False)
    rec = theorems.verify_lemma_2_2(G)[0]
    assert rec.check == "lemma-2.2.1" and rec.status == "VIOLATED"
    lat = _lattice(G, DEFAULT_LATTICE_CAP)
    m = theorems._ssp_p_subgroups(G, lat)[0][1]
    km = next(k for k in lat.masks if k != m and k | m == k)
    assert rec.witnesses["counterexample"] == {
        "subgroup": theorems._fmt_group(G.subgroup_from_mask(m)),
        "intermediate": theorems._fmt_group(G.subgroup_from_mask(km)),
    }
