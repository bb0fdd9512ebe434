"""The batch permutability kernel against per-pair product sets.

``permutes_with`` decides HL = LH for a whole block of subgroups from
coset labels; ``product_set`` builds the two product sets of one pair and
is the reference here.  The lemma suites and ``verify_srinivasan`` must
reach their answers without building a product set at all.
"""

import numpy as np
import pytest

from grouplab import permutability, theorems
from grouplab.corpus import (
    builtin_corpus,
    dihedral,
    direct_product,
    named_group,
    symmetric,
)
from grouplab.groups import Group, _mask_rows, indices_from_mask, mask_from_indices
from grouplab.permutability import (
    is_s_permutable,
    is_s_semipermutable,
    permutes_with,
    product_set,
)
from grouplab.structure import (
    all_sylow_subgroups,
    lattice_masks,
    normal_subgroup_masks,
    primes_of,
)


def count_product_sets(monkeypatch) -> list:
    """Record every product_set call, wherever it is looked up."""
    calls = []
    real = permutability.product_set

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(permutability, "product_set", counted)
    monkeypatch.setattr(theorems, "product_set", counted)
    return calls


def engine_groups():
    for ng in builtin_corpus(24):
        yield pytest.param(ng.group, id=ng.name)
    yield pytest.param(named_group("A5").group, id="A5")
    yield pytest.param(named_group("S4xC2").group, id="S4xC2")


@pytest.mark.parametrize("G", engine_groups())
def test_kernel_matches_product_sets_on_every_pair(G):
    """Every pair (H, L) of lattice members, L not only a Sylow subgroup."""
    lat = lattice_masks(G)
    rows = _mask_rows(lat, G.order())
    for L in lat:
        got = permutes_with(G, rows, L).tolist()
        assert got == [product_set(G, H, L).equal for H in lat]


def reference_predicate(Q: Group, mask: int, coprime_only: bool) -> bool:
    """s-(semi)permutability by product sets, one Sylow subgroup at a time."""
    return all(
        product_set(Q, mask, S).equal
        for q in primes_of(Q)
        if not (coprime_only and mask.bit_count() % q == 0)
        for S in all_sylow_subgroups(Q, q).masks
    )


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: symmetric(4), id="S4"),
        pytest.param(lambda: dihedral(12), id="D12"),
        pytest.param(lambda: direct_product(symmetric(3), symmetric(3)), id="S3xS3"),
    ],
)
def test_quotient_batches_match_per_call_answers(make):
    """The image block in G/N, decided as one batch, against the images
    taken one subgroup at a time and decided one call at a time."""
    G = make()
    n = G.order()
    lat = lattice_masks(G)
    rows = _mask_rows(lat, n)
    for nm in normal_subgroup_masks(G):
        Q, block = theorems._images(G, nm, rows)
        _, proj = theorems._quotient(G, nm)
        images = [
            mask_from_indices(np.unique(proj[indices_from_mask(m, n)]), Q.order())
            for m in lat
        ]
        assert _mask_rows(images, Q.order()).tolist() == block.tolist()
        fresh = Group(Q.degree, Q.generators)  # no labels or predicates cached
        for coprime_only, single in (
            (False, is_s_permutable),
            (True, is_s_semipermutable),
        ):
            batch = permutability._block_predicate(Q, block, coprime_only).tolist()
            assert batch == [single(fresh, m) for m in images]
            assert batch == [reference_predicate(Q, m, coprime_only) for m in images]


def test_clean_lemma_runs_build_no_product_set(monkeypatch):
    calls = count_product_sets(monkeypatch)
    for G in (symmetric(4), dihedral(12)):
        records = theorems.verify_lemma_2_1(G) + theorems.verify_lemma_2_2(G)
        assert all(r.status == "ok" for r in records)
        assert sum(r.witnesses["instances"] for r in records) > 20
    assert calls == []


def test_srinivasan_on_a_3_group_builds_no_product_set(monkeypatch):
    """G is its own Sylow 3-subgroup: each of its 121 maximal subgroups M
    permutes with G, which the trivial coset labels of G decide."""
    G = named_group("C27xC3^4").group
    calls = count_product_sets(monkeypatch)
    rec = theorems.verify_srinivasan(G, "C27xC3^4")
    assert rec.witnesses == {"checked": 121, "supersoluble": True}
    assert rec.status == "ok" and calls == []


def test_cross_assertions_catch_wrong_labels(monkeypatch):
    """Right labels taken from the left cosets make HL = LH read true for
    every pair; the inverse-closedness test must catch it.  Labels of the
    single elements break the order law on both sides."""
    G = symmetric(3)
    lat = lattice_masks(G)
    rows = _mask_rows(lat, G.order())
    L = next(m for m in lat if m.bit_count() == 2)
    left, _, lidx = permutability._coset_labels(G, L)

    def labels(left_, right_):
        monkeypatch.setattr(
            permutability, "_coset_labels", lambda *args: (left_, right_, lidx)
        )

    labels(left, left)
    with pytest.raises(AssertionError, match="closed under inverses"):
        permutes_with(G, rows, L)

    ident = np.arange(G.order(), dtype=left.dtype)
    labels(ident, ident)
    with pytest.raises(AssertionError, match="cosets hit"):
        permutes_with(G, rows, L)
