"""The subgroup lattice by cyclic extension from the soluble residual,
against the element-list oracle of ``tests/naive.py`` and the layered
closure it replaced, plus a digest that pins the lattices of a fixed
corpus and guards on which work a lattice does."""

import hashlib

import numpy as np
import pytest

import naive
from grouplab import groups, structure, theorems
from grouplab.corpus import (
    alternating,
    builtin_corpus,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    named_group,
    symmetric,
)
from grouplab.errors import DEFAULT_LATTICE_CAP
from grouplab.groups import Group, is_subnormal, quotient
from grouplab.runner import run_corpus
from grouplab.solubility import derived_series_masks
from grouplab.structure import (
    _closure_lattice,
    _lattice,
    lattice_masks,
    normal_subgroup_masks,
)


def mask_of_set(G: Group, S) -> int:
    index = {p: i for i, p in enumerate(G.elements())}
    return sum(1 << index[p] for p in S)


def by_order(masks) -> list[int]:
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def test_lattice_against_naive():
    extra = [
        ("A5", alternating(5)),
        ("S4xC2", direct_product(symmetric(4), cyclic(2))),
    ]
    cases = [(ng.name, ng.group) for ng in builtin_corpus(24)] + extra
    for name, G in cases:
        E = frozenset(G.elements())
        want = by_order(mask_of_set(G, H) for H in naive.all_subgroups(G.degree, E))
        assert lattice_masks(G) == want, name
    assert len(lattice_masks(extra[0][1])) == 59


LATTICE_DIGEST = "d1b1a2cdd129e6d606052628cef097bea57b9003e33f1ac049ca33eb7a97dd6c"


def test_lattice_digest():
    """SHA-256 of (name, lattice masks) over builtin_corpus(120), all under
    the lattice cap; the digest was taken from the layered closure that
    cyclic extension replaced."""
    h = hashlib.sha256()
    for ng in builtin_corpus(120):
        assert ng.group.order() <= DEFAULT_LATTICE_CAP
        masks = lattice_masks(ng.group)
        h.update(f"{ng.name} {[hex(m) for m in masks]}\n".encode())
    assert h.hexdigest() == LATTICE_DIGEST


def count_joins(monkeypatch) -> dict:
    calls = {"join": 0}
    join = structure._closure_indices

    def counting(*args, **kwargs):
        calls["join"] += 1
        return join(*args, **kwargs)

    monkeypatch.setattr(structure, "_closure_indices", counting)
    return calls


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: elementary_abelian(2, 4), id="C2^4"),
        pytest.param(lambda: symmetric(4), id="S4"),
        pytest.param(lambda: dihedral(24), id="D24"),
    ],
)
def test_soluble_lattice_makes_no_joins(monkeypatch, make):
    """A soluble group's residual is 1, so its whole lattice comes from
    cyclic extension and no subgroups are joined."""
    calls = count_joins(monkeypatch)
    G = make()
    assert derived_series_masks(G)[-1] == 1
    masks = lattice_masks(G)
    assert calls["join"] == 0
    assert masks == by_order(_closure_lattice(G, np.arange(G.order())))


@pytest.mark.parametrize(
    "make,count",
    [
        pytest.param(lambda: direct_product(alternating(5), cyclic(2)), 164, id="A5xC2"),
        pytest.param(lambda: symmetric(5), 156, id="S5"),
    ],
)
def test_insoluble_lattice_extends_the_residual(monkeypatch, make, count):
    """The residual A5 is seeded by the layered closure over its own
    cyclic subgroups; cyclic extension reaches the subgroups outside it."""
    calls = count_joins(monkeypatch)
    G = make()
    residual = derived_series_masks(G)[-1]
    assert residual.bit_count() == 60
    masks = lattice_masks(G)
    assert calls["join"] > 0
    assert len(masks) == count
    assert sum(1 for m in masks if m | residual == residual) == 59
    assert masks == by_order(_closure_lattice(G, np.arange(G.order())))


def test_derived_series_masks():
    for make, orders in [
        (lambda: symmetric(4), [24, 12, 4, 1]),
        (lambda: symmetric(5), [120, 60]),
        (lambda: direct_product(alternating(5), cyclic(2)), [120, 60]),
        (lambda: cyclic(1), [1]),
    ]:
        G = make()
        series = derived_series_masks(G)
        assert [m.bit_count() for m in series] == orders
        if len(series) > 1:
            E = frozenset(G.elements())
            comms = {a.inverse() * b.inverse() * a * b for a in E for b in E}
            assert series[1] == mask_of_set(G, naive.generated(G.degree, comms))


def test_lattice_leaves_normalizers_cached(monkeypatch):
    """Every lattice member's normalizer is computed while the lattice is
    built and kept as masks; later normalizer questions scan nothing."""
    G = direct_product(symmetric(4), cyclic(2))
    masks = lattice_masks(G)
    known = {
        k[1]: v
        for k, v in G.cache.items()
        if isinstance(k, tuple) and k[0] == "normalizer"
    }
    assert set(masks) <= set(known)
    assert all(isinstance(m, int) and isinstance(v, int) for m, v in known.items())
    E = frozenset(G.elements())
    elems = G.elements()
    for m in masks[:: max(1, len(masks) // 20)]:
        H = frozenset(elems[int(i)] for i in G.indices_of(m))
        assert known[m] == mask_of_set(G, naive.normalizer_set(E, H))

    def no_scan(*args, **kwargs):
        raise AssertionError("normalizer scanned again")

    monkeypatch.setattr(groups, "_scan_normalizer", no_scan)
    subnormal = [m for m in masks if is_subnormal(G, m)]
    assert 1 in subnormal and masks[-1] in subnormal


def test_normalizers_above_the_derived_subgroup_are_stored_unscanned(monkeypatch):
    """Over corpus 48, building the lattice scans no member containing G',
    every member's stored normalizer equals a fresh scan, and the record's
    normal members are those whose scanned normalizer is G."""
    scan = groups._scan_normalizer
    scanned = []

    def recorded(G, mask):
        scanned.append(mask)
        return scan(G, mask)

    monkeypatch.setattr(groups, "_scan_normalizer", recorded)
    for ng in builtin_corpus(48):
        G = ng.group
        full = (1 << G.order()) - 1
        derived = derived_series_masks(G)
        commutator = derived[1] if len(derived) > 1 else derived[0]
        scanned.clear()
        lat = _lattice(G)
        assert all(k & commutator != commutator for k in scanned), ng.name
        scans = [scan(G, m) for m in lat.masks]
        assert [G.cache[("normalizer", m)] for m in lat.masks] == scans, ng.name
        assert lat.normal == [m for m, nm in zip(lat.masks, scans) if nm == full]


def test_lattice_record_against_normal_subgroup_masks():
    """The record's normal members, read from the normalizers cached while
    the lattice is built, are the join closure's list, in the same order,
    and its order buckets cut the members into runs in lattice order: over
    the corpus and over every G/N of three groups with several normal
    subgroups."""
    cases = [ng.group for ng in builtin_corpus(48)]
    for name in ("S4", "D12", "S3xS3"):
        G = named_group(name).group
        cases += [quotient(G, nm).quotient for nm in normal_subgroup_masks(G)]
    for G in cases:
        lat = _lattice(G)
        assert lat.normal == normal_subgroup_masks(G)
        assert [m for k in sorted(lat.of_order) for m in lat.of_order[k]] == lat.masks
        assert all(m.bit_count() == k for k, ms in lat.of_order.items() for m in ms)
        assert [lat.row[m] for m in lat.masks] == list(range(len(lat.masks)))
        assert groups._row_masks(lat.rows) == lat.masks


def test_lemma_suites_build_no_join_closure(monkeypatch):
    """The lemma suites take G's normal subgroups from the lattice record,
    so they run without ``normal_subgroup_masks``."""

    def refuse(G):
        raise AssertionError("normal_subgroup_masks called")

    monkeypatch.setattr(structure, "normal_subgroup_masks", refuse)
    monkeypatch.setattr(theorems, "normal_subgroup_masks", refuse, raising=False)
    report = run_corpus(builtin_corpus(32), ["lemmas"])
    assert report.records and report.failed == 0
