"""The subgroup lattice by cyclic extension from {1} and the perfect
subgroups, against the element-list oracle of ``tests/naive.py`` and the
layered closure it replaced (``naive.closure_lattice``), plus digests that
pin the lattices of a fixed corpus, of A6 and of A5 x S3, and guards on
which work a lattice does."""

import hashlib

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
from grouplab.errors import DEFAULT_LATTICE_CAP, LatticeCapError
from grouplab.groups import Group, is_subnormal, quotient
from grouplab.perms import Permutation
from grouplab.runner import run_corpus
from grouplab.solubility import derived_series_masks
from grouplab.structure import (
    _lattice,
    _perfect_subgroup_masks,
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
    assert masks == naive.closure_lattice(G)


@pytest.mark.parametrize(
    "make,count",
    [
        pytest.param(lambda: direct_product(alternating(5), cyclic(2)), 164, id="A5xC2"),
        pytest.param(lambda: symmetric(5), 156, id="S5"),
    ],
)
def test_insoluble_lattice_extends_the_residual(monkeypatch, make, count):
    """The residual A5 is the one perfect seed besides 1, found among the
    closures <x, y>; cyclic extension reaches every other subgroup, the 58
    proper subgroups of A5 included."""
    calls = count_joins(monkeypatch)
    G = make()
    residual = derived_series_masks(G)[-1]
    assert residual.bit_count() == 60
    assert _perfect_subgroup_masks(G, residual) == [residual]
    masks = lattice_masks(G)
    assert calls["join"] > 0
    assert len(masks) == count
    assert sum(1 for m in masks if m | residual == residual) == 59
    assert masks == naive.closure_lattice(G)


def psl27() -> Group:
    """PSL(2,7) = GL(3,2), order 168, on the 7 points of the Fano plane."""
    return Group(
        7, [Permutation.parse(7, "(1 2 3 4 5 6 7)"), Permutation.parse(7, "(1 2)(3 6)")]
    )


def sl25() -> Group:
    """SL(2,5), order 120, on the 24 nonzero vectors of F_5^2, generated
    by [[1,1],[0,1]] and [[0,-1],[1,0]]."""
    vecs = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    pos = {v: i for i, v in enumerate(vecs)}

    def act(m):
        (a, b), (c, d) = m
        return Permutation([pos[(a * x + b * y) % 5, (c * x + d * y) % 5] for x, y in vecs])

    return Group(24, [act(((1, 1), (0, 1))), act(((0, -1), (1, 0)))])


@pytest.mark.parametrize(
    "make", [pytest.param(sl25, id="SL(2,5)"), pytest.param(psl27, id="PSL(2,7)")]
)
def test_perfect_group_lattice_against_closure(make):
    """Perfect groups, each its own residual and its one perfect seed
    besides 1.  SL(2,5) is not simple: its centre of order 2 is a
    non-perfect member inside R, which cyclic extension must reach from 1.
    Each lattice equals the layered closure's."""
    G = make()
    full = (1 << G.order()) - 1
    assert derived_series_masks(G) == [full]
    assert _perfect_subgroup_masks(G, full) == [full]
    assert lattice_masks(G) == naive.closure_lattice(G)


PINNED_LATTICES = {
    "A6": (501, "51b7110fc2914b35683b7ea82fc75d2da29498a7615530305956127c50365d67"),
    "A5xS3": (628, "01e321f0c9e60b905c1c90f1a29812849f230053a3d145136bb4a3d770f30def"),
}


@pytest.mark.parametrize(
    "name,make,perfect",
    [
        pytest.param("A6", lambda: alternating(6), [60] * 12 + [360], id="A6"),
        pytest.param(
            "A5xS3", lambda: direct_product(alternating(5), symmetric(3)), [60], id="A5xS3"
        ),
    ],
)
def test_lattice_is_pinned(name, make, perfect):
    """Lattices of order 360, too large for the layered closure in a test
    run: the member count and a SHA-256 of the masks, taken from the
    layered closure of the residual that the perfect seeds replaced.  A6's
    perfect subgroups are A6 and its two classes of six A5 each."""
    G = make()
    masks = lattice_masks(G)
    digest = hashlib.sha256(str([hex(m) for m in masks]).encode()).hexdigest()
    assert (len(masks), digest) == PINNED_LATTICES[name]
    residual = derived_series_masks(G)[-1]
    assert sorted(m.bit_count() for m in _perfect_subgroup_masks(G, residual)) == perfect


def test_residual_above_the_two_generated_bound_is_refused(monkeypatch):
    """The perfect seeds are complete only for a residual of order at most
    the bound; past it the lattice is refused, and a corpus run records the
    lemma parts that need G's lattice as skips.  Lemma 2.3 falls back to
    the lattices of the Sylow subgroups and says it sampled."""
    monkeypatch.setattr(structure, "_TWO_GENERATED_BOUND", 59)
    with pytest.raises(LatticeCapError, match="soluble residual of order 60"):
        lattice_masks(alternating(5))
    report = run_corpus([named_group("A5")], ["lemmas"])
    assert [r.check for r in report.records] == [
        "lemma-2.1", "lemma-2.2", "lemma-2.3", "lemma-2.4"
    ]
    for r in report.records:
        if r.check == "lemma-2.3":
            assert r.skipped is None and r.witnesses["sampled"] is True
        else:
            assert r.status.startswith("skipped:soluble residual of order 60")
    assert report.skipped == 3 and report.failed == 0


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
    the lattice is built, are the normal-subgroup search's list, in order,
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


def test_normal_subgroup_search_finds_an_abelian_lattice():
    """Every subgroup of an abelian group is normal, so the search over
    joins of normal atoms finds all 2,825 subgroups of C2^6, in lattice
    order."""
    G = elementary_abelian(2, 6)
    masks = normal_subgroup_masks(G)
    assert len(masks) == 2825
    assert masks == lattice_masks(G)


def test_lemma_suites_build_no_join_closure(monkeypatch):
    """The lemma suites take G's normal subgroups from the lattice record,
    so they run without ``normal_subgroup_masks``."""

    def refuse(G):
        raise AssertionError("normal_subgroup_masks called")

    monkeypatch.setattr(structure, "normal_subgroup_masks", refuse)
    monkeypatch.setattr(theorems, "normal_subgroup_masks", refuse, raising=False)
    report = run_corpus(builtin_corpus(32), ["lemmas"])
    assert report.records and report.failed == 0
