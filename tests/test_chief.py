"""Cyclic subgroups, normal atoms and chief series on G's table, against
the element-list oracle of ``tests/naive.py``, plus a digest that pins the
chain masks and factor orders of a fixed corpus and guards on which work a
chief series does."""

import hashlib

import numpy as np
import pytest

import naive
from grouplab import groups, structure
from grouplab.corpus import (
    alternating,
    builtin_corpus,
    cyclic,
    direct_product,
    symmetric,
)
from grouplab.groups import Group
from grouplab.perms import Permutation
from grouplab.solubility import chief_series
from grouplab.structure import _cyclic_masks, _normal_atom_masks

EXTRA = {
    "A5": lambda: alternating(5),
    "S5": lambda: symmetric(5),
    "C11xC17": lambda: direct_product(cyclic(11), cyclic(17)),
    "S4xS4": lambda: direct_product(symmetric(4), symmetric(4)),
}


def oracle_groups():
    groups = [(ng.name, ng.group) for ng in builtin_corpus(48)]
    return groups + [(name, make()) for name, make in EXTRA.items()]


def mask_of_set(G: Group, S) -> int:
    index = {p: i for i, p in enumerate(G.elements())}
    return sum(1 << index[p] for p in S)


def naive_classes(E: frozenset) -> list[frozenset]:
    classes, seen = [], set()
    for g in sorted(E, key=lambda p: p.images):
        if g not in seen:
            cls = frozenset(x.inverse() * g * x for x in E)
            seen |= cls
            classes.append(cls)
    return classes


def test_cyclic_masks_against_naive():
    for name, G in oracle_groups():
        elems = G.elements()
        E = frozenset(elems)
        idx = np.arange(len(elems))[::-1]  # rows follow idx, in any order
        got = _cyclic_masks(G, idx)
        want = [mask_of_set(G, naive.generated(G.degree, [elems[i]])) for i in idx]
        assert got == want, name
        assert set(got) == {
            mask_of_set(G, C) for C in naive.cyclic_subgroups(G.degree, E)
        }, name


def test_normal_atoms_against_naive():
    for name, G in oracle_groups():
        E = frozenset(G.elements())
        ident = Permutation.identity(G.degree)
        closures = {
            mask_of_set(G, naive.normal_closure(G.degree, E, cls))
            for cls in naive_classes(E)
            if cls != {ident}
        }
        want = sorted(closures, key=lambda m: (m.bit_count(), m))
        assert _normal_atom_masks(G) == want, name


CHIEF_DIGEST = "b7f935dd6edce4ce9aab37baf93451cc7e8c0157cb2826e8cc5d81d8aa66516e"


def test_chief_series_digest():
    """SHA-256 of (name, chain masks, factor orders) over builtin_corpus(120);
    the digest was taken before the chief series was kept as masks."""
    h = hashlib.sha256()
    for ng in builtin_corpus(120):
        cs = chief_series(ng.group)
        h.update(f"{ng.name} {[hex(m) for m in cs.masks]} {cs.factor_orders}\n".encode())
    assert h.hexdigest() == CHIEF_DIGEST


@pytest.mark.parametrize(
    "make,abelian",
    [
        pytest.param(lambda: direct_product(cyclic(11), cyclic(17)), True, id="C11xC17"),
        pytest.param(lambda: symmetric(4), False, id="S4"),
    ],
)
def test_chief_series_builds_no_closures_or_groups(monkeypatch, make, abelian):
    """Central classes need no closure, and the chain's groups are built
    only when ``chain`` is read."""
    calls = {"closure": 0, "subgroup": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for module in (groups, structure):
        monkeypatch.setattr(
            module, "_closure_indices", counting("closure", groups._closure_indices)
        )
    monkeypatch.setattr(
        Group,
        "subgroup_from_indices",
        counting("subgroup", Group.subgroup_from_indices),
    )
    G = make()
    cs = chief_series(G)
    assert calls["subgroup"] == 0
    if abelian:
        assert calls["closure"] == 0
    chain = cs.chain
    assert calls["subgroup"] == len(cs.masks)
    assert [G.mask_of(H) for H in chain] == cs.masks
    assert [a.order() // b.order() for a, b in zip(chain, chain[1:])] == cs.factor_orders
