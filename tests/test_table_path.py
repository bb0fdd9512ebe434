"""One table path: every group up to the enumeration cap gets its
multiplication table and every check runs on it; above the cap the table
raises and the runner records a skip.  Only ``normal_closure`` and the
p-group frame (Phi(P), the Burnside basis and the maximal subgroups of P)
keep a second path, on generators, above ``DEFAULT_TABLE_CAP`` or above
the group's own enumeration cap."""

import hashlib

import numpy as np
import pytest

from test_report_digest import DIGESTS

from grouplab import groups, structure
from grouplab.corpus import (
    NamedGroup,
    builtin_corpus,
    elementary_abelian,
    named_group,
    symmetric,
)
from grouplab.errors import DEFAULT_TABLE_CAP, EnumerationCapError
from grouplab.groups import Group, normal_closure
from grouplab.perms import Permutation
from grouplab.runner import run_corpus
from grouplab.solubility import is_soluble
from grouplab.structure import (
    frattini_p_group,
    maximal_subgroups_of_p_group,
    primes_of,
    smallest_generator_number,
    sylow_subgroup,
)
from grouplab.theorems import HypothesisMode, verify_main

MID_SIZE = ("C18xS5", "C27xC3^4", "D18xS5")


def test_table_exists_exactly_up_to_the_enumeration_cap():
    S4 = symmetric(4)
    tbl = S4.table()
    assert isinstance(tbl, np.ndarray) and tbl.shape == (24, 24)
    capped = Group(S4.degree, S4.generators, enum_cap=10)
    with pytest.raises(EnumerationCapError):
        capped.table()
    report = run_corpus([NamedGroup("S4", capped)], ["main"])
    assert report.records and report.skipped == len(report.records)
    assert all(r.status.startswith("skipped:") for r in report.records)


def test_soluble_check_of_s7_builds_no_element_data():
    G = symmetric(7)
    assert not is_soluble(G)
    assert G._table is None and G._elements is None


def test_generator_path_serves_a_group_above_its_enumeration_cap():
    """C2^6 with an enumeration cap of 32: its frame, maximal subgroups and
    normal closures take the generator path and list no elements."""
    E = elementary_abelian(2, 6)
    G = Group(E.degree, E.generators, enum_cap=32)
    assert smallest_generator_number(G) == 6
    assert frattini_p_group(G).order() == 1
    assert len(maximal_subgroups_of_p_group(G)) == 63
    assert normal_closure(G, G).order() == 64
    assert G._emat is None


def test_mid_size_main_report_digest():
    """The main check on groups of order 2049-2200, between
    DEFAULT_TABLE_CAP and the enumeration cap, pinned by the digest of the
    rendered report."""
    corpus = [ng for ng in builtin_corpus(2200) if ng.name in MID_SIZE]
    assert sorted(ng.name for ng in corpus) == sorted(MID_SIZE)
    text = run_corpus(corpus, ["main"]).render()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c3f630db40ecced1f06020c0937dd38a14e994a97b1c81aaeb18f442e5bf923c"
    )


def _count_chains(monkeypatch) -> list[int]:
    """The degrees of the stabilizer chains built from now on."""
    real, chains = groups._build_bsgs, []

    def counting(degree, generators):
        chains.append(degree)
        return real(degree, generators)

    monkeypatch.setattr(groups, "_build_bsgs", counting)
    return chains


@pytest.mark.parametrize("name", ["S4xS3", "C2^7"])
def test_main_check_builds_no_stabilizer_chain(monkeypatch, name):
    """On a relabelled enumerable group the main check, in every mode and
    at every prime, runs no Schreier-Sims: G enumerates its elements by
    coset enumeration, and the Sylow subgroup, Phi(P), its maximal
    subgroups and the witnesses' Sylow subgroups all take G's rows."""
    chains = _count_chains(monkeypatch)
    G0 = named_group(name).group
    points = list(range(G0.degree))
    points.reverse()
    s = Permutation(tuple(points[1:] + points[:1]))
    for p in primes_of(G0):
        for mode in HypothesisMode:
            G = Group(G0.degree, [s.inverse() * g * s for g in G0.generators])
            verify_main(G, p, mode)
            assert chains == [], (p, mode)


def test_membership_in_an_enumerable_group_builds_no_stabilizer_chain(monkeypatch):
    G0 = named_group("S4xS3").group
    chains = _count_chains(monkeypatch)
    G = Group(G0.degree, G0.generators)
    assert all(G.contains(g) for g in G0.generators)
    assert not G.contains(Permutation.parse(7, "(4 5)"))
    assert chains == [] and G._keys is not None


def test_a_group_above_its_enumeration_cap_builds_one_stabilizer_chain(monkeypatch):
    """C7^7 (order 823,543): the enumeration stops past the cap, and the
    order and membership come from one chain."""
    E = elementary_abelian(7, 7)
    chains = _count_chains(monkeypatch)
    G = Group(E.degree, E.generators)
    assert G.order() == 7**7 and G._emat is None
    assert G.contains(E.generators[0] * E.generators[-1])
    assert not G.contains(Permutation.parse(E.degree, "(1 8)"))
    assert chains == [E.degree]


@pytest.mark.parametrize("name", ["S7", "A7xC2"])
def test_orders_between_the_table_cap_and_the_enumeration_cap(monkeypatch, name):
    """DEFAULT_TABLE_CAP < |G| <= the enumeration cap: order() enumerates G
    and builds no stabilizer chain and no table, and the solubility test,
    on generators there, keeps its answer."""
    G0 = named_group(name).group
    chains = _count_chains(monkeypatch)
    G = Group(G0.degree, G0.generators)
    assert DEFAULT_TABLE_CAP < G.order() == 5040 <= G.enum_cap
    assert chains == [] and G._table is None and G._keys is None
    assert G._emat.shape == (5040, G.degree)
    assert not is_soluble(G)
    assert chains == [] and G._table is None


def test_generator_frame_keeps_the_main_report(monkeypatch):
    """With the frame's table path switched off, every p-group's frame and
    maximal subgroups are built on generators, and the main report over
    corpus 60 is unchanged."""
    monkeypatch.setattr(structure, "_on_table", lambda G: False)
    P = sylow_subgroup(symmetric(4), 2)
    assert all(M._emat is None for M in maximal_subgroups_of_p_group(P))
    text = run_corpus(builtin_corpus(60), ["main"]).render()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[60, "main"]
