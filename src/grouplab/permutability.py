"""Subgroup permutability predicates over exact product sets.

``HK = KH`` is decided by comparing the two product bitmasks, never by an
order shortcut; the independent "is HK closed" computation is cross-asserted
against the equality check on every call, as a guard against engine bugs.

A subgroup argument is either a :class:`Group` or its bitmask over the
parent's element index (``G.mask_of(H)``); the predicates work on masks
throughout, comparing against the Sylow masks of ``SylowSystem.masks`` and
the lattice masks, so no subgroup ``Group`` is built on their account.
The same Sylow loop decides a predicate inside an overgroup K of H when
given K's Sylow masks in G's index, so K is never built either.

Predicate results are cached per (parent, element-set mask): the theorem
harness evaluates the same maximal subgroups many times.  Caching is
transparent because every predicate is a pure function of the two element
sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_LATTICE_CAP, LatticeCapError
from .groups import ElementSet, Group, mask_from_indices
from .structure import all_sylow_subgroups, lattice_masks, primes_of


@dataclass
class ProductSetResult:
    """The two product sets of a pair of subgroups of a common parent."""

    hk: ElementSet
    kh: ElementSet
    equal: bool
    is_subgroup: bool
    cardinality: int


def product_set(G: Group, H: Group | int, K: Group | int) -> ProductSetResult:
    """Exact product sets {hk} and {kh} inside G; H and K are subgroups of G
    or their masks over G's index.

    ``equal`` and ``is_subgroup`` are computed independently and must agree
    (HK = KH iff HK is a subgroup); |HK| = |H||K|/|H ∩ K| is asserted.
    """
    n = G.order()
    tbl = G.table()
    hidx = G.indices_of(H)
    kidx = G.indices_of(K)
    hk_mask = mask_from_indices(np.unique(tbl[np.ix_(hidx, kidx)]), n)
    kh_mask = mask_from_indices(np.unique(tbl[np.ix_(kidx, hidx)]), n)
    inter = (mask_from_indices(hidx, n) & mask_from_indices(kidx, n)).bit_count()
    expected = len(hidx) * len(kidx) // inter
    if hk_mask.bit_count() != expected or kh_mask.bit_count() != expected:
        raise AssertionError("|HK| != |H||K|/|H∩K|: product set engine bug")
    hk = ElementSet(G, hk_mask)
    kh = ElementSet(G, kh_mask)
    equal = hk_mask == kh_mask
    closed = hk.is_subgroup_set()
    if equal != closed:
        raise AssertionError("HK = KH inconsistent with HK being a subgroup")
    return ProductSetResult(
        hk=hk, kh=kh, equal=equal, is_subgroup=closed, cardinality=expected
    )


def _cached_predicate(G: Group, tag: str, H: Group | int, fn) -> bool:
    """fn(mask of H), cached in G under (tag, mask)."""
    mask = G.mask_of(H)
    key = (tag, mask)
    hit = G.cache.get(key)
    if hit is None:
        hit = fn(mask)
        G.cache[key] = hit
    return hit


def _permutes_with_sylows(
    G: Group, mask: int, coprime_only: bool, sylows=None
) -> bool:
    """Whether the subgroup with this mask permutes with every mask in
    ``sylows(q)``, for each prime q of |G| (only those not dividing its
    order when ``coprime_only``).  ``sylows(q)`` defaults to G's Sylow
    q-subgroups; the masks of an overgroup K's Sylow subgroups instead
    decide the predicate in K, since HL is the same set in K as in G."""
    if sylows is None:
        sylows = lambda q: all_sylow_subgroups(G, q).masks
    h_order = mask.bit_count()
    return all(
        product_set(G, mask, Q).equal
        for q in primes_of(G)
        if not (coprime_only and h_order % q == 0)
        for Q in sylows(q)
    )


def is_s_permutable(G: Group, H: Group | int) -> bool:
    """H permutes with every Sylow q-subgroup of G, for every prime q."""
    return _cached_predicate(
        G, "s-perm", H, lambda m: _permutes_with_sylows(G, m, False)
    )


def is_s_semipermutable(G: Group, H: Group | int) -> bool:
    """H permutes with every Sylow q-subgroup for every prime q not
    dividing |H|."""
    return _cached_predicate(
        G, "s-semiperm", H, lambda m: _permutes_with_sylows(G, m, True)
    )


def is_semipermutable(
    G: Group, H: Group | int, lattice_cap: int = DEFAULT_LATTICE_CAP
) -> bool:
    """H permutes with every subgroup of coprime order.

    Needs the full subgroup lattice; above the lattice cap this raises
    rather than approximating (even when a cached value exists, so cap
    behavior does not depend on call history).
    """
    if G.order() > lattice_cap:
        raise LatticeCapError(
            f"group of order {G.order()} exceeds the subgroup-lattice cap "
            f"{lattice_cap}",
            cap=lattice_cap,
            size=G.order(),
        )

    def compute(mask: int) -> bool:
        return all(
            product_set(G, mask, K).equal
            for K in lattice_masks(G, lattice_cap)
            if math.gcd(mask.bit_count(), K.bit_count()) == 1
        )

    return _cached_predicate(G, "semiperm", H, compute)
