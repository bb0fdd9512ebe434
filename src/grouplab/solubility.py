"""Solubility-class predicates via chief series.

A chief series is built from the bottom on G's own table.  Every minimal
normal subgroup M of G over a normal N is N∨A, with A the normal closure of
any conjugacy class in M∖N; so the smallest join N∨A over these closures
(the normal atoms) is minimal normal over N.  Factor orders are reported
from the top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    Group,
    indices_from_mask,
    is_normal,
    mask_from_indices,
    normal_closure,
    subgroup_generated,
)
from .structure import (
    _join_subgroup_indices,
    _normal_atom_masks,
    o_p_prime,
    p_part,
    primes_of,
    sylow_subgroup,
)


@dataclass
class ChiefSeries:
    """Descending chain G = N_0 > N_1 > ... > N_k = 1 of normal-in-G
    subgroups with chief factors N_{i-1}/N_i."""

    group: Group
    chain: list[Group]
    factor_orders: list[int]


def chief_series(G: Group) -> ChiefSeries:
    """Chief series of G: from N = 1, repeatedly step to the smallest join
    of N with a normal atom of G, by (order, mask), until G is reached.

    G's cache keeps the chain and factor orders without G itself, so that
    it makes no reference cycle and a dropped G is freed at once."""
    cached = G.cache.get("chief")
    if cached is not None:
        return ChiefSeries(G, *cached)
    n = G.order()
    tbl = G.table(force=True)
    atoms = [(a, indices_from_mask(a, n)) for a in _normal_atom_masks(G)]
    cur, cur_idx = 1, np.array([0], dtype=np.int64)
    chain_idx = [cur_idx]
    while len(cur_idx) < n:
        joins = []
        for a, a_idx in atoms:
            if a | cur == cur:
                continue
            inter = (a & cur).bit_count()
            j_idx = _join_subgroup_indices(tbl, n, cur_idx, a_idx, inter)
            joins.append((len(j_idx), mask_from_indices(j_idx, n), j_idx))
        _, cur, cur_idx = min(joins, key=lambda j: j[:2])
        chain_idx.insert(0, cur_idx)
    chain = [G.subgroup_from_indices(idx) for idx in chain_idx]
    factors = [len(a) // len(b) for a, b in zip(chain_idx, chain_idx[1:])]
    G.cache["chief"] = (chain, factors)
    return ChiefSeries(group=G, chain=chain, factor_orders=factors)


def derived_subgroup(G: Group) -> Group:
    comms = []
    for i, a in enumerate(G.generators):
        for b in G.generators[i:]:
            comms.append(a.inverse() * b.inverse() * a * b)
    return normal_closure(G, subgroup_generated(G, comms))


def is_soluble(G: Group) -> bool:
    """The derived series reaches the trivial group."""
    hit = G.cache.get("soluble")
    if hit is None:
        cur = G
        while True:
            if cur.order() == 1:
                hit = True
                break
            nxt = derived_subgroup(cur)
            if nxt.order() == cur.order():
                hit = False
                break
            cur = nxt
        G.cache["soluble"] = hit
    return hit


def is_nilpotent(G: Group) -> bool:
    """Every Sylow subgroup is normal."""
    hit = G.cache.get("nilpotent")
    if hit is None:
        hit = all(
            is_normal(G, sylow_subgroup(G, p)) for p in primes_of(G)
        )
        G.cache["nilpotent"] = hit
    return hit


def is_supersoluble(G: Group) -> bool:
    """Every chief factor has prime order."""
    from .structure import is_prime

    return all(is_prime(f) for f in chief_series(G).factor_orders)


def is_p_soluble(G: Group, p: int) -> bool:
    """Every chief factor is a p-group or a p'-group."""
    return all(
        f % p != 0 or f == p_part(f, p) for f in chief_series(G).factor_orders
    )


def is_p_supersoluble(G: Group, p: int) -> bool:
    """p-soluble with every p-chief factor of order exactly p."""
    if not is_p_soluble(G, p):
        return False
    return all(
        f == p for f in chief_series(G).factor_orders if f % p == 0
    )


def is_p_nilpotent(G: Group, p: int) -> bool:
    """A normal Hall p'-subgroup exists."""
    return o_p_prime(G, p).order() == G.order() // p_part(G.order(), p)
