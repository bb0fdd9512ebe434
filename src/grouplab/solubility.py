"""Solubility-class predicates via chief series.

A chief series is built from the bottom on G's own table.  Every minimal
normal subgroup M of G over a normal N is N∨A, with A the normal closure of
any conjugacy class in M∖N; so the smallest join N∨A over these closures
(the normal atoms, found from G's cyclic subgroups) is minimal normal over
N.  N and A are normal, so N∨A is the product set NA and its order
|N||A|/|N∩A| is known before it is built.  The atoms are kept as one bool
block over G's element index: each step counts |N∩A| for all of them over
N's columns at once, and builds only the joins of least order, together
in one block whose rows are read back as masks.  The chain is kept as
masks over G's element index, and its members become groups only when
``ChiefSeries.chain`` is read.  Factor orders are reported from the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import (
    Group,
    _cached,
    _closure_indices,
    _mask_rows,
    _on_table,
    indices_from_mask,
    mask_from_indices,
    normal_closure,
    subgroup_generated,
)
from .structure import (
    _element_orders,
    _normal_atom_masks,
    _normal_joins,
    _normal_sylow_mask,
    is_prime,
    p_part,
    primes_of,
)


@dataclass
class ChiefSeries:
    """Descending chain G = N_0 > N_1 > ... > N_k = 1 of normal-in-G
    subgroups with chief factors N_{i-1}/N_i; ``masks[i]`` is the mask of
    N_i over G's element index."""

    group: Group
    masks: list[int]
    factor_orders: list[int]

    @cached_property
    def chain(self) -> list[Group]:
        """The members N_i as groups, built from the masks on first read."""
        return [self.group.subgroup_from_mask(m) for m in self.masks]


def chief_series(G: Group) -> ChiefSeries:
    """Chief series of G: from N = 1, repeatedly step to the smallest join
    N∨A = NA with a normal atom A of G, by (order, mask), until G is
    reached.

    The atoms are the rows of one bool block over G's index, so |A∩N| for
    every atom is one count over N's columns, and the order of every join
    follows as |N||A|/|N∩A|.  Only the joins of least order are built,
    all into one block (``structure._normal_joins``), and each must have
    exactly that order.

    G's cache keeps the masks and factor orders without G itself, so that
    it makes no reference cycle and a dropped G is freed at once."""

    def build():
        n = G.order()
        atoms = _mask_rows(_normal_atom_masks(G), n)
        sizes = atoms.sum(axis=1)
        cur_idx = np.zeros(1, dtype=np.int64)
        masks = [1]
        while len(cur_idx) < n:
            meet = np.count_nonzero(atoms[:, cur_idx], axis=1)
            orders = np.where(meet < sizes, len(cur_idx) * sizes // meet, n + 1)
            least = orders == orders.min()
            joins = _normal_joins(G, cur_idx, atoms[least], sizes[least], orders[least])
            cur = min(joins)
            cur_idx = indices_from_mask(cur, n)
            masks.insert(0, cur)
        factors = [a.bit_count() // b.bit_count() for a, b in zip(masks, masks[1:])]
        return masks, factors

    return ChiefSeries(G, *_cached(G, "chief", build))


def derived_subgroup(G: Group) -> Group:
    comms = []
    for i, a in enumerate(G.generators):
        for b in G.generators[i:]:
            comms.append(a.inverse() * b.inverse() * a * b)
    return normal_closure(G, subgroup_generated(G, comms))


def derived_series_masks(G: Group, start: int | None = None) -> list[int]:
    """Masks of the derived series H = H^(0) > H^(1) > ... on G's table,
    for the subgroup H of G with mask ``start`` (G itself by default),
    ending at the first perfect term, the soluble residual H^(∞) (the mask
    1 when H is soluble).

    [H, H] is the closure of the commutators of H's elements; they are
    gathered for blocks of H's elements at a time, each block of at most
    2^18 commutators, so memory stays bounded.  G's cache keeps the masks
    of each start under ``("derived", start)``.
    """
    n = G.order()
    start = (1 << n) - 1 if start is None else start

    def build():
        tbl = G.table()
        inv = G.inverse_indices()
        cur = indices_from_mask(start, n)
        masks = [start]
        while len(cur) > 1:
            member = np.zeros(n, dtype=bool)
            step = max(1, (1 << 18) // len(cur))
            for lo in range(0, len(cur), step):
                a = cur[lo : lo + step, None]
                member[tbl[tbl[inv[a], inv[cur]], tbl[a, cur]]] = True
            nxt = _closure_indices(tbl, np.flatnonzero(member))
            if len(nxt) == len(cur):
                break
            cur = nxt
            masks.append(mask_from_indices(cur, n))
        return masks

    return _cached(G, ("derived", start), build)


def is_soluble(G: Group) -> bool:
    """The derived series reaches the trivial group: on G's table
    (``derived_series_masks``) on the table path (``groups._on_table``),
    else by normal closures of commutators of generators."""

    def build():
        if _on_table(G):
            return derived_series_masks(G)[-1] == 1
        cur = G
        while cur.order() > 1:
            nxt = derived_subgroup(cur)
            if nxt.order() == cur.order():
                return False
            cur = nxt
        return True

    return _cached(G, "soluble", build)


def is_nilpotent(G: Group) -> bool:
    """Every Sylow subgroup is normal (``_normal_sylow_mask``), so a
    p-group is nilpotent without a look at its elements."""

    def build():
        return all(_normal_sylow_mask(G, p) for p in primes_of(G))

    return _cached(G, "nilpotent", build)


def is_supersoluble(G: Group) -> bool:
    """Every chief factor has prime order."""
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
    return _p_nilpotent_mask(G, (1 << G.order()) - 1, p)


def _p_nilpotent_mask(G: Group, mask: int, p: int) -> bool:
    """Whether the subgroup H of G with mask ``mask`` is p-nilpotent: its
    p'-elements, by G's element orders, number |H|_{p'} and are closed on
    G's table, so they form a characteristic, hence normal, p-complement.
    A normal p-complement K holds every p'-element, as H/K is a p-group."""
    h = mask.bit_count()
    idx = indices_from_mask(mask, G.order())
    pprime = idx[_element_orders(G)[idx] % p != 0]
    if len(pprime) != h // p_part(h, p):
        return False
    return len(_closure_indices(G.table(), pprime)) == len(pprime)
