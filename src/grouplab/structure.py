"""Structural subgroup machinery.

Sylow subgroups are built by normalizer ascent on masks over G's table, so
they scale past the subgroup-lattice cap; the full lattice (cyclic
extension from the soluble residual's lattice) and normal subgroups (join
closure of conjugacy-class closures) are independent constructions so that
chief series remain available for groups whose lattice would be too
expensive.  The lemma suites read the lattice through one record per
group, ``_lattice``: rows, members by order, and the normal members.

Maximal subgroups of a p-group P are the preimages of the hyperplanes of
the elementary abelian quotient P/Phi(P); the generator-number d satisfies
p^d = |P/Phi(P)| and every d-subset of maximal subgroups intersecting in
Phi(P) corresponds to a linearly independent set of d linear functionals.
On the table path (``groups._on_table``: |P| at most both
``DEFAULT_TABLE_CAP`` and P's enumeration cap) all of this runs on the
table of the group G whose rows P has (G for a Sylow subgroup of G, P for
a p-group given alone), and G's cache keeps it under P's generators:
Phi(P) is a normal closure in P and the Burnside basis a chain of
closures, P's elements get their coordinates in F_p^d from the cosets
b_1^a_1 ... b_d^a_d Phi(P) of the basis, and the maximal subgroups are the
kernels {x : f . c(x) = 0 mod p} of the normalized functionals f, all
from one product of the coordinates with the functionals, as masks over
G.  Each kernel becomes a ``Group`` with G's rows, so no stabilizer chain
is built for it.  Otherwise the frame and the maximal subgroups are built
from generators.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, groupby, product
from typing import Iterator

import numpy as np

from .errors import (
    DEFAULT_FAMILY_LIMIT,
    DEFAULT_LATTICE_CAP,
    LatticeCapError,
    NotAPGroupError,
)
from .groups import (
    Group,
    _cached,
    _closure_indices,
    _normal_closure_indices,
    _normalizer_mask,
    _mask_rows,
    _on_table,
    _require_subgroup,
    _row_masks,
    indices_from_mask,
    mask_from_indices,
    normal_closure,
    subgroup_generated,
)
from .perms import Permutation


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def primes_of(G: Group) -> list[int]:
    return prime_factors(G.order())


# -- Sylow subgroups -----------------------------------------------------------


@dataclass
class SylowSystem:
    """One conjugacy class of Sylow p-subgroups, as masks over the
    parent's index; a caller that needs one of them as a group builds it
    with ``parent.subgroup_from_mask``."""

    parent: Group
    prime: int
    representative: Group
    masks: list[int]

    @property
    def count(self) -> int:
        return len(self.masks)


def _element_orders(G: Group) -> np.ndarray:
    """Order of every element of G: all are raised to successive powers
    together on G's table until each is back at the identity."""

    def build():
        tbl, orders = G.table(), np.ones(G.order(), dtype=np.int64)
        rows = powers = np.arange(1, G.order())
        while rows.size:
            orders[rows] += 1
            powers = tbl[powers, rows]
            rows, powers = rows[powers != 0], powers[powers != 0]
        return orders

    return _cached(G, "orders", build)


def _normal_sylow_mask(G: Group, p: int) -> int:
    """Mask of G's Sylow p-subgroup when it is normal, else 0.

    A Sylow p-subgroup is normal iff it is the only one, iff it holds every
    p-element, iff G's p-elements (those whose order divides |G|_p) number
    exactly |G|_p; they are read from ``_element_orders``.  G's cache keeps
    the answer under ``("normal sylow", p)``, 0 included.  A p-group is its
    own Sylow p-subgroup, found without its elements.
    """
    n = G.order()
    target = p_part(n, p)
    if target == n:
        return (1 << n) - 1

    def build():
        p_elements = np.flatnonzero(target % _element_orders(G) == 0)
        return mask_from_indices(p_elements, n) if len(p_elements) == target else 0

    return _cached(G, ("normal sylow", p), build)


def sylow_subgroup(G: Group, p: int) -> Group:
    """A Sylow p-subgroup, by normalizer ascent on G's table from the p-part
    of the first element of order divisible by p, adding the first
    p-element of N_G(P) outside P at each step; the result takes G's rows.

    The result is shared: when 1 < |G|_p < |G|, G's cache keeps it under
    ``("sylow", p)``, so every caller gets the same P, and with it the
    Phi(P) and maximal subgroups that G's cache keeps under P's generators
    (``_p_group_frame``, ``_maximal_data``).  P builds no table of its own:
    its frame runs on G's.  The trivial subgroup (p not dividing |G|) and G
    itself (a p-group) are returned uncached: keeping G in its own cache
    would make a reference cycle.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = G.order()
    target = p_part(n, p)
    if target == 1:
        return Group(G.degree, (), G.enum_cap)
    if target == n:
        return G
    return _cached(G, ("sylow", p), lambda: _sylow_by_ascent(G, p, target))


def _sylow_by_ascent(G: Group, p: int, target: int) -> Group:
    """The normalizer ascent of :func:`sylow_subgroup`, for a proper
    nontrivial Sylow p-subgroup of order ``target``."""
    n = G.order()
    tbl = G.table()
    orders = _element_orders(G)
    x = int(np.flatnonzero(orders % p == 0)[0])
    o = int(orders[x])
    seed = 0
    for _ in range(o // p_part(o, p)):
        seed = int(tbl[seed, x])
    picked = [seed]
    p_elements = (target % orders == 0) & (orders > 1)
    idx = _closure_indices(tbl, np.array(picked))
    while len(idx) < target:
        norm = indices_from_mask(_normalizer_mask(G, mask_from_indices(idx, n)), n)
        fresh = norm[p_elements[norm] & ~np.isin(norm, idx)]
        if not fresh.size:  # cannot happen for a proper p-subgroup
            raise AssertionError("normalizer ascent stalled")
        picked.append(int(fresh[0]))
        idx = _closure_indices(tbl, np.append(idx, fresh[0]), closed=idx)
    gens = [G.element_at(i) for i in picked]
    return Group(G.degree, gens, G.enum_cap, _known_emat=G._matrix()[idx])


def all_sylow_subgroups(G: Group, p: int) -> SylowSystem:
    """The complete conjugacy class of Sylow p-subgroups.

    The representative is :func:`sylow_subgroup`'s shared P, so G holds
    one P per prime.  G's cache keeps the masks under ``("sylows", p)``;
    neither entry holds G itself, so they make no reference cycle and a
    dropped G is freed at once, table and all.  For P = 1 or P = G the
    single mask is the index prefix of length |P|, and nothing is cached.
    """
    rep = sylow_subgroup(G, p)
    if rep.order() == G.order() or rep.is_trivial:
        # 1 and G are the index prefixes of lengths 1 and |G|
        return SylowSystem(G, p, rep, [(1 << rep.order()) - 1])

    def build():
        cvecs = [G.conjugation_vector(G.element_index(g)) for g in G.generators]
        start = G.indices_of(rep)
        seen_masks = {mask_from_indices(start, G.order()): start}
        queue = [start]
        while queue:
            idx = queue.pop(0)
            for cv in cvecs:
                conj = np.sort(cv[idx])
                m = mask_from_indices(conj, G.order())
                if m not in seen_masks:
                    seen_masks[m] = conj
                    queue.append(conj)
        return sorted(seen_masks)

    return SylowSystem(G, p, rep, _cached(G, ("sylows", p), build))


# -- the subgroup lattice ------------------------------------------------------


def _cyclic_masks(G: Group, idx: np.ndarray) -> list[int]:
    """Masks of the cyclic subgroups <g> for the element indices ``idx``.

    All the elements are raised to successive powers together on G's
    table, one row of a ``(len(idx), |G|)`` bool block each, until every
    power has come back to the identity.
    """
    tbl = G.table()
    idx = np.asarray(idx, dtype=np.int64)
    block = np.zeros((len(idx), G.order()), dtype=bool)
    block[:, 0] = True
    rows, powers = np.arange(len(idx)), idx
    while rows.size:
        block[rows, powers] = True
        powers = tbl[powers, idx[rows]]
        live = powers != 0
        rows, powers = rows[live], powers[live]
    return _row_masks(block)


def _closure_lattice(G: Group, r_idx: np.ndarray) -> set[int]:
    """Masks of every subgroup of the subgroup R of G with the element
    indices ``r_idx``, by layered closure: R's cyclic subgroups, then joins
    of known subgroups with cyclic subgroups until nothing new appears.
    For R = 1 this is {1}."""
    n = G.order()
    tbl = G.table()
    cyclic_list = sorted(set(_cyclic_masks(G, r_idx[1:])))
    idx_of = {m: indices_from_mask(m, n) for m in cyclic_list}
    idx_of[1] = np.array([0], dtype=np.int64)
    subs = {1, *cyclic_list}
    frontier = sorted(subs)
    while frontier:
        fresh = []
        for a in frontier:
            a_idx = idx_of[a]
            for z in cyclic_list:
                if a | z == a:
                    continue
                seed = np.union1d(a_idx, idx_of[z])
                j_idx = _closure_indices(tbl, seed, closed=a_idx)
                j = mask_from_indices(j_idx, n)
                if j not in subs:
                    subs.add(j)
                    idx_of[j] = j_idx
                    fresh.append(j)
        frontier = fresh
    return subs


def lattice_masks(G: Group, lattice_cap: int = DEFAULT_LATTICE_CAP) -> list[int]:
    """Element-set bitmasks of every subgroup of G, sorted by (order, mask).

    Built by cyclic extension (Neubüser) from the lattice of the soluble
    residual R = G^(∞), the last term of the derived series.  R's own
    subgroups come from a layered closure over R's cyclic subgroups
    (just {1} when G is soluble).  Every other subgroup H has H^(∞) <= R
    and H/H^(∞) soluble, so it is K<g> for some known K normal of prime
    index p in it, with g in N_G(K) and g^p in K.  So for each subgroup K
    found, the right cosets Kx inside N_G(K) are labelled by their least
    element in one gather; each coset minimum g outside K with g^p in K
    (p-th powers precomputed for every prime of |G|) gives K<g>, the union
    of the cosets Kg^i for i < p, built once, from the least coset minimum
    it contains.  When N_G(K) <= R, every such K<g> is already in R's
    lattice.  Each member's normalizer stays in G's cache under
    ``("normalizer", mask)``, where ``_lattice`` reads the normal ones; a
    member containing the derived subgroup G' is normal, so its entry is G
    without a scan.
    """
    n = G.order()
    if n > lattice_cap:
        raise LatticeCapError(
            f"group of order {n} exceeds the subgroup-lattice cap {lattice_cap}",
            cap=lattice_cap,
            size=n,
        )

    def build():
        from .solubility import derived_series_masks  # solubility imports structure

        tbl = G.table()
        ident = np.arange(n)
        powers = {}
        for p in prime_factors(n):
            x = ident
            for _ in range(p - 1):
                x = tbl[x, ident]
            powers[p] = x
        derived = derived_series_masks(G)
        commutator = derived[1] if len(derived) > 1 else derived[0]  # G'
        residual = derived[-1]
        subs = _closure_lattice(G, indices_from_mask(residual, n))
        queue = list(subs)
        label = np.zeros(n, dtype=np.int64)
        while queue:
            k = queue.pop()
            if k & commutator == commutator:  # K >= G' is normal
                _cached(G, ("normalizer", k), lambda: (1 << n) - 1)
            nk = _normalizer_mask(G, k)
            if nk == k or nk | residual == residual:
                continue
            k_idx = indices_from_mask(k, n)
            n_idx = indices_from_mask(nk, n)
            inside = np.zeros(n, dtype=bool)
            inside[k_idx] = True
            label[n_idx] = tbl[k_idx[:, None], n_idx].min(axis=0)
            reps = np.unique(label[n_idx])[1:]  # K's own label, 0, comes first
            for p, pth in powers.items():
                g = reps[inside[pth[reps]]]
                if not g.size:
                    continue
                steps = [g]  # g^i for 0 < i < p, one row per candidate g
                for _ in range(p - 2):
                    steps.append(tbl[steps[-1], g])
                steps = np.stack(steps, axis=1)
                steps = steps[label[steps].min(axis=1) == g]
                cosets = tbl[k_idx[None, None, :], steps[:, :, None]]
                cosets = cosets.reshape(len(steps), -1)
                block = np.zeros((len(steps), n), dtype=bool)
                block[:, k_idx] = True
                block[np.arange(len(steps))[:, None], cosets] = True
                for j in _row_masks(block):
                    if j not in subs:
                        subs.add(j)
                        queue.append(j)
        return sorted(subs, key=lambda m: (m.bit_count(), m))

    return _cached(G, "lattice_masks", build)


@dataclass
class _Lattice:
    """G's lattice: the members in ``lattice_masks`` order, the same masks
    as one bool block, the row of each mask, the members of each order, and
    the normal members in (order, mask) order."""

    masks: list[int]
    rows: np.ndarray
    row: dict[int, int]
    of_order: dict[int, list[int]]
    normal: list[int]


def _lattice(G: Group, lattice_cap: int = DEFAULT_LATTICE_CAP) -> _Lattice:
    """G's lattice record, kept in G's cache; ``lattice_masks`` checks the
    cap on every call.  The normal members are those whose normalizer,
    cached while the lattice was built, is G: no join closure is run."""
    masks = lattice_masks(G, lattice_cap)

    def build():
        return _Lattice(
            masks,
            _mask_rows(masks, G.order()),
            {m: i for i, m in enumerate(masks)},
            {k: list(ms) for k, ms in groupby(masks, key=int.bit_count)},
            [m for m in masks if _normalizer_mask(G, m).bit_count() == G.order()],
        )

    return _cached(G, "lattice", build)


def all_subgroups(G: Group, lattice_cap: int = DEFAULT_LATTICE_CAP) -> list[Group]:
    """Every subgroup of G exactly once (lattice cap applies)."""
    masks = lattice_masks(G, lattice_cap)
    return _cached(
        G, "lattice_groups", lambda: [G.subgroup_from_mask(m) for m in masks]
    )


# -- normal subgroups ----------------------------------------------------------


def _conjugacy_class_indices(G: Group) -> list[np.ndarray]:
    """Conjugacy classes as sorted index arrays, ordered by their least
    index.

    The classes are the orbits of G's elements under conjugation by its
    generators, found for all elements at once: every element is labelled
    by the least index it reaches, passing labels along the generators'
    conjugation vectors and their inverses and jumping to the label's own
    label, until nothing changes.  A stable sort by label then cuts the
    index range into the classes.
    """

    def build():
        n = G.order()
        ident = np.arange(n)
        steps = []
        for g in G.generators:
            cv = G.conjugation_vector(G.element_index(g))
            cv_inv = np.empty_like(cv)
            cv_inv[cv] = ident
            steps += [cv, cv_inv]
        lab = ident
        while True:
            nxt = lab
            for step in steps:
                nxt = np.minimum(nxt, lab[step])
            nxt = nxt[nxt]
            if np.array_equal(nxt, lab):
                break
            lab = nxt
        order = np.argsort(lab, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(lab[order])) + 1)

    return _cached(G, "classes", build)


def _normal_atom_masks(G: Group) -> list[int]:
    """Masks of the normal closures of single conjugacy classes, sorted by
    (order, mask).  Every normal subgroup is a join of these and every
    minimal normal subgroup is a minimal one of these.

    The closure of the class of g is the normal closure of <g>, so classes
    whose representatives generate the same cyclic subgroup share an atom,
    and a central class (of size 1) has the atom <g> itself.  Any other
    class is closed as a normal set: products of a union of classes are a
    union of classes, so multiplying the new elements by the members on one
    side reaches every product.  Each round scatters those products into a
    bool vector over G's index, so no product list is sorted.
    """

    def build():
        tbl = G.table()
        n = G.order()
        classes = _conjugacy_class_indices(G)[1:]  # the first is {identity}
        reps = np.array([cls[0] for cls in classes], dtype=np.int64)
        atom_of: dict[int, int] = {}
        for cls, cyc in zip(classes, _cyclic_masks(G, reps)):
            if cyc in atom_of:
                continue
            if len(cls) == 1:
                atom_of[cyc] = cyc
                continue
            member = np.zeros(n, dtype=bool)
            member[0] = True
            member[cls] = True
            frontier = cls
            while frontier.size:
                hit = np.zeros(n, dtype=bool)
                hit[tbl[frontier[:, None], np.flatnonzero(member)]] = True
                frontier = np.flatnonzero(hit & ~member)
                member |= hit
            atom_of[cyc] = mask_from_indices(np.nonzero(member)[0], n)
        return sorted(set(atom_of.values()), key=lambda m: (m.bit_count(), m))

    return _cached(G, "normal_atoms", build)


def normal_subgroup_masks(G: Group) -> list[int]:
    """Masks of all normal subgroups: join closure of the normal closures
    of single conjugacy classes.  Independent of the full lattice; the
    lemma suites read the same list from ``_lattice(G).normal``.

    A join of normal N and A is the product set NA, built one-sided; it
    must have exactly |N||A|/|N∩A| members."""

    def build():
        tbl = G.table()
        n = G.order()
        result = {1}
        idx_of = {1: np.array([0], dtype=np.int64)}
        for a in _normal_atom_masks(G):
            a_idx = indices_from_mask(a, n)
            additions = {}
            for r in result:
                if r | a == r:
                    continue
                j_idx = np.unique(tbl[idx_of[r][:, None], a_idx])
                if len(j_idx) != r.bit_count() * len(a_idx) // (r & a).bit_count():
                    raise AssertionError("|NA| != |N||A|/|N∩A| for normal N, A")
                additions[mask_from_indices(j_idx, n)] = j_idx
            for m, j_idx in additions.items():
                if m not in result:
                    result.add(m)
                    idx_of[m] = j_idx
        return sorted(result, key=lambda m: (m.bit_count(), m))

    return _cached(G, "normal_masks", build)


def normal_subgroups(G: Group) -> list[Group]:
    masks = normal_subgroup_masks(G)
    return _cached(G, "normal_groups", lambda: [G.subgroup_from_mask(m) for m in masks])


def minimal_normal_subgroups(G: Group) -> list[Group]:
    """Nontrivial normal subgroups minimal under inclusion.

    Any nontrivial normal subgroup contains the closure of a class of one
    of its elements, so the minimal normal subgroups are exactly the
    minimal class closures; the expensive join closure is not needed.
    """
    atoms = _normal_atom_masks(G)
    minimal = [
        m for m in atoms if not any(o != m and o | m == m for o in atoms)
    ]
    return [G.subgroup_from_mask(m) for m in minimal]


# -- p-group structure ---------------------------------------------------------


def p_group_prime(P: Group) -> int:
    """The prime p for a nontrivial p-group; raises otherwise."""
    n = P.order()
    ps = prime_factors(n)
    if len(ps) != 1:
        raise NotAPGroupError(f"group of order {n} is not a p-group")
    return ps[0]


def frattini_p_group(P: Group) -> Group:
    """Phi(P) for a p-group: the normal closure of all generator
    commutators and generator p-th powers (Burnside basis theorem)."""
    if P.is_trivial:
        return P
    return _p_group_frame(P, P)[1]


def _p_group_frame(
    P: Group, G: Group
) -> tuple[int, Group, tuple[Permutation, ...], int]:
    """(p, Phi(P), minimal generating sequence, d) for a nontrivial p-group
    P whose rows are G's (G = P, or P a subgroup made from G's rows), kept
    in G's cache under P's generators.

    Phi(P) is the normal closure in P of the generators' p-th powers and
    pairwise commutators; the basis is the run of generators outside the
    span of Phi(P) and the generators taken before them.  On the table path
    (``_on_table(P)``) both are closed on G's table, and Phi(P) takes G's
    rows; otherwise each is a ``Group`` on generators, like
    :func:`normal_closure`.  Either way Phi(P) gets the generators that
    ``normal_closure`` gives it in P (whose rows are G's, in G's order),
    which fix the witness text.
    """

    def build():
        p = p_group_prime(P)
        basis: list[Permutation] = []
        if _on_table(P):
            tbl, inv = G.table(), G.inverse_indices()
            gens = np.array([G.element_index(g) for g in P.generators], dtype=np.int64)
            powers = gens
            for _ in range(p - 1):
                powers = tbl[powers, gens]
            first, second = np.triu_indices(len(gens), 1)
            a, b = gens[first], gens[second]
            commutators = tbl[tbl[inv[a], inv[b]], tbl[a, b]]
            seed = mask_from_indices(np.concatenate([powers, commutators]), G.order())
            span = _normal_closure_indices(G, seed, P.generators)
            phi = G.subgroup_from_indices(span)
            for g, i in zip(P.generators, gens):
                if not (span == i).any():
                    basis.append(g)
                    span = _closure_indices(tbl, np.append(span, i), closed=span)
        else:
            cands = [g**p for g in P.generators]
            for i, a in enumerate(P.generators):
                for b in P.generators[i + 1 :]:
                    cands.append(a.inverse() * b.inverse() * a * b)
            phi = normal_closure(P, subgroup_generated(P, cands))
            span_group = Group(P.degree, phi.generators, P.enum_cap)
            for g in P.generators:
                if not span_group.contains(g):
                    basis.append(g)
                    span_group = Group(
                        P.degree, phi.generators + tuple(basis), P.enum_cap
                    )
        d = 0
        q = P.order() // phi.order()
        while q > 1:
            q //= p
            d += 1
        if p**d * phi.order() != P.order() or len(basis) != d:
            raise AssertionError("Burnside basis extraction failed")
        return p, phi, tuple(basis), d

    return _cached(G, ("pframe", P.generators), build)


def smallest_generator_number(P: Group) -> int:
    """d with p^d = |P / Phi(P)|, the minimum size of a generating set."""
    if P.is_trivial:
        return 0
    return _p_group_frame(P, P)[3]


def _normalized_functionals(p: int, d: int) -> list[tuple[int, ...]]:
    """All nonzero functionals on F_p^d with first nonzero entry 1, in
    lexicographic order.  One per hyperplane."""
    out = []
    for lead in range(d - 1, -1, -1):
        for tail in product(range(p), repeat=d - lead - 1):
            out.append((0,) * lead + (1,) + tail)
    return out


def _maximal_data(
    P: Group, G: Group
) -> tuple[list[tuple[int, ...]], list[Group], list[int] | None]:
    """(functionals, maximal subgroups, their masks over G's index) of a
    p-group P whose rows are G's, in matching order, kept in G's cache
    under P's generators (see ``_p_group_frame``).

    The maximal subgroup of the normalized functional f is generated by
    Phi(P) and the lifts b_j b_lead^k of a basis of f's kernel.  On the
    table path (``_on_table``) it is also the kernel {x : f . c(x) = 0 mod p}
    of the coordinates c in P/Phi(P): one product of the p^d coordinate
    vectors with all the functionals, scattered over the cosets
    b_1^a_1 ... b_d^a_d Phi(P), gives every kernel as a row over G's index,
    its mask and its rows of G's element matrix.  Otherwise the groups
    build their own elements and the masks are None, as for cyclic P
    (d = 1), whose one maximal subgroup is Phi(P) itself.
    """

    def build():
        if P.is_trivial:
            return [], [], []
        p, phi, basis, d = _p_group_frame(P, G)
        if d == 1:
            return [(1,)], [phi], None
        pair_cache: dict[tuple[int, int, int], Permutation] = {}

        def lift(j: int, lead: int, k: int) -> Permutation:
            # preimage of e_j - phi_j * e_lead: b_j * b_lead^k with k = -phi_j mod p
            if k == 0:
                return basis[j]
            key = (j, lead, k)
            if key not in pair_cache:
                pair_cache[key] = basis[j] * basis[lead] ** k
            return pair_cache[key]

        functionals = _normalized_functionals(p, d)
        lifts = []
        for vec in functionals:
            lead = next(i for i, c in enumerate(vec) if c)
            lifts.append(
                [lift(j, lead, (p - vec[j]) % p) for j in range(d) if j != lead]
            )
        phigens = list(phi.generators)
        if not _on_table(P):
            maximals = [Group(P.degree, phigens + ls, P.enum_cap) for ls in lifts]
            return functionals, maximals, None
        tbl = G.table()
        reps = np.zeros(1, dtype=np.int64)
        for b in basis:
            bi = G.element_index(b)
            steps = [reps]
            for _ in range(p - 1):
                steps.append(tbl[steps[-1], bi])
            reps = np.stack(steps, axis=1).ravel()
        phi_idx = G.indices_of(phi)
        cosets = tbl[reps[:, None], phi_idx]  # row a: the coset of coordinates a
        if np.unique(cosets).size != P.order():
            raise AssertionError("the cosets b^a Phi(P) do not cover P")
        coords = np.array(list(product(range(p), repeat=d)))
        on = (np.array(functionals) @ coords.T) % p == 0  # functional x coset
        kernels = np.zeros((len(functionals), G.order()), dtype=bool)
        kernels[:, cosets] = on[:, :, None]
        lift_idx = {g: G.element_index(g) for g in set().union(*lifts)}
        lift_cols = np.array(
            [[lift_idx[g] for g in ls] for ls in lifts], dtype=np.int64
        )
        if (
            (kernels.sum(axis=1) != P.order() // p).any()
            or not kernels[:, phi_idx].all()
            or not np.take_along_axis(kernels, lift_cols, axis=1).all()
        ):
            raise AssertionError("hyperplane kernel is not its maximal subgroup")
        emat = G._matrix()
        maximals = [
            Group(P.degree, phigens + ls, P.enum_cap, _known_emat=emat[inside])
            for ls, inside in zip(lifts, kernels)
        ]
        return functionals, maximals, _row_masks(kernels)

    return _cached(G, ("pmaximals", P.generators), build)


def _maximal_masks(P: Group, G: Group) -> list[int]:
    """Masks over G's index of the maximal subgroups of the p-subgroup P
    whose rows are G's, in the order of ``_maximal_data``: its kernel rows,
    or where it made none, the maximal subgroups looked up in G's index."""
    _, maximals, masks = _maximal_data(P, G)
    return masks if masks is not None else [G.mask_of(M) for M in maximals]


def maximal_subgroups_of_p_group(P: Group) -> list[Group]:
    """All index-p subgroups, as hyperplane preimages; their count is
    (p^d - 1)/(p - 1)."""
    return _maximal_data(P, P)[1]


def _rank_mod_p(rows: list[tuple[int, ...]], p: int) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] % p:
                f = mat[r][c]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@dataclass
class MdFamily:
    """d maximal subgroups of a p-group whose intersection is Phi(P)."""

    p_group: Group
    d: int
    members: list[Group]
    frattini: Group


def md_families(
    P: Group, limit: int = DEFAULT_FAMILY_LIMIT
) -> Iterator[MdFamily]:
    """Families of d maximal subgroups intersecting exactly in Phi(P).

    The first family yielded is the canonical one (preimages of the
    coordinate hyperplanes for the fixed minimal basis); the rest follow in
    lexicographic order of index subsets.  ``limit`` bounds the number of
    families yielded.
    """
    if P.is_trivial:
        return
    p, phi, basis, d = _p_group_frame(P, P)
    functionals, maximals, _ = _maximal_data(P, P)
    pos = {vec: i for i, vec in enumerate(functionals)}
    canonical = tuple(
        sorted(pos[(0,) * i + (1,) + (0,) * (d - 1 - i)] for i in range(d))
    )
    yielded = 0
    if limit <= 0:
        return
    yield MdFamily(P, d, [maximals[i] for i in canonical], phi)
    yielded += 1
    for combo in combinations(range(len(functionals)), d):
        if yielded >= limit:
            return
        if combo == canonical:
            continue
        if _rank_mod_p([functionals[i] for i in combo], p) == d:
            yield MdFamily(P, d, [maximals[i] for i in combo], phi)
            yielded += 1


# -- characteristic subgroups by prime ----------------------------------------


def o_p(G: Group, p: int) -> Group:
    """Largest normal p-subgroup: the intersection of all Sylow p-subgroups."""
    system = all_sylow_subgroups(G, p)
    if system.representative.is_trivial:
        return system.representative
    return G.subgroup_from_mask(_o_p_mask(G, p))


def _o_p_mask(G: Group, p: int) -> int:
    """Mask of O_p(G) over G's index: the Sylow p-subgroup itself when it
    is normal, else the intersection of all of them."""
    return _normal_sylow_mask(G, p) or reduce(
        operator.and_, all_sylow_subgroups(G, p).masks
    )


def o_p_prime(G: Group, p: int) -> Group:
    """Largest normal subgroup of order coprime to p.

    Every normal p'-subgroup is a union of classes whose closures are
    normal p'-atoms, and a join of normal p'-subgroups is again one, so the
    answer is the join of all p'-order class closures.
    """
    atoms = [m for m in _normal_atom_masks(G) if m.bit_count() % p != 0]
    if not atoms:
        return Group(G.degree, (), G.enum_cap)
    seed = 1
    for m in atoms:
        seed |= m
    tbl = G.table()
    closed = _closure_indices(tbl, indices_from_mask(seed, G.order()))
    joined = mask_from_indices(closed, G.order())
    if joined.bit_count() % p == 0:
        raise AssertionError("join of normal p'-subgroups is not a p'-group")
    return G.subgroup_from_mask(joined)


def p_residual(G: Group, p: int) -> Group:
    """O^p(G): the subgroup generated by all elements of order coprime to p
    (smallest normal subgroup with p-group quotient)."""
    return G.subgroup_from_mask(_p_residual_mask(G, p))


def _p_residual_mask(G: Group, p: int) -> int:
    """Mask of O^p(G) over G's index."""
    pprime = np.flatnonzero(_element_orders(G) % p != 0)
    closed = _closure_indices(G.table(), pprime)
    return mask_from_indices(closed, G.order())


# -- Hall subgroups and complements --------------------------------------------


def is_hall(G: Group, H: Group) -> bool:
    """gcd(|H|, [G:H]) = 1."""
    _require_subgroup(G, H)
    return math.gcd(H.order(), G.order() // H.order()) == 1


def is_complemented(
    G: Group, N: Group, lattice_cap: int = DEFAULT_LATTICE_CAP
) -> tuple[bool, Group | None]:
    """Whether some K <= G has NK = G and N ∩ K = 1; returns a witness.

    With |K| = [G:N] and N ∩ K trivial, the product set NK has |N||K| = |G|
    distinct elements, so NK = G holds automatically.
    """
    _require_subgroup(G, N)
    full = (1 << G.order()) - 1
    km = _complement_mask(_lattice(G, lattice_cap), full, G.mask_of(N))
    return (False, None) if km is None else (True, G.subgroup_from_mask(km))


def _complement_mask(lat: _Lattice, mm: int, nm: int) -> int | None:
    """Mask of the first member of the lattice that complements N in M, for
    N <= M given by masks: of order |M|/|N|, inside M, meeting N trivially."""
    target = mm.bit_count() // nm.bit_count()
    for km in lat.of_order.get(target, ()):
        if km | mm == mm and km & nm == 1:
            return km
    return None
