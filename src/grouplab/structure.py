"""Structural subgroup machinery.

Sylow subgroups are built by normalizer ascent so they scale past the
subgroup-lattice cap; the full lattice (cyclic extension from the soluble
residual's lattice) and normal subgroups (join closure of conjugacy-class
closures) are independent constructions so that chief series remain
available for groups whose lattice would be too expensive.

Maximal subgroups of a p-group P are the preimages of the hyperplanes of
the elementary abelian quotient P/Phi(P); the generator-number d satisfies
p^d = |P/Phi(P)| and every d-subset of maximal subgroups intersecting in
Phi(P) corresponds to a linearly independent set of d linear functionals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
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
    _closure_indices,
    _normalizer_mask,
    _require_subgroup,
    indices_from_mask,
    mask_from_indices,
    normal_closure,
    normalizer,
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
    """One conjugacy class of Sylow p-subgroups; ``masks[i]`` is the mask
    of ``all[i]`` over the parent's index."""

    parent: Group
    prime: int
    representative: Group
    all: list[Group]
    masks: list[int]

    @property
    def count(self) -> int:
        return len(self.all)


def sylow_subgroup(G: Group, p: int) -> Group:
    """A Sylow p-subgroup, by normalizer ascent from a cyclic p-subgroup.

    Returns the trivial subgroup when p does not divide |G|.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target = p_part(G.order(), p)
    if target == 1:
        return Group(G.degree, (), G.enum_cap)
    if target == G.order():
        return G
    seed = None
    for x in G.elements():
        o = x.order()
        if o % p == 0:
            seed = x ** (o // p_part(o, p))
            break
    P = subgroup_generated(G, [seed])
    while P.order() < target:
        N = normalizer(G, P)
        grown = False
        for y in N.elements():
            o = y.order()
            if o > 1 and p_part(o, p) == o and not P.contains(y):
                P = subgroup_generated(G, P.generators + (y,))
                grown = True
                break
        if not grown:  # cannot happen for a proper p-subgroup
            raise AssertionError("normalizer ascent stalled")
    return P


def all_sylow_subgroups(G: Group, p: int) -> SylowSystem:
    """The complete conjugacy class of Sylow p-subgroups.

    G's cache keeps the system without G itself, so that it makes no
    reference cycle and a dropped G is freed at once, table and all.
    """
    key = ("sylows", p)
    cached = G.cache.get(key)
    if cached is not None:
        return SylowSystem(G, p, *cached)
    rep = sylow_subgroup(G, p)
    if rep.order() == G.order() or rep.is_trivial:
        # 1 and G are the index prefixes of lengths 1 and |G|; not cached,
        # as rep may be G and costs nothing to find again
        return SylowSystem(G, p, rep, [rep], [(1 << rep.order()) - 1])
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
    masks = sorted(seen_masks)
    groups = [G.subgroup_from_indices(seen_masks[m]) for m in masks]
    G.cache[key] = (rep, groups, masks)
    return SylowSystem(G, p, rep, groups, masks)


# -- the subgroup lattice ------------------------------------------------------


def _row_masks(block: np.ndarray) -> list[int]:
    """The mask of each row of a bool block over G's index."""
    packed = np.packbits(block, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _mask_rows(masks: list[int], n: int) -> np.ndarray:
    """The bool block over G's index whose rows are these masks; the
    inverse of ``_row_masks`` for a group of order n."""
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(masks), 8 * width)[:, :n].astype(bool)


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
    lattice.  The normalizers stay in G's cache (``_normalizer_mask``).
    """
    n = G.order()
    if n > lattice_cap:
        raise LatticeCapError(
            f"group of order {n} exceeds the subgroup-lattice cap {lattice_cap}",
            cap=lattice_cap,
            size=n,
        )
    cached = G.cache.get("lattice_masks")
    if cached is not None:
        return cached
    from .solubility import derived_series_masks  # solubility imports structure

    tbl = G.table()
    ident = np.arange(n)
    powers = {}
    for p in prime_factors(n):
        x = ident
        for _ in range(p - 1):
            x = tbl[x, ident]
        powers[p] = x
    residual = derived_series_masks(G)[-1]
    subs = _closure_lattice(G, indices_from_mask(residual, n))
    queue = list(subs)
    label = np.zeros(n, dtype=np.int64)
    while queue:
        k = queue.pop()
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
            block = np.zeros((len(steps), n), dtype=bool)
            block[:, k_idx] = True
            block[np.arange(len(steps))[:, None], cosets.reshape(len(steps), -1)] = True
            for j in _row_masks(block):
                if j not in subs:
                    subs.add(j)
                    queue.append(j)
    masks = sorted(subs, key=lambda m: (m.bit_count(), m))
    G.cache["lattice_masks"] = masks
    return masks


def all_subgroups(G: Group, lattice_cap: int = DEFAULT_LATTICE_CAP) -> list[Group]:
    """Every subgroup of G exactly once (lattice cap applies)."""
    masks = lattice_masks(G, lattice_cap)
    cached = G.cache.get("lattice_groups")
    if cached is None:
        cached = [G.subgroup_from_mask(m) for m in masks]
        G.cache["lattice_groups"] = cached
    return cached


# -- normal subgroups ----------------------------------------------------------


def _conjugacy_class_indices(G: Group) -> list[np.ndarray]:
    """Conjugacy classes as index arrays, ordered by their least index.
    The central elements, fixed by conjugation with every generator, are
    the singleton classes and are found at once."""
    cached = G.cache.get("classes")
    if cached is not None:
        return cached
    n = G.order()
    cvecs = [G.conjugation_vector(G.element_index(g)) for g in G.generators]
    ident = np.arange(n)
    seen = np.ones(n, dtype=bool)
    for cv in cvecs:
        seen &= cv == ident
    classes = [ident[i : i + 1] for i in np.flatnonzero(seen)]
    for i in np.flatnonzero(~seen):
        if seen[i]:
            continue
        member = np.zeros(n, dtype=bool)
        member[i] = True
        frontier = np.array([i], dtype=np.int64)
        while frontier.size:
            nxt = []
            for cv in cvecs:
                conj = cv[frontier]
                fresh = conj[~member[conj]]
                if fresh.size:
                    member[fresh] = True
                    nxt.append(fresh)
            frontier = np.concatenate(nxt) if nxt else np.array([], dtype=np.int64)
        cls = np.nonzero(member)[0]
        seen[cls] = True
        classes.append(cls)
    classes.sort(key=lambda cls: int(cls[0]))
    G.cache["classes"] = classes
    return classes


def _normal_atom_masks(G: Group) -> list[int]:
    """Masks of the normal closures of single conjugacy classes, sorted by
    (order, mask).  Every normal subgroup is a join of these and every
    minimal normal subgroup is a minimal one of these.

    The closure of the class of g is the normal closure of <g>, so classes
    whose representatives generate the same cyclic subgroup share an atom,
    and a central class (of size 1) has the atom <g> itself.  Any other
    class is closed as a normal set: products of a union of classes are a
    union of classes, so multiplying the new elements by the members on one
    side reaches every product.
    """
    cached = G.cache.get("normal_atoms")
    if cached is not None:
        return cached
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
            prods = np.unique(tbl[frontier[:, None], np.nonzero(member)[0]])
            frontier = prods[~member[prods]]
            member[frontier] = True
        atom_of[cyc] = mask_from_indices(np.nonzero(member)[0], n)
    atoms = sorted(set(atom_of.values()), key=lambda m: (m.bit_count(), m))
    G.cache["normal_atoms"] = atoms
    return atoms


def normal_subgroup_masks(G: Group) -> list[int]:
    """Masks of all normal subgroups: join closure of the normal closures
    of single conjugacy classes.  Independent of the full lattice.

    A join of normal N and A is the product set NA, built one-sided; it
    must have exactly |N||A|/|N∩A| members."""
    cached = G.cache.get("normal_masks")
    if cached is not None:
        return cached
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
    masks = sorted(result, key=lambda m: (m.bit_count(), m))
    G.cache["normal_masks"] = masks
    return masks


def normal_subgroups(G: Group) -> list[Group]:
    cached = G.cache.get("normal_groups")
    if cached is None:
        cached = [G.subgroup_from_mask(m) for m in normal_subgroup_masks(G)]
        G.cache["normal_groups"] = cached
    return cached


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
    p = p_group_prime(P)
    cands = [g**p for g in P.generators]
    for i, a in enumerate(P.generators):
        for b in P.generators[i + 1 :]:
            cands.append(a.inverse() * b.inverse() * a * b)
    K = subgroup_generated(P, cands)
    return normal_closure(P, K)


def _p_group_frame(P: Group) -> tuple[int, Group, tuple[Permutation, ...], int]:
    """(p, Phi(P), minimal generating sequence, d) for a nontrivial p-group."""
    cached = P.cache.get("pframe")
    if cached is not None:
        return cached
    p = p_group_prime(P)
    phi = frattini_p_group(P)
    basis: list[Permutation] = []
    span = Group(P.degree, phi.generators, P.enum_cap)
    for g in P.generators:
        if not span.contains(g):
            basis.append(g)
            span = Group(P.degree, phi.generators + tuple(basis), P.enum_cap)
    d = 0
    q = P.order() // phi.order()
    while q > 1:
        q //= p
        d += 1
    if p**d * phi.order() != P.order() or len(basis) != d:
        raise AssertionError("Burnside basis extraction failed")
    frame = (p, phi, tuple(basis), d)
    P.cache["pframe"] = frame
    return frame


def smallest_generator_number(P: Group) -> int:
    """d with p^d = |P / Phi(P)|, the minimum size of a generating set."""
    if P.is_trivial:
        return 0
    return _p_group_frame(P)[3]


def _normalized_functionals(p: int, d: int) -> list[tuple[int, ...]]:
    """All nonzero functionals on F_p^d with first nonzero entry 1, in
    lexicographic order.  One per hyperplane."""
    out = []
    for lead in range(d - 1, -1, -1):
        for tail in product(range(p), repeat=d - lead - 1):
            out.append((0,) * lead + (1,) + tail)
    return out


def _maximal_data(P: Group) -> tuple[list[tuple[int, ...]], list[Group]]:
    """(functionals, maximal subgroups) of a p-group, in matching order."""
    cached = P.cache.get("pmaximals")
    if cached is not None:
        return cached
    if P.is_trivial:
        P.cache["pmaximals"] = ([], [])
        return P.cache["pmaximals"]
    p, phi, basis, d = _p_group_frame(P)
    powers = [[None] * p for _ in basis]
    for i, b in enumerate(basis):
        cur = Permutation.identity(P.degree)
        for k in range(p):
            powers[i][k] = cur
            cur = cur * b
    pair_cache: dict[tuple[int, int, int], Permutation] = {}

    def lift(j: int, lead: int, k: int) -> Permutation:
        # preimage of e_j - phi_j * e_lead, i.e. b_j * b_lead^k with k = -phi_j mod p
        if k == 0:
            return basis[j]
        key = (j, lead, k)
        g = pair_cache.get(key)
        if g is None:
            g = basis[j] * powers[lead][k]
            pair_cache[key] = g
        return g

    functionals = _normalized_functionals(p, d)
    phigens = phi.generators
    maximals = []
    for vec in functionals:
        lead = next(i for i, c in enumerate(vec) if c)
        gens = list(phigens)
        for j in range(d):
            if j == lead:
                continue
            gens.append(lift(j, lead, (p - vec[j]) % p))
        maximals.append(Group(P.degree, gens, P.enum_cap))
    P.cache["pmaximals"] = (functionals, maximals)
    return P.cache["pmaximals"]


def maximal_subgroups_of_p_group(P: Group) -> list[Group]:
    """All index-p subgroups, as hyperplane preimages; their count is
    (p^d - 1)/(p - 1)."""
    return _maximal_data(P)[1]


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
    p, phi, basis, d = _p_group_frame(P)
    functionals, maximals = _maximal_data(P)
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
    """Mask of O_p(G) over G's index."""
    return reduce(operator.and_, all_sylow_subgroups(G, p).masks)


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
    pprime = [i for i, x in enumerate(G.elements()) if x.order() % p != 0]
    closed = _closure_indices(G.table(), np.array(pprime, dtype=np.int64))
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
    target = G.order() // N.order()
    nmask = G.mask_of(N)
    for m in lattice_masks(G, lattice_cap):
        if m.bit_count() == target and m & nmask == 1:
            return True, G.subgroup_from_mask(m)
    return False, None
