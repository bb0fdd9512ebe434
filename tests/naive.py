"""Independent brute-force oracles used to confirm expected values.

Everything here works directly on element lists (Python sets of
Permutation) with no strong-generating structure, no bitmasks and no
multiplication tables, so it is a genuinely independent cross-check of the
library's fast paths.  It is intentionally slow and only suitable for
groups of modest order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

from grouplab.perms import Permutation


def closure(degree: int, gens) -> frozenset[Permutation]:
    """All products of the generators, by worklist closure."""
    ident = Permutation.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def product_set(H: frozenset, K: frozenset) -> frozenset:
    return frozenset(h * k for h in H for k in K)


def permutes(H: frozenset, K: frozenset) -> bool:
    return product_set(H, K) == product_set(K, H)


def is_subgroup_set(degree: int, S: frozenset) -> bool:
    if Permutation.identity(degree) not in S:
        return False
    return all(a * b in S for a in S for b in S)


def generated(degree: int, elems) -> frozenset[Permutation]:
    return closure(degree, list(elems))


def cyclic_subgroups(degree: int, G: frozenset) -> set[frozenset]:
    return {generated(degree, [g]) for g in G}


@lru_cache(maxsize=128)
def all_subgroups(degree: int, G: frozenset) -> set[frozenset]:
    """Layered closure: cyclic subgroups, then joins with cyclics."""
    cyclics = cyclic_subgroups(degree, G)
    subs = set(cyclics)
    subs.add(frozenset([Permutation.identity(degree)]))
    frontier = list(subs)
    while frontier:
        nxt = []
        for A in frontier:
            for Z in cyclics:
                if Z <= A:
                    continue
                J = generated(degree, A | Z)
                if J not in subs:
                    subs.add(J)
                    nxt.append(J)
        frontier = nxt
    return subs


def conjugate_set(S: frozenset, g: Permutation) -> frozenset:
    ginv = g.inverse()
    return frozenset(ginv * s * g for s in S)


def is_normal_set(G: frozenset, H: frozenset) -> bool:
    return all(conjugate_set(H, g) == H for g in G)


@lru_cache(maxsize=128)
def normal_subgroups(degree: int, G: frozenset) -> set[frozenset]:
    return {H for H in all_subgroups(degree, G) if is_normal_set(G, H)}


def normal_closure(degree: int, G: frozenset, H: frozenset) -> frozenset:
    conjugates = set()
    for g in G:
        conjugates |= conjugate_set(H, g)
    return generated(degree, conjugates)


def normalizer_set(G: frozenset, H: frozenset) -> frozenset:
    return frozenset(g for g in G if conjugate_set(H, g) == H)


def centralizer_set(G: frozenset, H: frozenset) -> frozenset:
    return frozenset(g for g in G if all(g * h == h * g for h in H))


def prime_factors(n: int) -> list[int]:
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


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


@lru_cache(maxsize=256)
def sylow_subgroups(degree: int, G: frozenset, p: int) -> set[frozenset]:
    """All Sylow p-subgroups, as the maximal p-subgroups of the lattice."""
    target = p_part(len(G), p)
    return {H for H in all_subgroups(degree, G) if len(H) == target}


def is_s_permutable(degree: int, G: frozenset, H: frozenset) -> bool:
    for p in prime_factors(len(G)):
        for Q in sylow_subgroups(degree, G, p):
            if not permutes(H, Q):
                return False
    return True


def is_s_semipermutable(degree: int, G: frozenset, H: frozenset) -> bool:
    for p in prime_factors(len(G)):
        if len(H) % p == 0:
            continue
        for Q in sylow_subgroups(degree, G, p):
            if not permutes(H, Q):
                return False
    return True


def is_semipermutable(degree: int, G: frozenset, H: frozenset) -> bool:
    for K in all_subgroups(degree, G):
        if math.gcd(len(H), len(K)) == 1 and not permutes(H, K):
            return False
    return True


def is_supersoluble(degree: int, G: frozenset) -> bool:
    """A chain of normal-in-G subgroups with prime indices exists.

    Equivalent to every chief factor having prime order; searched directly
    over the normal subgroup poset so no quotient machinery is involved.
    """
    normals = sorted(normal_subgroups(degree, G), key=len)
    dead: set[frozenset] = set()

    def is_prime(n: int) -> bool:
        return n > 1 and prime_factors(n) == [n]

    def reach(N: frozenset) -> bool:
        if len(N) == len(G):
            return True
        if N in dead:
            return False
        for M in normals:
            if (
                len(M) > len(N)
                and len(M) % len(N) == 0
                and is_prime(len(M) // len(N))
                and N <= M
                and reach(M)
            ):
                return True
        dead.add(N)
        return False

    bottom = frozenset([Permutation.identity(degree)])
    return reach(bottom)


def is_p_nilpotent(degree: int, G: frozenset, p: int) -> bool:
    """A normal subgroup of order equal to the p'-part exists."""
    target = len(G) // p_part(len(G), p)
    return any(len(N) == target for N in normal_subgroups(degree, G))


def maximal_subgroups(degree: int, G: frozenset) -> set[frozenset]:
    subs = [H for H in all_subgroups(degree, G) if len(H) < len(G)]
    out = set()
    for H in subs:
        if not any(H < K for K in subs):
            out.add(H)
    return out


def frattini(degree: int, G: frozenset) -> frozenset:
    out = G
    for M in maximal_subgroups(degree, G):
        out = out & M
    return frozenset(out)


def md_families(degree: int, P: frozenset) -> list[tuple[frozenset, ...]]:
    """All d-subsets of maximal subgroups intersecting exactly in Phi(P),
    where p^d = |P / Phi(P)|."""
    phi = frattini(degree, P)
    p = prime_factors(len(P))[0]
    d = 0
    n = len(P) // len(phi)
    while n > 1:
        n //= p
        d += 1
    maxima = sorted(maximal_subgroups(degree, P), key=sorted)
    out = []
    for combo in combinations(maxima, d):
        inter = P
        for M in combo:
            inter = inter & M
        if frozenset(inter) == phi:
            out.append(combo)
    return out


def sylow_ascent(
    degree: int, G: frozenset, p: int
) -> tuple[tuple[Permutation, ...], frozenset]:
    """(generators, elements) of the Sylow p-subgroup reached by normalizer
    ascent with the choices of ``structure.sylow_subgroup``: the p-part of
    the first element (sorted by images) whose order p divides, then, until
    the order is the p-part of |G|, the first p-element of N_G(P) outside P.
    """
    elems = sorted(G, key=lambda g: g.images)
    target = p_part(len(G), p)
    x = next(x for x in elems if x.order() % p == 0)
    gens = [x ** (x.order() // p_part(x.order(), p))]
    S = generated(degree, gens)
    while len(S) < target:
        gens.append(
            next(
                y
                for y in elems
                if y.order() > 1
                and p_part(y.order(), p) == y.order()
                and y not in S
                and conjugate_set(S, y) == S
            )
        )
        S = generated(degree, gens)
    return tuple(gens), S
