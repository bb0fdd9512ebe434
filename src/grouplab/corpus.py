"""Group constructions, the built-in verification corpus, and group files.

Group file format (line oriented, ``#`` starts a comment):

    name: S3
    degree: 3
    gen: (1 2)
    gen: (1 2 3)

Cycle notation is 1-based disjoint-cycle form with whitespace-separated
points; the identity is written ``()``.  A generator may instead be given
as a 1-based image array under the alternative key ``gen-images``, e.g.
``gen-images: 2 3 1``.

``GroupFile.to_group`` hands back the ``Group`` already built for an
earlier group file with the same degree and generator lines, from a
least-recently-used cache of at most ``GROUP_CACHE_SIZE`` groups.  A group
whose order is known to exceed ``GROUP_CACHE_MAX_ORDER`` is dropped at the
next lookup.  So the cache retains at most 32 groups of order at most 128,
each with a dense table of at most 64 KiB: 2 MiB of tables in all, since
its shared Sylow subgroups (``sylow_subgroup``) build none of their own.
A repeated request thus finds G with everything its ``cache`` already
holds, its Sylow subgroups and their Phi(P) and maximal subgroups among
them, and a repeated main check at the same prime and mode finds its
verdict there (``verify_main``).
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CycleFormatError
from .groups import Group, group_from_generators
from .perms import Permutation
from .structure import is_prime


@dataclass
class NamedGroup:
    name: str
    group: Group
    provenance: str = "builtin"


@dataclass
class GroupFile:
    name: str
    degree: int
    generators: list[str]

    def to_group(self) -> Group:
        """The group of these generators: the cached one if an earlier
        group file had the same degree and generator lines."""
        return _cached_group(self.degree, tuple(self.generators))


# -- the group-file cache ------------------------------------------------------

GROUP_CACHE_SIZE = 32
"""Most groups the group-file cache holds."""

GROUP_CACHE_MAX_ORDER = 128
"""Largest order the cache keeps past the next lookup (a 64 KiB table)."""

_groups: OrderedDict[tuple[int, tuple[str, ...]], Group] = OrderedDict()
_unsized: dict[tuple[int, tuple[str, ...]], Group] = {}
"""The entries whose order was unknown at the last lookup: a known order
never changes, so only these are looked at again."""
_counts = {"hits": 0, "misses": 0}


class GroupCacheInfo(NamedTuple):
    """What :func:`group_cache_info` reports."""

    hits: int
    misses: int
    entries: int
    table_bytes: int


def _cached_group(degree: int, generators: tuple[str, ...]) -> Group:
    """The group on ``degree`` points generated by the cycle texts, from
    the cache or built and entered into it.  Computes nothing beyond the
    lookup: an order not yet known is not computed, so a large group goes
    at the first lookup after its order is found."""
    for key in [k for k, G in _unsized.items() if G._order is not None]:
        if _unsized.pop(key)._order > GROUP_CACHE_MAX_ORDER:
            del _groups[key]
    key = (degree, generators)
    G = _groups.get(key)
    if G is not None:
        _counts["hits"] += 1
        _groups.move_to_end(key)
        return G
    _counts["misses"] += 1
    G = group_from_generators(
        degree, [Permutation.parse(degree, text) for text in generators]
    )
    _groups[key] = _unsized[key] = G
    if len(_groups) > GROUP_CACHE_SIZE:
        _unsized.pop(_groups.popitem(last=False)[0], None)
    return G


def group_cache_info() -> GroupCacheInfo:
    """Hits and misses of ``GroupFile.to_group`` since the last clear, the
    groups held, and the bytes of their dense tables (a Sylow subgroup
    builds none of its own)."""
    return GroupCacheInfo(
        hits=_counts["hits"],
        misses=_counts["misses"],
        entries=len(_groups),
        table_bytes=sum(
            G._table.nbytes for G in _groups.values() if G._table is not None
        ),
    )


def clear_group_cache() -> None:
    """Empty the group-file cache and reset its counts."""
    _groups.clear()
    _unsized.clear()
    _counts.update(hits=0, misses=0)


# -- constructions ---------------------------------------------------------


def cyclic(n: int) -> Group:
    """C_n as an n-cycle (trivial for n = 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Group(1)
    return group_from_generators(n, [Permutation.from_cycles(n, [range(1, n + 1)])])


def dihedral(order: int) -> Group:
    """Dihedral group of the given (even) order, on n = order/2 points."""
    if order < 2 or order % 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = order // 2
    if n == 1:
        return group_from_generators(2, [Permutation.from_cycles(2, [(1, 2)])])
    if n == 2:
        return group_from_generators(
            4,
            [
                Permutation.from_cycles(4, [(1, 2)]),
                Permutation.from_cycles(4, [(3, 4)]),
            ],
        )
    rot = Permutation([(x + 1) % n for x in range(n)])
    refl = Permutation([(n - x) % n for x in range(n)])
    return group_from_generators(n, [rot, refl])


def symmetric(n: int) -> Group:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Group(1)
    gens = [Permutation.from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [range(1, n + 1)]))
    return group_from_generators(n, gens)


def alternating(n: int) -> Group:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return Group(max(n, 1))
    gens = [Permutation.from_cycles(n, [(1, 2, 3)])]
    if n > 3:
        cyc = range(1, n + 1) if n % 2 else range(2, n + 1)
        gens.append(Permutation.from_cycles(n, [cyc]))
    return group_from_generators(n, gens)


_Q8_RIGHT_I = (2, 3, 1, 0, 7, 6, 4, 5)
_Q8_RIGHT_J = (4, 5, 6, 7, 1, 0, 3, 2)


def quaternion8() -> Group:
    """Q_8 on 8 points via its regular representation.

    Points stand for 1, -1, i, -i, j, -j, k, -k; the generators are right
    multiplication by i and by j.
    """
    return group_from_generators(
        8, [Permutation(_Q8_RIGHT_I), Permutation(_Q8_RIGHT_J)]
    )


def elementary_abelian(p: int, k: int) -> Group:
    """C_p^k as k disjoint p-cycles on p*k points."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    gens = [
        Permutation.from_cycles(p * k, [range(b * p + 1, b * p + p + 1)])
        for b in range(k)
    ]
    return group_from_generators(p * k, gens)


def direct_product(A: Group, B: Group) -> Group:
    """A x B acting on the disjoint union of the two point sets."""
    da, db = A.degree, B.degree
    gens = [Permutation(tuple(g.images) + tuple(range(da, da + db))) for g in A.generators]
    gens += [
        Permutation(tuple(range(da)) + tuple(v + da for v in g.images))
        for g in B.generators
    ]
    return group_from_generators(da + db, gens)


# -- the built-in corpus ------------------------------------------------------


def _base_constructions(max_order: int) -> list[NamedGroup]:
    out = []
    for n in range(1, 33):
        if n <= max_order:
            out.append(NamedGroup(f"C{n}", cyclic(n)))
    for n in range(2, 17):
        if 2 * n <= max_order:
            out.append(NamedGroup(f"D{2*n}", dihedral(2 * n)))
    if 8 <= max_order:
        out.append(NamedGroup("Q8", quaternion8()))
    facts = {2: 2, 3: 6, 4: 24, 5: 120}
    for n in range(2, 6):
        if facts[n] <= max_order:
            out.append(NamedGroup(f"S{n}", symmetric(n)))
    for n in range(3, 6):
        if facts[n] // 2 <= max_order:
            out.append(NamedGroup(f"A{n}", alternating(n)))
    for p in (2, 3, 5, 7):
        k = 2
        while p**k <= max_order:
            out.append(NamedGroup(f"C{p}^{k}", elementary_abelian(p, k)))
            k += 1
    return out


def builtin_corpus(max_order: int) -> list[NamedGroup]:
    """Deterministic corpus: the base constructions of order <= max_order
    plus all pairwise direct products of nontrivial base members whose
    order stays under the bound, deduplicated by (order, name) and sorted
    by (order, name)."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    base = _base_constructions(max_order)
    out: dict[tuple[int, str], NamedGroup] = {}
    for ng in base:
        out.setdefault((ng.group.order(), ng.name), ng)
    nontrivial = [ng for ng in base if ng.group.order() > 1]
    for i, ng_a in enumerate(nontrivial):
        for ng_b in nontrivial[i:]:
            order = ng_a.group.order() * ng_b.group.order()
            if order > max_order:
                continue
            a, b = sorted(
                (ng_a, ng_b), key=lambda ng: (ng.group.order(), ng.name)
            )
            name = f"{a.name}x{b.name}"
            if (order, name) not in out:
                out[(order, name)] = NamedGroup(
                    name, direct_product(a.group, b.group)
                )
    return [out[k] for k in sorted(out)]


_NAME_RES = [
    (re.compile(r"^C(\d+)\^(\d+)$"), lambda m: elementary_abelian(int(m[1]), int(m[2]))),
    (re.compile(r"^C(\d+)$"), lambda m: cyclic(int(m[1]))),
    (re.compile(r"^D(\d+)$"), lambda m: dihedral(int(m[1]))),
    (re.compile(r"^S(\d+)$"), lambda m: symmetric(int(m[1]))),
    (re.compile(r"^A(\d+)$"), lambda m: alternating(int(m[1]))),
    (re.compile(r"^Q8$"), lambda m: quaternion8()),
]


def named_group(name: str) -> NamedGroup:
    """Construct a group from its corpus-style name, e.g. ``S4``, ``C7^7``
    or ``S3xS3`` (``x`` builds direct products, left associated)."""
    if "x" in name:
        parts = name.split("x")
        grp = named_group(parts[0]).group
        for part in parts[1:]:
            grp = direct_product(grp, named_group(part).group)
        return NamedGroup(name, grp)
    for rx, build in _NAME_RES:
        m = rx.match(name)
        if m:
            return NamedGroup(name, build(m))
    raise ValueError(f"unknown builtin group name {name!r}")


# -- group files ---------------------------------------------------------------


def parse_group_file(text: str) -> GroupFile:
    name = None
    degree = None
    gens: list[str] = []
    image_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise CycleFormatError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "name":
            name = value
        elif key == "degree":
            try:
                degree = int(value)
            except ValueError:
                raise CycleFormatError(f"line {lineno}: bad degree {value!r}") from None
        elif key == "gen":
            gens.append(value)
        elif key == "gen-images":
            image_lines.append((len(gens), value))
            gens.append("")  # placeholder, resolved below
        else:
            raise CycleFormatError(f"line {lineno}: unknown key {key!r}")
    if name is None:
        raise CycleFormatError("missing 'name:' line")
    if degree is None or degree < 1:
        raise CycleFormatError("missing or invalid 'degree:' line")
    for pos, value in image_lines:
        try:
            images = [int(tok) for tok in value.split()]
        except ValueError:
            raise CycleFormatError(f"bad image array {value!r}") from None
        if sorted(images) != list(range(1, degree + 1)):
            raise CycleFormatError(
                f"image array {value!r} is not a bijection of 1..{degree}"
            )
        gens[pos] = Permutation([v - 1 for v in images]).cycle_string()
    gf = GroupFile(name=name, degree=degree, generators=gens)
    gf.to_group()  # validates the cycles; the group waits in the cache
    return gf


def write_group_file(named: NamedGroup) -> str:
    lines = [f"name: {named.name}", f"degree: {named.group.degree}"]
    for g in named.group.generators:
        lines.append(f"gen: {g.cycle_string()}")
    return "\n".join(lines) + "\n"


def load_group_file(path: str) -> NamedGroup:
    with open(path, "r", encoding="utf-8") as fh:
        gf = parse_group_file(fh.read())
    return NamedGroup(gf.name, gf.to_group(), provenance=f"file({path})")


def corpus_manifest(groups: list[NamedGroup]) -> str:
    """Structured text manifest: one ``name order degree`` line per group."""
    lines = ["# name order degree"]
    for ng in groups:
        lines.append(f"{ng.name} {ng.group.order()} {ng.group.degree}")
    return "\n".join(lines) + "\n"
