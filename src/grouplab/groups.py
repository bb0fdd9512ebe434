"""Generator-defined permutation groups and the operations on them.

A :class:`Group` is immutable after construction.  Its element matrix,
element list, element index and dense multiplication table are all built
lazily, each at most once.  They exist only for groups whose order is at
most the enumeration cap: :meth:`Group.order` enumerates such a group by
coset enumeration (:func:`_enumerate`, Dimino's algorithm), and only a
larger group builds a stabilizer chain (Schreier-Sims), for its order and
membership; above the cap the element list and the table raise
:class:`EnumerationCapError`.  The table is built on the element index, so
every enumerable group gets its table, and every operation that needs
element data runs on it.  Two constructions have a second path, on
generators, which needs no table, for groups above ``DEFAULT_TABLE_CAP``
or above their enumeration cap (:func:`_on_table`): :func:`normal_closure`,
and the p-group frame of :mod:`grouplab.structure` (Phi(P), the Burnside
basis and the maximal subgroups of P), which for a Sylow subgroup P of G
runs on G's table.

Element data are NumPy arrays with one input, the element matrix (one row
of images per element, rows in canonical order).  A group derived from an
enumerated one is given its matrix and enumerates nothing: a subgroup
takes its parent's rows, G/N is read off G's coset table, its own table
included.  Other groups enumerate theirs from their generators.
:class:`Permutation` objects are made from rows only at the API boundary.
An element is fixed by its images of a base, so the element index looks
elements up by those images, and the multiplication table and the inverses
are built by one vectorised lookup per block of products.

Element sets of subgroups are manipulated as bitmasks over the parent
group's canonical element index (elements sorted lexicographically by image
array, so index 0 is always the identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DEFAULT_ENUM_CAP,
    DEFAULT_TABLE_CAP,
    DegreeMismatchError,
    EnumerationCapError,
    NotASubgroupError,
    NotNormalError,
)
from .perms import Permutation

_BLOCK = 1 << 16
"""Most products looked up at once while building a table."""


class _Level:
    """One level of the stabilizer chain."""

    __slots__ = ("base", "transversal", "inv_transversal", "orbit", "done")

    def __init__(self, base: int, identity: Permutation):
        self.base = base
        self.transversal = {base: identity}
        self.inv_transversal = {base: identity}
        self.orbit = [base]
        self.done: set[tuple[int, Permutation]] = set()


def _build_bsgs(degree: int, generators: Sequence[Permutation]) -> list[_Level]:
    """Deterministic incremental Schreier-Sims.

    Returns the stabilizer chain; the group order is the product of the
    orbit sizes.  New strong generators are registered at the deepest level
    whose base points they all fix, and every level processes the strong
    generators of its level and below (those generate the level stabilizer).
    """
    ident = Permutation.identity(degree)
    levels: list[_Level] = []
    depth_gens: list[list[Permutation]] = []
    registered: set[Permutation] = set()

    def strip(g: Permutation) -> tuple[Permutation, int]:
        for i, lv in enumerate(levels):
            beta = g.images[lv.base]
            if beta == lv.base:
                continue
            uinv = lv.inv_transversal.get(beta)
            if uinv is None:
                return g, i
            g = g * uinv
        return g, len(levels)

    def register(g: Permutation) -> bool:
        h, m = strip(g)
        if h.is_identity or h in registered:
            return False
        registered.add(h)
        if m == len(levels):
            base = min(i for i, v in enumerate(h.images) if v != i)
            levels.append(_Level(base, ident))
            depth_gens.append([])
        depth_gens[m].append(h)
        return True

    def sweep(l: int) -> list[Permutation]:
        lv = levels[l]
        eff = [g for d in range(l, len(levels)) for g in depth_gens[d]]
        residues: list[Permutation] = []
        queue = [(pt, g) for pt in lv.orbit for g in eff if (pt, g) not in lv.done]
        qi = 0
        while qi < len(queue):
            pt, g = queue[qi]
            qi += 1
            if (pt, g) in lv.done:
                continue
            lv.done.add((pt, g))
            gamma = g.images[pt]
            u = lv.transversal[pt]
            if gamma not in lv.transversal:
                rep = u * g
                lv.transversal[gamma] = rep
                lv.inv_transversal[gamma] = rep.inverse()
                lv.orbit.append(gamma)
                for g2 in eff:
                    queue.append((gamma, g2))
            else:
                sg = u * g * lv.inv_transversal[gamma]
                if not sg.is_identity:
                    residues.append(sg)
        return residues

    pending = [g for g in generators if not g.is_identity]
    while True:
        changed = False
        for g in pending:
            if register(g):
                changed = True
        pending = []
        for l in range(len(levels)):
            res = sweep(l)
            if res:
                pending.extend(res)
                changed = True
        if not pending and not changed:
            break
    return levels


def _enumerate(
    degree: int, generators: Sequence[Permutation], cap: int
) -> np.ndarray | None:
    """The sorted element matrix of <generators>, or None as soon as more
    than ``cap`` elements are found.

    Dimino's algorithm: from the powers of the generator of largest order,
    each further generator s extends the group H built so far to <H, s> by
    right cosets H·r.  The representatives r, from s, are closed under
    right multiplication by the generators so far, which permutes the right
    cosets of H: a product r * t lies in a coset already found, which is
    wholly in the set of elements so far, or in a new one, disjoint from
    it.  So each product needs one membership test, a set lookup of its
    row's bytes, and a new coset H·r is one gathered block ``r[H]`` (h * r
    has images r[h]).  The representatives are taken a generation at a
    time, so the gathers and key extractions run once per generation.

    Rows are held as uint8 up to degree 256 and as wider unsigned integers
    above, and a row's key is its bytes.  The rows found are sorted into
    the canonical (lexicographic) order at the end.
    """
    rdt = np.dtype(
        np.uint8 if degree <= 256 else np.uint16 if degree <= 1 << 16 else np.uint32
    )
    kv = np.dtype((np.void, degree * rdt.itemsize))

    def keys_of(rows: np.ndarray) -> list[bytes]:
        return rows.reshape(-1, degree).view(kv).ravel().tolist()

    order_of = {g: g.order() for g in generators}
    gens = sorted(order_of, key=order_of.get, reverse=True)
    top = order_of[gens[0]] if gens else 1
    if top > cap:
        return None
    gmat = np.array([g.images for g in gens], dtype=rdt).reshape(-1, degree)
    powers = [np.arange(degree, dtype=rdt)]
    for _ in range(1, top):
        powers.append(gmat[0][powers[-1]])
    blocks = [np.array(powers)]
    keys = set(keys_of(blocks[0]))
    for i in range(1, len(gens)):
        if gmat[i].tobytes() in keys:
            continue
        H = np.concatenate(blocks)
        h = len(H)
        new = gmat[i : i + 1]
        while len(new):
            cosets = np.take(new, H, axis=1)
            ck = keys_of(cosets)
            # H's first row is the identity, so ck[c * h] is new[c]'s key;
            # of several products in one new coset only the first is kept
            taken = []
            for c in range(len(new)):
                if ck[c * h] not in keys:
                    taken.append(c)
                    keys.update(ck[c * h : (c + 1) * h])
                    if len(keys) > cap:
                        return None
            if len(taken) < len(new):
                new, cosets = new[taken], cosets[taken]
            blocks.append(cosets.reshape(-1, degree))
            prods = np.take(gmat[: i + 1], new, axis=1).reshape(-1, degree)
            fresh = [j for j, k in enumerate(keys_of(prods)) if k not in keys]
            new = prods[fresh]
    rows = np.concatenate(blocks)
    return rows[np.lexsort(rows.T[::-1])].astype(np.int32)


class Group:
    """A finite permutation group on the points {0..degree-1}.

    Construct via :func:`group_from_generators` or the factories in
    :mod:`grouplab.corpus`.  Two groups compare equal when they have the
    same degree and the same element set (which requires enumerability).
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation] = (),
        enum_cap: int = DEFAULT_ENUM_CAP,
        _known_emat: np.ndarray | None = None,
    ):
        if degree < 1:
            raise ValueError("degree must be positive")
        if enum_cap < 1:
            raise ValueError(f"enum_cap must be at least 1, not {enum_cap}")
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                raise TypeError(f"generator {g!r} is not a Permutation")
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {degree}"
                )
            if not g.is_identity and g not in seen:
                seen.add(g)
                gens.append(g)
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.enum_cap = enum_cap
        self._levels: list[_Level] | None = None
        self._order = None if _known_emat is None else len(_known_emat)
        self._elements: tuple[Permutation, ...] | None = None
        self._emat: np.ndarray | None = _known_emat
        self._base: np.ndarray | None = None
        self._keys: list[np.ndarray] | None = None
        self._table: np.ndarray | None = None
        self._inv_idx: np.ndarray | None = None
        self.cache: dict = {}

    # -- lazy structure ----------------------------------------------------

    def _bsgs(self) -> list[_Level]:
        if self._levels is None:
            self._levels = _build_bsgs(self.degree, self.generators)
        return self._levels

    def order(self) -> int:
        """|G|: the length of the element matrix, which a group of at most
        ``enum_cap`` elements enumerates here (``_enumerate``); only a
        larger group builds its stabilizer chain, whose orbit sizes
        multiply to the order."""
        if self._order is None:
            self._emat = _enumerate(self.degree, self.generators, self.enum_cap)
            if self._emat is not None:
                self._order = len(self._emat)
            else:
                self._order = math.prod(len(lv.transversal) for lv in self._bsgs())
        return self._order

    def __len__(self) -> int:
        return self.order()

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    @property
    def is_trivial(self) -> bool:
        return not self.generators

    def contains(self, g: Permutation) -> bool:
        """Membership: by the element index when G is enumerable, else by
        sifting g through the stabilizer chain."""
        if g.degree != self.degree:
            return False
        self.order()
        if self._emat is not None:
            return self._find(g) >= 0
        h = g
        for lv in self._bsgs():
            beta = h.images[lv.base]
            if beta == lv.base:
                continue
            uinv = lv.inv_transversal.get(beta)
            if uinv is None:
                return False
            h = h * uinv
        return h.is_identity

    def __contains__(self, g: Permutation) -> bool:
        return self.contains(g)

    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted lexicographically by image array: one
        Permutation per row of the element matrix, made on the first call.
        Raises EnumerationCapError when the order exceeds the cap.
        """
        if self._elements is None:
            rows = self._matrix().tolist()
            self._elements = tuple(Permutation._unchecked(tuple(r)) for r in rows)
        return self._elements

    def _matrix(self) -> np.ndarray:
        """The element matrix ``_emat``, which a group derived from an
        enumerated one is given and any other builds in :meth:`order`.
        Raises EnumerationCapError when the order exceeds the cap.
        """
        n = self.order()
        if self._emat is None:
            raise EnumerationCapError(
                f"group of order {n} too large to enumerate "
                f"(enumeration cap {self.enum_cap})",
                cap=self.enum_cap,
                size=n,
            )
        return self._emat

    def _ensure_index(self) -> None:
        """Build the element index: a base and one key table per base point.

        The base is chosen greedily from the element matrix: each point is
        the least one moved by an element fixing the points before it, so
        an element is fixed by its images of the base points.  Level l's
        key table maps (key of the first l base images, image of base
        point l) to the key of the first l + 1.  Keys are dense ranks of
        the prefixes that occur, so every key is below the group order and
        the lookup is exact at any degree; the last level's key is the
        element index.  Row -1 of every table is -1, so a prefix that no
        element has stays -1.
        """
        if self._keys is None:
            emat = self._matrix()
            n, deg = emat.shape
            base: list[int] = []
            fixing = np.ones(n, dtype=bool)
            while fixing.sum() > 1:
                moved = (emat[fixing] != np.arange(deg)).any(axis=0)
                base.append(int(np.argmax(moved)))
                fixing &= emat[:, base[-1]] == base[-1]
            key = np.zeros(n, dtype=np.int64)
            keys = []
            for level, b in enumerate(base):
                if level == len(base) - 1:
                    nxt = np.arange(n)
                else:
                    nxt = np.unique(key * deg + emat[:, b], return_inverse=True)[1]
                table = np.full((int(key.max()) + 2, deg), -1, dtype=np.int32)
                table[key, emat[:, b]] = nxt
                keys.append(table)
                key = nxt
            self._base = np.array(base, dtype=np.int64)
            self._keys = keys

    def _lookup(self, base_images: Iterable[np.ndarray], shape) -> np.ndarray:
        """Element indices from images of the base points.

        ``base_images`` yields, for each base point in turn, an array of
        its images of the given shape; the result has that shape, with -1
        where no element has those base images.  Exact for elements of the
        group; anything else must be checked against the element matrix.
        Needs the index built.

        Each level's step is one 1-D ``take`` from its key table read flat,
        at ``key * degree + image`` (formed in place in the key array): a
        key of -1 lands in the last row, which is all -1.
        """
        key = np.zeros(shape, dtype=np.int32)
        for table, images in zip(self._keys, base_images):
            key *= self.degree
            key += images
            key = table.ravel().take(key)
        return key

    def _find(self, g: Permutation) -> int:
        """Index of g, or -1 when g is not an element.  One element walks
        the key tables with plain ints, which beats any array step."""
        if g.degree != self.degree:
            return -1
        self._ensure_index()
        i = 0
        for table, b in zip(self._keys, self._base.tolist()):
            i = int(table[i, g.images[b]])
        return i if i >= 0 and tuple(self._emat[i].tolist()) == g.images else -1

    def element_index(self, g: Permutation) -> int:
        i = self._find(g)
        if i < 0:
            raise NotASubgroupError(f"{g} is not an element of this group")
        return i

    def element_at(self, i: int) -> Permutation:
        return Permutation._unchecked(tuple(self._matrix()[i].tolist()))

    def table(self) -> np.ndarray:
        """Dense multiplication table on element indices: n x n int32
        entries, 400 MB at the default enumeration cap of 10,000.  Raises
        EnumerationCapError when the order exceeds the enumeration cap.

        Product e_i * e_j has images e_j[e_i], so for all j at once its
        base images are the columns e_i[base] of the element matrix, and
        the element index turns them into product indices (``_lookup``:
        one flat ``take`` per base point).  Rows are done in blocks of at
        most ``_BLOCK`` products, one base point at a time, so the work
        arrays beyond the table hold O(max(n, _BLOCK)) entries.
        Inverses come the same way from the base images of the inverted
        rows.
        """
        if self._table is None:
            self._ensure_index()
            emat, base = self._emat, self._base
            n = len(emat)
            cols = np.ascontiguousarray(emat.T)
            tbl = np.empty((n, n), dtype=np.int32)
            step = max(1, _BLOCK // n)
            for lo in range(0, n, step):
                rows = emat[lo : lo + step]
                images = (cols[rows[:, b]] for b in base)
                tbl[lo : lo + step] = self._lookup(images, (len(rows), n))
            inv_base = np.argsort(emat, axis=1)[:, base].T
            self._inv_idx = self._lookup(inv_base, n).astype(np.int64)
            self._table = tbl
        return self._table

    def inverse_indices(self) -> np.ndarray:
        self.table()
        return self._inv_idx

    # -- subgroup interop ---------------------------------------------------

    def indices_of(self, sub: "Group | int") -> np.ndarray:
        """Sorted indices of a subgroup's elements in this group's index.

        An ``int`` is a mask over this index already (here and in
        :meth:`mask_of`, the one place where the two subgroup forms meet).
        """
        if isinstance(sub, int):
            return indices_from_mask(sub, self.order())
        if sub.degree != self.degree:
            raise NotASubgroupError("element set is not contained in parent")
        rows = sub._matrix()
        self._ensure_index()
        # both element matrices are in lexicographic order, so the indices are too
        idx = self._lookup(rows[:, self._base].T, len(rows)).astype(np.int64)
        if (idx < 0).any() or not np.array_equal(self._emat[idx], rows):
            raise NotASubgroupError("element set is not contained in parent")
        return idx

    def mask_of(self, sub: "Group | int") -> int:
        if isinstance(sub, int):
            return sub
        return mask_from_indices(self.indices_of(sub), self.order())

    def subgroup_from_indices(self, idx: np.ndarray) -> "Group":
        """Subgroup with the given element indices (assumed closed).

        A small generating set is extracted greedily in index order, and the
        rows of the element matrix are attached so they are never recomputed.
        """
        idx = np.sort(np.asarray(idx, dtype=np.int64))
        gens: list[Permutation] = []
        if len(idx) > 1:
            tbl = self.table()
            have = np.zeros(self.order(), dtype=bool)
            have[0] = True
            for i in idx:
                i = int(i)
                if have[i]:
                    continue
                gens.append(self.element_at(i))
                prev = np.nonzero(have)[0]
                seed = np.append(prev, i)
                have[_closure_indices(tbl, seed, closed=prev)] = True
                if int(have.sum()) == len(idx):
                    break
        return Group(
            self.degree, gens, self.enum_cap, _known_emat=self._matrix()[idx]
        )

    def subgroup_from_mask(self, mask: int) -> "Group":
        return self.subgroup_from_indices(indices_from_mask(mask, self.order()))

    def conjugation_vector(self, g_idx: int) -> np.ndarray:
        """Array c with c[x] = index of g^-1 * x * g (requires the table)."""
        tbl = self.table()
        inv = self.inverse_indices()
        return tbl[tbl[int(inv[g_idx])], g_idx]

    # -- comparison ----------------------------------------------------------

    def same_elements(self, other: "Group") -> bool:
        if self.degree != other.degree or self.order() != other.order():
            return False
        return np.array_equal(self._matrix(), other._matrix())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return self.same_elements(other)

    def __hash__(self) -> int:
        return hash((self.degree, self.order()))

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"<Group degree={self.degree} order={self.order()} gens=[{gens}]>"


# -- bitmask helpers ---------------------------------------------------------


def mask_from_indices(idx: np.ndarray, size: int) -> int:
    bits = np.zeros(size, dtype=np.uint8)
    bits[np.asarray(idx, dtype=np.int64)] = 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def indices_from_mask(mask: int, size: int) -> np.ndarray:
    raw = mask.to_bytes((size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return np.nonzero(bits[:size])[0].astype(np.int64)


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


def _closure_indices(
    table: np.ndarray, seed: np.ndarray, closed: np.ndarray | None = None
) -> np.ndarray:
    """Multiplicative closure of a set of element indices.

    In a finite group the multiplicative closure of any nonempty set is the
    subgroup it generates.  ``closed`` may name a subset of ``seed`` already
    known to be a subgroup; only the remainder is treated as frontier,
    which makes subgroup joins cheap.
    """
    n = table.shape[0]
    member = np.zeros(n, dtype=bool)
    member[seed] = True
    member[0] = True  # identity
    if closed is not None and closed.size:
        inside = np.zeros(n, dtype=bool)
        inside[closed] = True
        inside[0] = True
        frontier = np.nonzero(member & ~inside)[0]
    else:
        frontier = np.nonzero(member)[0]
    while frontier.size:
        cur = np.nonzero(member)[0]
        prods = np.unique(
            np.concatenate(
                [
                    table[frontier[:, None], cur].ravel(),
                    table[cur[:, None], frontier].ravel(),
                ]
            )
        )
        fresh = prods[~member[prods]]
        member[fresh] = True
        frontier = fresh
    return np.nonzero(member)[0]


@dataclass(frozen=True)
class ElementSet:
    """A set of elements of ``parent``, stored as a bitmask over the
    parent's canonical element index."""

    parent: Group
    mask: int

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> np.ndarray:
        return indices_from_mask(self.mask, self.parent.order())

    def is_subgroup_set(self) -> bool:
        """Exhaustive check that the set is closed under product and inverse."""
        tbl = self.parent.table()
        idx = self.indices()
        inside = np.zeros(self.parent.order(), dtype=bool)
        inside[idx] = True
        if not inside[0]:
            return False
        if not inside[self.parent.inverse_indices()[idx]].all():
            return False
        return bool(inside[tbl[np.ix_(idx, idx)]].all())


# -- constructors and predicates ----------------------------------------------


def group_from_generators(
    degree: int,
    gens: Iterable[Permutation],
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> Group:
    """Group generated by ``gens`` on {0..degree-1}.  An empty list yields
    the trivial group."""
    return Group(degree, gens, enum_cap)


def subgroup_generated(parent: Group, elems: Iterable[Permutation]) -> Group:
    """Subgroup of ``parent`` generated by ``elems``; every element must lie
    in ``parent``."""
    elems = tuple(elems)
    for p in elems:
        if not parent.contains(p):
            raise NotASubgroupError(f"{p} is not an element of the parent group")
    return Group(parent.degree, elems, parent.enum_cap)


def _require_subgroup(G: Group, H: Group) -> None:
    if H.degree != G.degree:
        raise NotASubgroupError("degree mismatch")
    for h in H.generators:
        if not G.contains(h):
            raise NotASubgroupError("not a subgroup: generator outside parent")


def conjugate_subgroup(G: Group, H: Group, g: Permutation) -> Group:
    """The subgroup g^-1 H g."""
    _require_subgroup(G, H)
    if not G.contains(g):
        raise NotASubgroupError(f"{g} is not an element of the group")
    ginv = g.inverse()
    return Group(G.degree, tuple(ginv * h * g for h in H.generators), G.enum_cap)


def is_normal(G: Group, H: Group) -> bool:
    """True iff conjugation by every generator of G preserves H."""
    _require_subgroup(G, H)
    for g in G.generators:
        ginv = g.inverse()
        for h in H.generators:
            if not H.contains(ginv * h * g):
                return False
    return True


def _on_table(G: Group) -> bool:
    """Whether the constructions with a generator path take G's table:
    |G| is at most both ``DEFAULT_TABLE_CAP`` and G's enumeration cap."""
    return G.order() <= min(DEFAULT_TABLE_CAP, G.enum_cap)


def normal_closure(G: Group, H: Group) -> Group:
    """Smallest normal subgroup of G containing H.

    On the table path (:func:`_on_table`) it is closed on G's table
    (:func:`_normal_closure_indices`); otherwise the conjugates of H's
    generators are added until stable, each tested for membership in the
    group generated so far (by its element index, or above the enumeration
    cap its stabilizer chain), which needs neither G's element list nor its
    table (the derived series of S7 takes milliseconds this way).  The path
    fixes the generators of the result, and so the witness text of Phi(P).
    """
    _require_subgroup(G, H)
    if _on_table(G):
        return G.subgroup_from_indices(_normal_closure_indices(G, H))
    gens = list(H.generators)
    K = Group(G.degree, gens, G.enum_cap)
    queue = list(gens)
    while queue:
        h = queue.pop(0)
        for g in G.generators:
            c = g.inverse() * h * g
            if not K.contains(c):
                gens.append(c)
                K = Group(G.degree, gens, G.enum_cap)
                queue.append(c)
    return K


def _normal_closure_indices(
    G: Group, H: Group | int, by: Sequence[Permutation] | None = None
) -> np.ndarray:
    """Indices of the normal closure of H (a subgroup or its mask) on G's
    table: closed alternately under products and under conjugation by G's
    generators until stable.  With ``by`` the generators of a subgroup K
    of G containing H, it is the normal closure of H in K."""
    tbl = G.table()
    member = np.zeros(G.order(), dtype=bool)
    member[_closure_indices(tbl, G.indices_of(H))] = True
    by = G.generators if by is None else by
    cvecs = [G.conjugation_vector(G.element_index(g)) for g in by]
    while True:
        cur = np.nonzero(member)[0]
        fresh = [cv[cur][~member[cv[cur]]] for cv in cvecs]
        fresh = [f for f in fresh if f.size]
        if not fresh:
            return cur
        member[np.concatenate(fresh)] = True
        member[_closure_indices(tbl, np.nonzero(member)[0])] = True


def centralizer(G: Group, H: Group) -> Group:
    """Elements of G commuting with every element of H (generator test)."""
    _require_subgroup(G, H)
    if not H.generators:
        return G
    tbl = G.table()
    keep = np.ones(G.order(), dtype=bool)
    for h in H.generators:
        hi = G.element_index(h)
        keep &= tbl[:, hi] == tbl[hi, :]
    return G.subgroup_from_indices(np.nonzero(keep)[0])


def _cached(G: Group, key, build):
    """``G.cache[key]``, built by ``build()`` on first use."""
    hit = G.cache.get(key)
    if hit is None:
        hit = G.cache[key] = build()
    return hit


def _normalizer_mask(G: Group, mask: int) -> int:
    """Mask of N_G(H) for H given by its mask over G's index.

    x normalizes H iff xH = Hx.  With the table the equivalent test
    x^-1 H x ⊆ H (conjugation is injective) runs on blocks of x, each
    gathering at most 2^18 conjugates so memory stays bounded.

    G's cache keeps each result under ``("normalizer", mask)``, so the
    normalizers that building the subgroup lattice computes for every
    member serve later callers too.
    """
    return _cached(G, ("normalizer", mask), lambda: _scan_normalizer(G, mask))


def _scan_normalizer(G: Group, mask: int) -> int:
    n = G.order()
    hidx = indices_from_mask(mask, n)
    tbl = G.table()
    inside = np.zeros(n, dtype=bool)
    inside[hidx] = True
    inv = G.inverse_indices()
    keep = np.empty(n, dtype=bool)
    step = max(1, (1 << 18) // len(hidx))
    for lo in range(0, n, step):
        xs = np.arange(lo, min(lo + step, n))
        conj = tbl[tbl[inv[xs][:, None], hidx], xs[:, None]]
        keep[lo : lo + step] = inside[conj].all(axis=1)
    return mask_from_indices(np.nonzero(keep)[0], n)


def normalizer(G: Group, H: Group) -> Group:
    """Elements g of G with H^g = H, by exhaustive scan."""
    _require_subgroup(G, H)
    return G.subgroup_from_mask(_normalizer_mask(G, G.mask_of(H)))


def center(G: Group) -> Group:
    return centralizer(G, G)


def intersection(G: Group, H: Group, K: Group) -> Group:
    """H ∩ K as a subgroup of G."""
    return G.subgroup_from_mask(G.mask_of(H) & G.mask_of(K))


def is_subnormal(G: Group, H: Group | int) -> bool:
    """True iff the ascending normalizer chain from H reaches G.  H may be
    a mask over G's index; the chain is climbed on masks."""
    if isinstance(H, Group):
        _require_subgroup(G, H)
    current = G.mask_of(H)
    while current.bit_count() < G.order():
        nxt = _normalizer_mask(G, current)
        if nxt == current:
            return False
        current = nxt
    return True


@dataclass
class CosetMap:
    """Quotient G/N realized as a permutation group on the cosets of N.

    ``quotient`` acts faithfully and regularly on the [G:N] cosets;
    ``coset_of[i]``, the number of source element i's coset, is also the
    quotient's index of the coset permutation that i induces by right
    multiplication, which ``project`` returns.
    """

    source: Group
    quotient: Group
    coset_of: np.ndarray
    reps: np.ndarray

    def project(self, g: Permutation) -> Permutation:
        i = self.coset_of[self.source.element_index(g)]
        return self.quotient.element_at(int(i))


def quotient(G: Group, N: Group | int) -> CosetMap:
    """G/N via the right-multiplication action on cosets of N, which may be
    a subgroup or its mask over G's index.

    Cosets are numbered by their least element.  G/N's element matrix is
    read off G's table: coset Nr sends Nc to Ncr, so its row starts with its
    own number and the rows need no sort.  G/N is handed its table too, so
    it builds no element index unless a ``Permutation`` is looked up in it:
    it acts regularly and coset 0 is N, so e_i * e_j, which sends coset 0
    to e_j[i], is element e_j[i], and the table is the element matrix
    transposed; the inverse of e_i is the column of 0 in row i.  Raises
    NotNormalError when N is not normal in G (the action kernel would
    exceed N).
    """
    nidx = G.indices_of(N)
    inside = np.zeros(G.order(), dtype=bool)
    inside[nidx] = True
    for g in G.generators:
        if not inside[G.conjugation_vector(G.element_index(g))[nidx]].all():
            raise NotNormalError("kernel of a quotient must be a normal subgroup")
    tbl = G.table()
    reps, coset_of = np.unique(tbl[nidx].min(axis=0), return_inverse=True)
    emat = coset_of[tbl[np.ix_(reps, reps)]].T.astype(np.int32)
    gen_rows = emat[coset_of[[G.element_index(g) for g in G.generators]]]
    qgens = [Permutation(tuple(row)) for row in gen_rows.tolist()]
    Q = Group(max(len(reps), 1), qgens, G.enum_cap, _known_emat=emat)
    Q._table = np.ascontiguousarray(emat.T)
    Q._inv_idx = Q._table.argmin(axis=1)
    return CosetMap(source=G, quotient=Q, coset_of=coset_of, reps=reps)
