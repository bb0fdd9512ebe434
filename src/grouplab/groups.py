"""Generator-defined permutation groups and the operations on them.

A :class:`Group` is immutable after construction.  Its membership structure
(a base and strong generating set), element list, element index and dense
multiplication table are all built lazily, each at most once.  The element
list, and with it the multiplication table, exists only for groups whose
order is at most the enumeration cap: the table is built on the element
index, so every enumerable group gets its table, and above the cap both
raise :class:`EnumerationCapError`.  Every operation that needs element
data runs on the table; only :func:`normal_closure` has a second path, on
the stabilizer chain, which needs no element list.

Element data are NumPy arrays.  The element matrix (one row of images per
element, rows in canonical order) is the set of products of the
stabilizer-chain transversals; :class:`Permutation` objects are made from
its rows only for callers of :meth:`Group.elements`.  An element is fixed
by its images of a base, so the element index looks elements up by those
images, and the multiplication table and the inverses are built by one
vectorised lookup per block of products.  A subgroup made from a parent's
element indices takes the parent's matrix rows.

Element sets of subgroups are manipulated as bitmasks over the parent
group's canonical element index (elements sorted lexicographically by image
array, so index 0 is always the identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        _known_elements: tuple[Permutation, ...] | None = None,
        _known_emat: np.ndarray | None = None,
    ):
        if degree < 1:
            raise ValueError("degree must be positive")
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
        self._order: int | None = None
        self._elements: tuple[Permutation, ...] | None = _known_elements
        self._emat: np.ndarray | None = _known_emat
        if _known_elements is not None:
            self._order = len(_known_elements)
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
        if self._order is None:
            n = 1
            for lv in self._bsgs():
                n *= len(lv.transversal)
            self._order = n
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
        if g.degree != self.degree:
            return False
        if self._elements is not None:
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
        """All elements, sorted lexicographically by image array.

        The element matrix ``_emat`` (one row of images per element) is the
        set of products of the stabilizer-chain transversals, built one
        level at a time from the deepest; the Permutations are made from
        its sorted rows.  Raises EnumerationCapError when the order exceeds
        the cap.
        """
        if self._elements is None:
            n = self.order()
            if n > self.enum_cap:
                raise EnumerationCapError(
                    f"group of order {n} too large to enumerate "
                    f"(enumeration cap {self.enum_cap})",
                    cap=self.enum_cap,
                    size=n,
                )
            emat = np.arange(self.degree, dtype=np.int32)[None, :]
            for lv in reversed(self._bsgs()):
                u = np.array([t.images for t in lv.transversal.values()], np.int32)
                # x * u has images u[x]
                emat = u[:, emat].reshape(-1, self.degree)
            self._emat = emat[np.lexsort(emat.T[::-1])]
            self._elements = tuple(
                Permutation._unchecked(tuple(row.tolist())) for row in self._emat
            )
        return self._elements

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
            self.elements()
            emat = self._emat
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
        """
        key = np.zeros(shape, dtype=np.int32)
        for table, images in zip(self._keys, base_images):
            key = table[key, images]
        return key

    def _indices_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the elements with the given image rows; raises
        NotASubgroupError when a row is not an element."""
        self._ensure_index()
        idx = self._lookup(rows[:, self._base].T, len(rows)).astype(np.int64)
        if (idx < 0).any() or not np.array_equal(self._emat[idx], rows):
            raise NotASubgroupError("element set is not contained in parent")
        return idx

    def _find(self, g: Permutation) -> int:
        """Index of g, or -1 when g is not an element."""
        if g.degree != self.degree:
            return -1
        self._ensure_index()
        i = int(self._lookup(np.array(g.images)[self._base], ()))
        return i if i >= 0 and self._elements[i] == g else -1

    def element_index(self, g: Permutation) -> int:
        i = self._find(g)
        if i < 0:
            raise NotASubgroupError(f"{g} is not an element of this group")
        return i

    def element_at(self, i: int) -> Permutation:
        return self.elements()[i]

    def table(self) -> np.ndarray:
        """Dense multiplication table on element indices: n x n int32
        entries, 400 MB at the default enumeration cap of 10,000.  Raises
        EnumerationCapError when the order exceeds the enumeration cap.

        Product e_i * e_j has images e_j[e_i], so for all j at once its
        base images are the columns e_i[base] of the element matrix, and
        the element index turns them into product indices.  Rows are done
        in blocks of at most ``_BLOCK`` products, one base point at a time,
        so the work arrays beyond the table hold O(max(n, _BLOCK)) entries.
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
        sub.elements()
        # both element lists are in lexicographic order, so the indices are too
        return self._indices_of_rows(sub._emat)

    def mask_of(self, sub: "Group | int") -> int:
        if isinstance(sub, int):
            return sub
        return mask_from_indices(self.indices_of(sub), self.order())

    def subgroup_from_indices(self, idx: np.ndarray) -> "Group":
        """Subgroup with the given element indices (assumed closed).

        A small generating set is extracted greedily in index order, and the
        element list is attached so it is never recomputed.
        """
        elems = self.elements()
        idx = np.sort(np.asarray(idx, dtype=np.int64))
        members = tuple(elems[int(i)] for i in idx)
        gens: list[Permutation] = []
        if len(idx) > 1:
            tbl = self.table()
            have = np.zeros(self.order(), dtype=bool)
            have[0] = True
            for i in idx:
                i = int(i)
                if have[i]:
                    continue
                gens.append(elems[i])
                prev = np.nonzero(have)[0]
                seed = np.append(prev, i)
                have[_closure_indices(tbl, seed, closed=prev)] = True
                if int(have.sum()) == len(idx):
                    break
        return Group(
            self.degree,
            gens,
            self.enum_cap,
            _known_elements=members,
            _known_emat=self._emat[idx],
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
        self.elements(), other.elements()
        return np.array_equal(self._emat, other._emat)

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


def normal_closure(G: Group, H: Group) -> Group:
    """Smallest normal subgroup of G containing H.

    Up to ``DEFAULT_TABLE_CAP`` it is closed on G's table
    (:func:`_normal_closure_indices`); above it the conjugates of H's
    generators are added on the stabilizer chain until stable, which needs
    neither G's element list nor its table (the derived series of S7 takes
    milliseconds this way).  The path fixes the generators of the result,
    and so the witness text of Phi(P).
    """
    _require_subgroup(G, H)
    if G.order() <= DEFAULT_TABLE_CAP:
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


def _normal_closure_indices(G: Group, H: Group | int) -> np.ndarray:
    """Indices of the normal closure of H (a subgroup or its mask) on G's
    table: closed alternately under products and under conjugation by G's
    generators until stable."""
    tbl = G.table()
    member = np.zeros(G.order(), dtype=bool)
    member[_closure_indices(tbl, G.indices_of(H))] = True
    cvecs = [G.conjugation_vector(G.element_index(g)) for g in G.generators]
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

    Results are kept in ``G.cache["normalizers"]``, mask to mask, so the
    normalizers that building the subgroup lattice computes for every
    member serve later callers too.
    """
    known = G.cache.setdefault("normalizers", {})
    found = known.get(mask)
    if found is None:
        found = known[mask] = _scan_normalizer(G, mask)
    return found


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
    ``project`` maps each source element to the coset permutation it
    induces by right multiplication.
    """

    source: Group
    quotient: Group
    coset_of: np.ndarray
    reps: np.ndarray
    _proj_idx: np.ndarray | None = field(default=None, repr=False)

    def project(self, g: Permutation) -> Permutation:
        i = self.projection_indices()[self.source.element_index(g)]
        return self.quotient.element_at(int(i))

    def projection_indices(self) -> np.ndarray:
        """Array q with q[i] = quotient element index of source element i."""
        if self._proj_idx is None:
            # row i: the cosets N r * e_i, i.e. the images of e_i's projection
            rows = self.coset_of[self.source.table()[self.reps]].T
            self._proj_idx = self.quotient._indices_of_rows(rows)
        return self._proj_idx


def quotient(G: Group, N: Group | int) -> CosetMap:
    """G/N via the right-multiplication action on cosets of N, which may be
    a subgroup or its mask over G's index.

    Cosets are numbered by their least element.  Raises NotNormalError when
    N is not normal in G (the action kernel would exceed N).
    """
    nidx = G.indices_of(N)
    inside = np.zeros(G.order(), dtype=bool)
    inside[nidx] = True
    for g in G.generators:
        if not inside[G.conjugation_vector(G.element_index(g))[nidx]].all():
            raise NotNormalError("kernel of a quotient must be a normal subgroup")
    tbl = G.table()
    reps, coset_of = np.unique(tbl[nidx].min(axis=0), return_inverse=True)
    qgens = []
    for g in G.generators:
        imgs = coset_of[tbl[reps, G.element_index(g)]]
        qgens.append(Permutation(tuple(int(v) for v in imgs)))
    Q = Group(max(len(reps), 1), qgens, G.enum_cap)
    return CosetMap(source=G, quotient=Q, coset_of=coset_of, reps=reps)
