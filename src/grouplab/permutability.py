"""Subgroup permutability predicates, decided from coset labels.

One kernel, :func:`permutes_with`, decides HL = LH for a whole batch of
subgroups H of G against one subgroup L.  The batch is a bool block with
one row per H and one column per element of G.  The left cosets xL and the
right cosets Lx are labelled by their least element, one gather each, and
the labels are cached per L in ``G.cache``.  Each row's elements are
scattered into the labels they hit: HL is the union of the left cosets
hit and LH the union of the right cosets hit, and the two are compared as
element sets, never by an order shortcut.

Two cross-assertions hold on every row of every batch, as a guard against
engine bugs: both sides hit |H|/|H ∩ L| cosets (the order law), and
HL = LH agrees with an independent test that HL is closed under inverses,
which does not use the right labels ((HL)^-1 = LH, so HL is closed under
inverses iff HL = LH).

Callers choose the batch.  The lemma suites pass the rows of G's lattice
record (``structure._lattice``) and read the predicates as vectors over
it (one vector per L, cached); the quotient parts of the lemmas pass the
images of many subgroups in G/N as one block, on the table that
``groups.quotient`` hands G/N; single predicate calls pass a batch of one.

A normal Sylow subgroup Q permutes with every H (HQ = QH when Q is
normal), so the restriction parts of the lemma suites and the failure
witness of the main check skip a prime whose Sylow subgroup is the only
one (``structure._normal_sylow_mask``).  The Sylow test here still sends
every Sylow subgroup through the kernel and its cross-assertions.

:func:`product_set` builds the two product sets of one pair, with its own
assertions, for witness text and the public API.

A subgroup argument is either a :class:`Group` or its bitmask over the
parent's element index (``G.mask_of(H)``), so no subgroup ``Group`` is
built on the predicates' account.  Predicate results are cached per
(parent, element-set mask): the theorem harness evaluates the same
maximal subgroups many times.  Caching is transparent because every
predicate is a pure function of the element sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_LATTICE_CAP
from .groups import ElementSet, Group, _cached, _mask_rows, mask_from_indices
from .structure import _Lattice, _lattice, all_sylow_subgroups, primes_of

_BLOCK = 1 << 18
"""Most cells one gather of the kernel touches, so memory stays bounded."""


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
    (HK = KH iff HK is a subgroup); |HK| = |H||K|/|H∩K| is asserted.
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


# -- the kernel -------------------------------------------------------------------


def _coset_labels(G: Group, L: Group | int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, lidx): left[x] is the least element of the left coset
    xL, right[x] that of the right coset Lx, and lidx L's element indices.
    Cached in ``G.cache`` per L's mask; the gathers run on blocks of at
    most ``_BLOCK`` table entries."""

    def build():
        tbl = G.table()
        lidx = G.indices_of(L)
        n = len(tbl)
        left = np.empty(n, dtype=tbl.dtype)
        right = np.empty(n, dtype=tbl.dtype)
        step = max(1, _BLOCK // len(lidx))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            left[lo:hi] = tbl[lo:hi, lidx].min(axis=1)
            right[lo:hi] = tbl[lidx, lo:hi].min(axis=0)
        return left, right, lidx

    return _cached(G, ("coset labels", G.mask_of(L)), build)


def permutes_with(G: Group, rows: np.ndarray, L: Group | int) -> np.ndarray:
    """Whether HL = LH, for each subgroup H of G given as a row of the bool
    block ``rows`` (True on H's element indices), against one subgroup L
    of G (a Group or its mask).

    Both cross-assertions of the module docstring hold on every row.  Rows
    are done in blocks of at most ``_BLOCK`` cells.
    """
    left, right, lidx = _coset_labels(G, L)
    inv = G.inverse_indices()
    out = np.empty(len(rows), dtype=bool)
    step = max(1, _BLOCK // len(left))
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        r, h = np.nonzero(block)
        hit_left = np.zeros(block.shape, dtype=bool)
        hit_left[r, left[h]] = True
        hit_right = np.zeros(block.shape, dtype=bool)
        hit_right[r, right[h]] = True
        cosets = block.sum(axis=1) // block[:, lidx].sum(axis=1)
        if not (
            (hit_left.sum(axis=1) == cosets) & (hit_right.sum(axis=1) == cosets)
        ).all():
            raise AssertionError("cosets hit != |H|/|H∩L|: permutability engine bug")
        hl = hit_left[:, left]
        equal = (hl == hit_right[:, right]).all(axis=1)
        closed = (hl[:, inv] == hl).all(axis=1)
        if (equal != closed).any():
            raise AssertionError("HL = LH inconsistent with HL closed under inverses")
        out[lo : lo + step] = equal
    return out


def _sylow_vector(
    G: Group, orders: np.ndarray, coprime_only: bool, permutes
) -> np.ndarray:
    """For subgroups H of these orders: whether H permutes with every Sylow
    q-subgroup Q of G, for each prime q of |G| (only those not dividing |H|
    when ``coprime_only``), where ``permutes(Q)`` is HQ = QH for every H.
    Rows already decided stop asking, and a prime no row asks about is
    never looked at."""
    ok = np.ones(len(orders), dtype=bool)
    for q in primes_of(G):
        live = ok & (orders % q != 0) if coprime_only else ok.copy()
        if not live.any():
            continue
        for Q in all_sylow_subgroups(G, q).masks:
            ok &= permutes(Q) | ~live
            live &= ok
            if not live.any():
                break
    return ok


def _block_predicate(G: Group, rows: np.ndarray, coprime_only: bool) -> np.ndarray:
    """s-permutability (s-semipermutability when ``coprime_only``) of the
    subgroup in each row of the bool block ``rows``."""
    return _sylow_vector(
        G, rows.sum(axis=1), coprime_only, lambda Q: permutes_with(G, rows, Q)
    )


# -- vectors over the subgroup lattice --------------------------------------------


def _lattice_permutes(G: Group, L: int, lat: _Lattice) -> np.ndarray:
    """HL = LH for every member H of G's lattice record ``lat``, cached per
    L's mask."""
    return _cached(G, ("lattice permutes", L), lambda: permutes_with(G, lat.rows, L))


def _lattice_predicate(G: Group, coprime_only: bool, lat: _Lattice) -> np.ndarray:
    """s-permutability (s-semipermutability when ``coprime_only``) of every
    member of G's lattice record ``lat``, from the cached vectors of G's
    Sylow subgroups."""

    def build():
        orders = lat.rows.sum(axis=1)
        return _sylow_vector(
            G, orders, coprime_only, lambda Q: _lattice_permutes(G, Q, lat)
        )

    return _cached(G, ("lattice predicate", coprime_only), build)


# -- the predicates ---------------------------------------------------------------


def _cached_predicate(G: Group, tag: str, H: Group | int, fn) -> bool:
    """fn(mask of H), cached in G under (tag, mask)."""
    mask = G.mask_of(H)
    return _cached(G, (tag, mask), lambda: fn(mask))


def _one(G: Group, mask: int, coprime_only: bool) -> bool:
    """The Sylow test for one subgroup: a batch of one row."""
    rows = _mask_rows([mask], G.order())
    return bool(_block_predicate(G, rows, coprime_only)[0])


def is_s_permutable(G: Group, H: Group | int) -> bool:
    """H permutes with every Sylow q-subgroup of G, for every prime q."""
    return _cached_predicate(G, "s-perm", H, lambda m: _one(G, m, False))


def is_s_semipermutable(G: Group, H: Group | int) -> bool:
    """H permutes with every Sylow q-subgroup for every prime q not
    dividing |H|."""
    return _cached_predicate(G, "s-semiperm", H, lambda m: _one(G, m, True))


def is_semipermutable(
    G: Group, H: Group | int, lattice_cap: int = DEFAULT_LATTICE_CAP
) -> bool:
    """H permutes with every subgroup of coprime order.

    Needs the full subgroup lattice; above the lattice cap this raises
    rather than approximating (the cap is checked before any cached value
    is read).  HK = KH is symmetric, so the subgroups K of coprime order
    are the batch and H is the kernel's L.
    """
    lat = _lattice(G, lattice_cap)

    def compute(mask: int) -> bool:
        coprime = [math.gcd(mask.bit_count(), K.bit_count()) == 1 for K in lat.masks]
        return bool(permutes_with(G, lat.rows[coprime], mask).all())

    return _cached_predicate(G, "semiperm", H, compute)
