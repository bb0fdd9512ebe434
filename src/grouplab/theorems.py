"""Hypothesis and conclusion evaluation for the verified statements.

The headline hypothesis ("every member of a generator-number family of
maximal subgroups of a Sylow p-subgroup permutes with all coprime Sylow
subgroups") quantifies over families of d maximal subgroups intersecting in
the Frattini subgroup.  Families correspond to linearly independent
d-subsets of hyperplane functionals, so the exists/forall quantifiers are
decided exactly by linear algebra over F_p on the set of maximal subgroups
that pass the permutability test, with no family enumeration:

  * some family qualifies  iff  the passing functionals have rank d;
  * every family qualifies iff  every maximal subgroup passes.

Both shortcuts are differential-tested against direct family enumeration.

Lemma suites enumerate their quantified instances from G's lattice
record (``structure._lattice``), whose normal members are the kernels N
and whose members of one order hold the Sylow subgroups and complements
sought.  Each suite is a private generator that yields its parts in order
to one driver (``_run_parts``), which builds their records.  A part keeps
the first PART_BUDGET instances and is flagged sampled when one more
exists (``_budgeted``); counts are always reported.  Three kinds of part
keep an older rule, since their sampled flags differ from it and pinned
report digests fix them: the restriction parts (2.1.2, 2.2.1) check the
budget once per subgroup and flag sampled at its third overgroup; 2.2.3
and 2.4 check the budget before their filters; the quotient parts (2.1.4,
2.2.2) cut each G/N block to the budget left, so no extra quotient is
built.

Every record is built, and its ``elapsed`` taken, by ``_record``.  A
single-record check is timed over its whole call.  A lemma part is timed
from the end of the previous record of its suite, the first from the
call's start, so the first carries the lattice and predicate-vector setup
and a suite's records sum to its time; the sweeps' per-check latency is
that sum over one runner task.

Subgroups are the lattice's bitmasks over G's element index throughout,
and every predicate, closure and core is computed on G's own table; G/N
is built only as the quotient group itself.  The permutability predicates
are read from vectors over the lattice, and the quotient parts decide the
images of all their subgroups in G/N as one batch.  An instance is a (holds,
detail thunk) pair, and a subgroup becomes a :class:`Group` only for the
first counterexample's detail text.
"""

from __future__ import annotations

import copy
import time
from itertools import combinations, islice, product
from dataclasses import dataclass, field
from enum import Enum
from math import gcd
from typing import Callable

import numpy as np

from .errors import DEFAULT_LATTICE_CAP, LatticeCapError
from .groups import (
    Group,
    _cached,
    _normal_closure_indices,
    _normalizer_mask,
    indices_from_mask,
    is_subnormal,
    mask_from_indices,
    quotient,
)
from .permutability import (
    _block_predicate,
    _lattice_permutes,
    _lattice_predicate,
    _semipermutable_rows,
    is_s_permutable,
    is_s_semipermutable,
    product_set,
)
from .solubility import (
    _p_nilpotent_mask,
    chief_series,
    derived_series_masks,
    is_p_nilpotent,
    is_p_soluble,
    is_p_supersoluble,
    is_supersoluble,
)
from .structure import (
    _complement_mask,
    _lattice,
    _Lattice,
    _maximal_data,
    _maximal_masks,
    _o_p_mask,
    _p_group_frame,
    _p_residual_mask,
    _rank_mod_p,
    all_sylow_subgroups,
    is_prime,
    lattice_masks,
    p_part,
    prime_factors,
    primes_of,
    sylow_subgroup,
)

PART_BUDGET = 400
"""Most instances evaluated per lemma part per group (deterministic prefix)."""

RESTRICTION_SAMPLES = 3
"""Overgroups K sampled per subgroup for the restriction parts."""


class HypothesisMode(str, Enum):
    EXISTS = "exists"
    FORALL = "forall"
    CANONICAL = "canonical"


@dataclass
class VerificationRecord:
    """Outcome of one check on one (group, prime) instance."""

    check: str
    group: str
    prime: int | None
    hypothesis: bool | None
    conclusion: bool | None
    skipped: str | None = None
    witnesses: dict = field(default_factory=dict)
    elapsed: float = 0.0
    error: str | None = None  # exception type name when the check raised

    @property
    def violated(self) -> bool:
        """The hypothesis holds and the conclusion fails.  Skipped and
        error records have no hypothesis, so they are never violated."""
        return bool(self.hypothesis) and not self.conclusion

    @property
    def status(self) -> str:
        if self.skipped is not None:
            return f"skipped:{self.skipped}"
        if self.error is not None:
            return f"error:{self.error}"
        return "VIOLATED" if self.violated else "ok"


def _record(
    check: str, group_name: str, prime: int | None, hypothesis: bool,
    conclusion: bool, witnesses: dict, start: float | None,
) -> VerificationRecord:
    """The record of one check, timed from ``start`` to now (0.0 without a
    start, for a record whose work another record already counts)."""
    elapsed = 0.0 if start is None else time.perf_counter() - start
    return VerificationRecord(
        check, group_name, prime, hypothesis, conclusion,
        witnesses=witnesses, elapsed=elapsed,
    )


def _fmt_group(H: Group) -> str:
    gens = ",".join(g.cycle_string() for g in H.generators) or "()"
    return f"order {H.order()} = <{gens}>"


# -- the main statement ---------------------------------------------------------


def main_hypothesis(
    G: Group, p: int, mode: HypothesisMode = HypothesisMode.EXISTS
) -> tuple[bool, dict]:
    """Whether every member of a / the canonical / all d-families of maximal
    subgroups of the Sylow p-subgroup is s-semipermutable, with witnesses.

    The maximal subgroups (the d canonical ones in canonical mode) are
    decided in one Sylow pass (``_semipermutable_rows``), which skips the
    primes whose Sylow subgroup is normal.  The first failing member's
    ``failure`` names the first Sylow subgroup it fails to permute with,
    primes ascending and then in ``all_sylow_subgroups`` order, as the
    pass reports it; only that Q becomes a ``Group``, for its generator
    text, and its product size comes from one ``product_set`` on masks.
    """
    if G.order() % p != 0:
        raise ValueError(f"prime {p} does not divide the group order")
    mode = HypothesisMode(mode)
    P = sylow_subgroup(G, p)
    functionals, maximals = _maximal_data(P, G)[:2]
    d = _p_group_frame(P, G)[3]
    wit: dict = {"d": d, "maximal_count": len(maximals), "mode": mode.value}
    masks = _maximal_masks(P, G)
    if mode is HypothesisMode.CANONICAL:
        members = [
            functionals.index((0,) * i + (1,) + (0,) * (d - 1 - i)) for i in range(d)
        ]
    else:
        members = list(range(len(masks)))
    ok, first_failure = _semipermutable_rows(G, [masks[i] for i in members])
    if mode is not HypothesisMode.CANONICAL:
        passing = [i for i, passed in zip(members, ok) if passed]
        wit["passing_count"] = len(passing)
    if mode is HypothesisMode.EXISTS:
        # some d linearly independent passing functionals; all maximal
        # subgroups together span, so short of d some one failed
        basis: list[int] = []
        for i in passing:
            if _rank_mod_p([functionals[j] for j in basis + [i]], p) == len(basis) + 1:
                basis.append(i)
                if len(basis) == d:
                    break
        if len(basis) == d:
            wit["family"] = [_fmt_group(maximals[i]) for i in basis]
            return True, wit
        wit["passing_rank"] = len(basis)
    elif first_failure is None:
        # forall: every maximal subgroup lies in some family, so "all
        # families" is equivalent to every maximal subgroup passing
        if mode is HypothesisMode.CANONICAL:
            wit["family"] = [_fmt_group(maximals[i]) for i in sorted(members)]
        return True, wit
    failing = members[ok.index(False)]
    q, Q = first_failure
    wit["failing_member"] = _fmt_group(maximals[failing])
    wit["failure"] = {
        "prime": q,
        "sylow": _fmt_group(G.subgroup_from_mask(Q)),
        "product_size": product_set(G, masks[failing], Q).cardinality,
        "hk_equals_kh": False,
    }
    return False, wit


def main_conclusion(G: Group, p: int) -> tuple[bool, dict]:
    """|P| = p, or the group is p-supersoluble."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p_part(G.order(), p) == p:
        return True, {"branch": "sylow of prime order"}
    ok = is_p_supersoluble(G, p)
    wit = {"branch": "p-supersoluble", "p_supersoluble": ok}
    if not ok:
        wit["chief_factors"] = chief_series(G).factor_orders
    return ok, wit


def verify_main(
    G: Group,
    p: int,
    mode: HypothesisMode = HypothesisMode.EXISTS,
    group_name: str = "?",
) -> VerificationRecord:
    """The main statement at p.  G's cache keeps the verdict and its
    witnesses per (p, mode), so a repeat decides nothing again; each record
    gets its own copy of the witnesses.  A call that raises caches
    nothing."""
    t0 = time.perf_counter()
    mode = HypothesisMode(mode)

    def build():
        return (*main_hypothesis(G, p, mode), *main_conclusion(G, p))

    hyp, hw, concl, cw = _cached(G, ("main", p, mode), build)
    wit = copy.deepcopy({"hypothesis": hw, "conclusion": cw})
    return _record("main", group_name, p, hyp, concl, wit, t0)


# -- lemma suites ----------------------------------------------------------------


def _run_parts(group_name: str, parts) -> list[VerificationRecord]:
    """The records of a lemma suite's parts, which ``parts`` yields in
    order as (check, instances, sampled[, extra]).

    Each instance is a (holds, detail thunk) pair whose premise holds by
    construction; only the first counterexample's detail is built.  A
    record is timed from the end of the previous one, the first from this
    call's start, so the first carries the suite's setup and the records
    sum to the call's time.
    """
    records = []
    start = time.perf_counter()
    for check, instances, sampled, *extra in parts:
        bad = next((detail for holds, detail in instances if not holds), None)
        n = len(instances)
        wit = {"instances": n, "premise_held": n, "sampled": sampled}
        wit.update(*extra)
        if bad is not None:
            wit["counterexample"] = bad()
        rec = _record(check, group_name, None, bool(instances), bad is None, wit, start)
        records.append(rec)
        start += rec.elapsed
    return records


def _budgeted(items) -> tuple[list, bool]:
    """The first PART_BUDGET of ``items``, and whether one more exists,
    which makes the part sampled."""
    head = list(islice(items, PART_BUDGET + 1))
    return head[:PART_BUDGET], len(head) > PART_BUDGET


def _detail(G: Group, subgroups: dict[str, int], **plain) -> Callable[[], dict]:
    """Thunk for an instance's detail: the named subgroup masks become
    generator text only when the thunk is called."""
    return lambda: {
        **{k: _fmt_group(G.subgroup_from_mask(m)) for k, m in subgroups.items()},
        **plain,
    }


def _quotient(G: Group, nm: int) -> tuple[Group, np.ndarray]:
    """(G/N, q) for the normal subgroup N with mask nm, where q[i] is the
    index in G/N of G's element i.  G's cache keeps these rather than the
    CosetMap, whose source is G, so that it makes no reference cycle."""

    def build():
        cm = quotient(G, nm)
        return cm.quotient, cm.coset_of

    return _cached(G, ("quotient", nm), build)


def _images(G: Group, nm: int, rows: np.ndarray) -> tuple[Group, np.ndarray]:
    """(G/N, block) for the normal subgroup N with mask nm: row i of the
    bool block is the image in G/N of the subgroup in row i of ``rows``,
    by one scatter through the projection."""
    Q, proj = _quotient(G, nm)
    r, x = np.nonzero(rows)
    block = np.zeros((len(rows), Q.order()), dtype=bool)
    block[r, proj[x]] = True
    return Q, block


def _p_subgroup_prime(G: Group, mask: int) -> int | None:
    """p when the subgroup is a nontrivial p-group, else None."""
    n = mask.bit_count()
    return next((p for p in primes_of(G) if n > 1 and n == p_part(n, p)), None)


def _sylows_within(G: Group, lat: _Lattice, km: int) -> dict[int, list[int]]:
    """Masks of the Sylow subgroups of the subgroup K with mask ``km``, by
    prime of |K|: the members L of G's lattice record with |L| = |K|_q and
    L ⊆ K, scanned among the members of that order only."""

    def build():
        k = km.bit_count()
        return {
            q: [L for L in lat.of_order[p_part(k, q)] if L | km == km]
            for q in prime_factors(k)
        }

    return _cached(G, ("sylows within", km), build)


def _permutes_with_sylows(
    G: Group, lat: _Lattice, i: int, coprime_only: bool, sylows: dict
) -> bool:
    """Whether lattice member i permutes with every mask in ``sylows[q]``
    (the Sylow q-subgroups of an overgroup K), for each prime q (only those
    not dividing its order when ``coprime_only``): its s-permutability or
    s-semipermutability in K, read from G's lattice vectors at its row,
    since HL is the same set in K as in G.  A prime with a single Sylow
    subgroup in K is skipped: that subgroup is normal in K, and H <= K."""
    h_order = lat.masks[i].bit_count()
    return all(
        _lattice_permutes(G, L, lat)[i]
        for q, masks in sylows.items()
        if len(masks) > 1 and not (coprime_only and h_order % q == 0)
        for L in masks
    )


def _restriction_part(
    G: Group, lat: _Lattice, masks: list[int], coprime_only: bool
) -> tuple[list, bool]:
    """Whether each H permutes with the Sylow subgroups of its first
    RESTRICTION_SAMPLES proper overgroups K (only those of coprime order
    when ``coprime_only``): the s-permutability or s-semipermutability of
    H in K, decided in G."""
    inst, sampled = [], False
    for m in masks:
        if len(inst) >= PART_BUDGET:
            sampled = True
            break
        picked = 0
        for km in lat.masks:
            if km != m and km | m == km:
                holds = _permutes_with_sylows(
                    G, lat, lat.row[m], coprime_only, _sylows_within(G, lat, km)
                )
                inst.append((holds, _detail(G, {"subgroup": m, "intermediate": km})))
                picked += 1
                if picked >= RESTRICTION_SAMPLES:
                    sampled = True
                    break
    return inst, sampled


def verify_lemma_2_1(
    G: Group, group_name: str = "?", lattice_cap: int = DEFAULT_LATTICE_CAP
) -> list[VerificationRecord]:
    """The six closure properties of permuting-with-all-Sylows subgroups."""
    return _run_parts(group_name, _lemma_2_1_parts(G, lattice_cap))


def _lemma_2_1_parts(G: Group, lattice_cap: int):
    lat = _lattice(G, lattice_cap)
    full = (1 << G.order()) - 1
    sperm = _lattice_predicate(G, False, lat).tolist()
    sp = [m for m, ok in zip(lat.masks, sperm) if ok]

    # (1) s-permutable implies subnormal
    take, sampled = _budgeted(sp)
    inst = [(is_subnormal(G, m), _detail(G, {"subgroup": m})) for m in take]
    yield "lemma-2.1.1", inst, sampled

    # (2) restriction to intermediate subgroups, sampled
    yield "lemma-2.1.2", *_restriction_part(G, lat, sp, False)

    # (3) s-permutable Hall subgroups are normal
    inst = [
        (_normalizer_mask(G, m) == full, _detail(G, {"subgroup": m}))
        for m in sp
        if gcd(m.bit_count(), G.order() // m.bit_count()) == 1
    ]
    yield "lemma-2.1.3", inst, False

    # (4) for normal K <= H: H s-permutable iff H/K s-permutable in G/K
    inst, sampled = [], False
    for nm in lat.normal:
        if sampled:
            break
        if nm == 1 or nm == full:
            # kernel 1 and kernel G are tautological transfers
            continue
        over = [i for i, m in enumerate(lat.masks) if m | nm == m]  # requires K <= H
        take = over[: PART_BUDGET - len(inst)]
        sampled = len(take) < len(over)
        Q, block = _images(G, nm, lat.rows[take])
        for i, rhs in zip(take, _block_predicate(Q, block, False).tolist()):
            detail = _detail(
                G, {"subgroup": lat.masks[i]}, kernel_order=nm.bit_count(),
                in_group=sperm[i], in_quotient=rhs,
            )
            inst.append((sperm[i] == rhs, detail))
    yield "lemma-2.1.4", inst, sampled

    # (5) intersections of s-permutable subgroups are s-permutable
    take, sampled = _budgeted(combinations(sp, 2))
    inst = []
    for a, b in take:
        parts = {"first": a, "second": b, "intersection": a & b}
        inst.append((sperm[lat.row[a & b]], _detail(G, parts)))
    yield "lemma-2.1.5", inst, sampled

    # (6) p-subgroups: s-permutable iff the normalizer contains the p-residual
    res_masks = {p: _p_residual_mask(G, p) for p in primes_of(G)}
    p_subgroups = (
        (m, lhs, p)
        for m, lhs in zip(lat.masks, sperm)
        if (p := _p_subgroup_prime(G, m)) is not None
    )
    take, sampled = _budgeted(p_subgroups)
    inst = []
    for m, lhs, p in take:
        nz_mask = _normalizer_mask(G, m)
        rhs = res_masks[p] | nz_mask == nz_mask
        detail = _detail(
            G, {"subgroup": m}, prime=p, s_permutable=lhs,
            normalizer_contains_residual=rhs,
        )
        inst.append((lhs == rhs, detail))
    yield "lemma-2.1.6", inst, sampled


def _ssp_p_subgroups(G: Group, lat: _Lattice) -> list[tuple[int, int]]:
    """(prime, mask) for every nontrivial s-semipermutable p-subgroup in
    the lattice record ``lat``."""
    out = []
    for m, ok in zip(lat.masks, _lattice_predicate(G, True, lat).tolist()):
        p = _p_subgroup_prime(G, m) if ok else None
        if p is not None:
            out.append((p, m))
    return out


def verify_lemma_2_2(
    G: Group, group_name: str = "?", lattice_cap: int = DEFAULT_LATTICE_CAP
) -> list[VerificationRecord]:
    """Closure properties of s-semipermutable p-subgroups."""
    return _run_parts(group_name, _lemma_2_2_parts(G, lattice_cap))


def _lemma_2_2_parts(G: Group, lattice_cap: int):
    lat = _lattice(G, lattice_cap)
    full = (1 << G.order()) - 1
    sperm = _lattice_predicate(G, False, lat).tolist()
    ssemi = _lattice_predicate(G, True, lat).tolist()
    ssp = _ssp_p_subgroups(G, lat)
    separation = sum(1 for _, m in ssp if not sperm[lat.row[m]])

    # (1) restriction to intermediate subgroups, sampled
    inst, sampled = _restriction_part(G, lat, [m for _, m in ssp], True)
    yield "lemma-2.2.1", inst, sampled, {"separation_count": separation}

    # (2) images modulo normal subgroups stay s-semipermutable
    inst, sampled = [], False
    ssp_rows = lat.rows[[lat.row[m] for _, m in ssp]]
    for nm in lat.normal:
        if sampled:
            break
        if nm == 1 or nm == full:
            continue
        take = PART_BUDGET - len(inst)
        sampled = len(ssp) > take
        Q, block = _images(G, nm, ssp_rows[:take])
        holds = _block_predicate(Q, block, True).tolist()
        for (_, m), ok, order in zip(ssp, holds, block.sum(axis=1).tolist()):
            detail = _detail(
                G, {"subgroup": m}, kernel_order=nm.bit_count(), image_order=order
            )
            inst.append((ok, detail))
    yield "lemma-2.2.2", inst, sampled

    # (3) inside the p-core, s-semipermutable implies s-permutable
    inst, sampled = [], False
    cores = {p: _o_p_mask(G, p) for p in primes_of(G)}
    for p, m in ssp:
        if len(inst) >= PART_BUDGET:
            sampled = True
            break
        if m | cores[p] != cores[p]:
            continue
        inst.append((sperm[lat.row[m]], _detail(G, {"subgroup": m}, prime=p)))
    yield "lemma-2.2.3", inst, sampled

    # (4) intersections with normal subgroups stay s-semipermutable
    take, sampled = _budgeted(product(lat.normal, ssp))
    inst = []
    for nm, (_, m) in take:
        parts = {"subgroup": m, "intersection": m & nm}
        detail = _detail(G, parts, normal_order=nm.bit_count())
        inst.append((ssemi[lat.row[m & nm]], detail))
    yield "lemma-2.2.4", inst, sampled


def verify_lemma_2_3(
    G: Group, group_name: str = "?", lattice_cap: int = DEFAULT_LATTICE_CAP
) -> list[VerificationRecord]:
    """Normal closures of s-semipermutable p-subgroups are soluble.

    Above the lattice cap the p-subgroups are drawn from the lattices of
    the Sylow representatives instead of the full lattice, and the record
    is flagged sampled.
    """
    return _run_parts(group_name, _lemma_2_3_parts(G, lattice_cap))


def _lemma_2_3_parts(G: Group, lattice_cap: int):
    n = G.order()
    capped = False
    try:
        candidates = [m for _, m in _ssp_p_subgroups(G, _lattice(G, lattice_cap))]
    except LatticeCapError:
        capped = True
        found = set()
        for p in primes_of(G):
            P = all_sylow_subgroups(G, p).representative
            p_idx = G.indices_of(P)
            for sub in lattice_masks(P, lattice_cap)[1:]:
                m = mask_from_indices(p_idx[indices_from_mask(sub, len(p_idx))], n)
                if m not in found and is_s_semipermutable(G, m):
                    found.add(m)
        candidates = sorted(found, key=lambda m: (m.bit_count(), m))
    # every subgroup of a soluble group is soluble, so G decides them all
    # and the closures are built only for an insoluble G or a counterexample
    g_soluble = bool(candidates) and derived_series_masks(G)[-1] == 1

    def closure(m: int) -> int:
        return mask_from_indices(_normal_closure_indices(G, m), n)

    take, sampled = _budgeted(candidates)
    inst = []
    for m in take:
        ok = g_soluble or derived_series_masks(G, closure(m))[-1] == 1
        detail = lambda m=m: {
            **_detail(G, {"subgroup": m})(), "closure_order": closure(m).bit_count()
        }
        inst.append((ok, detail))
    yield "lemma-2.3", inst, capped or sampled


def verify_lemma_2_4(
    G: Group, group_name: str = "?", lattice_cap: int = DEFAULT_LATTICE_CAP
) -> list[VerificationRecord]:
    """Complements of coprime abelian normal subgroups lift to the group."""
    return _run_parts(group_name, _lemma_2_4_parts(G, lattice_cap))


def _lemma_2_4_parts(G: Group, lattice_cap: int):
    lat = _lattice(G, lattice_cap)
    tbl = G.table()
    n = G.order()
    full = (1 << n) - 1
    inst, sampled = [], False
    for nm in lat.normal:
        if sampled or nm == 1:
            continue
        nidx = indices_from_mask(nm, n)
        block = tbl[np.ix_(nidx, nidx)]
        if not (block == block.T).all():  # N is not abelian
            continue
        holds = None  # whether N has a complement in G: decided at the first M
        for mm in lat.masks:
            if len(inst) >= PART_BUDGET:
                sampled = True
                break
            if nm | mm != mm:
                continue
            if gcd(nm.bit_count(), n // mm.bit_count()) != 1:
                continue
            if _complement_mask(lat, mm, nm) is None:
                continue
            if holds is None:
                holds = _complement_mask(lat, full, nm) is not None
            inst.append((holds, _detail(G, {"normal": nm, "intermediate": mm})))
    yield "lemma-2.4", inst, sampled


def verify_srinivasan(
    G: Group, group_name: str = "?"
) -> VerificationRecord:
    """All maximal subgroups of all Sylow subgroups s-permutable implies
    supersoluble.  s-permutability is invariant under conjugation, so the
    first Sylow p-subgroup in mask order (G for a p-group) stands for all;
    ``checked`` still counts the maximal subgroups of all."""
    t0 = time.perf_counter()
    hyp = True
    wit: dict = {"checked": 0}
    for p in primes_of(G):
        system = all_sylow_subgroups(G, p)
        P = system.representative
        if P.order() != G.order():
            P = G.subgroup_from_mask(system.masks[0])
        maximals = _maximal_data(P, G)[1]
        masks = _maximal_masks(P, G)
        bad = next((i for i, m in enumerate(masks) if not is_s_permutable(G, m)), None)
        if bad is None:
            wit["checked"] += system.count * len(maximals)
            continue
        hyp = False
        wit["checked"] += bad + 1
        wit["failing_member"] = _fmt_group(maximals[bad])
        wit["prime"] = p
        break
    concl = is_supersoluble(G)
    wit["supersoluble"] = concl
    return _record("srinivasan", group_name, None, hyp, concl, wit, t0)


def verify_corollary_4_1(
    G: Group,
    mode: HypothesisMode = HypothesisMode.EXISTS,
    group_name: str = "?",
) -> list[VerificationRecord]:
    """At the smallest prime, the family hypothesis is equivalent to
    p-nilpotency; both directions are checked as separate records."""
    t0 = time.perf_counter()
    p = primes_of(G)[0] if G.order() > 1 else None
    if p is None:
        return [_record("cor-4.1", group_name, None, True, True, {"trivial": True}, t0)]
    hyp, hw = main_hypothesis(G, p, mode)
    nilp = is_p_nilpotent(G, p)
    fwd = _record(
        "cor-4.1", group_name, p, hyp, nilp, {"hypothesis": hw, "p_nilpotent": nilp}, t0
    )
    # the converse reads the same two verdicts, whose time fwd already counts
    wit = {"p_nilpotent": nilp, "hypothesis": hw}
    return [fwd, _record("cor-4.1-conv", group_name, p, nilp, hyp, wit, None)]


def verify_corollary_4_2(
    G: Group,
    p: int,
    mode: HypothesisMode = HypothesisMode.EXISTS,
    group_name: str = "?",
) -> VerificationRecord:
    """p-soluble groups satisfying the family hypothesis are p-supersoluble."""
    t0 = time.perf_counter()
    soluble_p = is_p_soluble(G, p)
    hyp_family, hw = main_hypothesis(G, p, mode)
    hyp = soluble_p and hyp_family
    concl = is_p_supersoluble(G, p)
    wit = {"p_soluble": soluble_p, "family_hypothesis": hw}
    return _record("cor-4.2", group_name, p, hyp, concl, wit, t0)


def verify_corollary_4_3(
    G: Group,
    p: int,
    mode: HypothesisMode = HypothesisMode.EXISTS,
    group_name: str = "?",
) -> VerificationRecord:
    """If the Sylow normalizer is p-nilpotent and the family hypothesis
    holds, the group is p-nilpotent."""
    t0 = time.perf_counter()
    nm = _normalizer_mask(G, G.mask_of(sylow_subgroup(G, p)))
    normalizer_nilp = _p_nilpotent_mask(G, nm, p)
    hyp_family, hw = main_hypothesis(G, p, mode)
    hyp = normalizer_nilp and hyp_family
    concl = is_p_nilpotent(G, p)
    wit = {
        "normalizer_order": nm.bit_count(),
        "normalizer_p_nilpotent": normalizer_nilp,
        "family_hypothesis": hw,
    }
    return _record("cor-4.3", group_name, p, hyp, concl, wit, t0)
