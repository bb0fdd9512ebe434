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
sought.  Each part stops at a fixed deterministic instance budget and
flags the record as sampled when it does; counts are always reported.
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
from dataclasses import dataclass, field
from enum import Enum
from math import gcd
from typing import Callable

import numpy as np

from .errors import DEFAULT_LATTICE_CAP, LatticeCapError
from .groups import (
    Group,
    _cached,
    _mask_rows,
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
    is_s_permutable,
    is_s_semipermutable,
    permutes_with,
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
    _normal_sylow_mask,
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
    violated: bool
    skipped: str | None = None
    witnesses: dict = field(default_factory=dict)
    elapsed: float = 0.0
    error: str | None = None  # exception type name when the check raised

    def __post_init__(self):
        if self.skipped is None and self.violated:
            if not (self.hypothesis and not self.conclusion):
                raise AssertionError(
                    "violated records require hypothesis and failed conclusion"
                )

    @property
    def status(self) -> str:
        if self.skipped is not None:
            return f"skipped:{self.skipped}"
        if self.error is not None:
            return f"error:{self.error}"
        return "VIOLATED" if self.violated else "ok"


def _fmt_group(H: Group) -> str:
    gens = ",".join(g.cycle_string() for g in H.generators) or "()"
    return f"order {H.order()} = <{gens}>"


def _ssp_failure(G: Group, mask: int) -> dict:
    """First Sylow subgroup of coprime order that the subgroup H with mask
    ``mask`` fails to permute with.

    A prime whose Sylow subgroup is normal (G a q-group included) is
    skipped: it never fails.  For the others the Sylow q-subgroups are the
    masks of G's shared Sylow systems (:func:`all_sylow_subgroups`).  HQ =
    QH is decided on each mask against H's one row, and only the first
    failing Q becomes a ``Group``, for its generator text; its product size
    comes from one ``product_set`` on masks.
    """
    rows = _mask_rows([mask], G.order())
    for q in primes_of(G):
        if mask.bit_count() % q == 0 or _normal_sylow_mask(G, q):
            continue
        for Q in all_sylow_subgroups(G, q).masks:
            if not permutes_with(G, rows, Q)[0]:
                return {
                    "prime": q,
                    "sylow": _fmt_group(G.subgroup_from_mask(Q)),
                    "product_size": product_set(G, mask, Q).cardinality,
                    "hk_equals_kh": False,
                }
    return {}


# -- the main statement ---------------------------------------------------------


def main_hypothesis(
    G: Group, p: int, mode: HypothesisMode = HypothesisMode.EXISTS
) -> tuple[bool, dict]:
    """Whether every member of a / the canonical / all d-families of maximal
    subgroups of the Sylow p-subgroup is s-semipermutable, with witnesses."""
    if G.order() % p != 0:
        raise ValueError(f"prime {p} does not divide the group order")
    mode = HypothesisMode(mode)
    P = sylow_subgroup(G, p)
    functionals, maximals = _maximal_data(P, G)[:2]
    d = _p_group_frame(P, G)[3]
    wit: dict = {"d": d, "maximal_count": len(maximals), "mode": mode.value}
    masks = _maximal_masks(P, G)
    if mode is HypothesisMode.CANONICAL:
        canonical = [
            functionals.index((0,) * i + (1,) + (0,) * (d - 1 - i)) for i in range(d)
        ]
        for i in canonical:
            if not is_s_semipermutable(G, masks[i]):
                wit["failing_member"] = _fmt_group(maximals[i])
                wit["failure"] = _ssp_failure(G, masks[i])
                return False, wit
        wit["family"] = [_fmt_group(maximals[i]) for i in sorted(canonical)]
        return True, wit
    passing = [i for i, m in enumerate(masks) if is_s_semipermutable(G, m)]
    passed = set(passing)
    wit["passing_count"] = len(passing)
    if mode is HypothesisMode.FORALL:
        # every maximal subgroup lies in some family, so "all families" is
        # equivalent to every maximal subgroup passing
        if len(passing) == len(maximals):
            return True, wit
        failing = next(i for i in range(len(maximals)) if i not in passed)
        wit["failing_member"] = _fmt_group(maximals[failing])
        wit["failure"] = _ssp_failure(G, masks[failing])
        return False, wit
    # exists: some d linearly independent passing functionals
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
    failing = [i for i in range(len(maximals)) if i not in passed]
    if failing:
        wit["failing_member"] = _fmt_group(maximals[failing[0]])
        wit["failure"] = _ssp_failure(G, masks[failing[0]])
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
    return VerificationRecord(
        check="main",
        group=group_name,
        prime=p,
        hypothesis=hyp,
        conclusion=concl,
        violated=hyp and not concl,
        witnesses=wit,
        elapsed=time.perf_counter() - t0,
    )


# -- lemma suites ----------------------------------------------------------------


def _part_record(
    check: str,
    group_name: str,
    prime: int | None,
    instances: list[tuple[bool, Callable[[], dict]]],
    sampled: bool,
    t0: float,
    extra: dict | None = None,
) -> VerificationRecord:
    """Aggregate per-instance (holds, detail thunk) pairs.

    Every instance's premise holds by construction; only the first
    counterexample's detail is built.
    """
    bad = next((detail for holds, detail in instances if not holds), None)
    wit = {
        "instances": len(instances),
        "premise_held": len(instances),
        "sampled": sampled,
    }
    if extra:
        wit.update(extra)
    if bad is not None:
        wit["counterexample"] = bad()
    return VerificationRecord(
        check=check,
        group=group_name,
        prime=prime,
        hypothesis=bool(instances),
        conclusion=bad is None,
        violated=bool(instances) and bad is not None,
        witnesses=wit,
        elapsed=time.perf_counter() - t0,
    )


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
    t0 = time.perf_counter()
    lat = _lattice(G, lattice_cap)
    full = (1 << G.order()) - 1
    sperm = _lattice_predicate(G, False, lat).tolist()
    sp = [m for m, ok in zip(lat.masks, sperm) if ok]
    records = []

    # (1) s-permutable implies subnormal
    inst = [
        (is_subnormal(G, m), _detail(G, {"subgroup": m})) for m in sp[:PART_BUDGET]
    ]
    sampled = len(sp) > PART_BUDGET
    records.append(
        _part_record("lemma-2.1.1", group_name, None, inst, sampled, t0)
    )

    # (2) restriction to intermediate subgroups, sampled
    t0 = time.perf_counter()
    inst, sampled = _restriction_part(G, lat, sp, False)
    records.append(
        _part_record("lemma-2.1.2", group_name, None, inst, sampled, t0)
    )

    # (3) s-permutable Hall subgroups are normal
    t0 = time.perf_counter()
    inst = [
        (_normalizer_mask(G, m) == full, _detail(G, {"subgroup": m}))
        for m in sp
        if gcd(m.bit_count(), G.order() // m.bit_count()) == 1
    ]
    records.append(
        _part_record("lemma-2.1.3", group_name, None, inst, False, t0)
    )

    # (4) for normal K <= H: H s-permutable iff H/K s-permutable in G/K
    t0 = time.perf_counter()
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
                G,
                {"subgroup": lat.masks[i]},
                kernel_order=nm.bit_count(),
                in_group=sperm[i],
                in_quotient=rhs,
            )
            inst.append((sperm[i] == rhs, detail))
    records.append(
        _part_record("lemma-2.1.4", group_name, None, inst, sampled, t0)
    )

    # (5) intersections of s-permutable subgroups are s-permutable
    t0 = time.perf_counter()
    inst, sampled = [], False
    for i in range(len(sp)):
        if sampled:
            break
        for j in range(i + 1, len(sp)):
            if len(inst) >= PART_BUDGET:
                sampled = True
                break
            a, b = sp[i], sp[j]
            parts = {"first": a, "second": b, "intersection": a & b}
            inst.append((sperm[lat.row[a & b]], _detail(G, parts)))
    records.append(
        _part_record("lemma-2.1.5", group_name, None, inst, sampled, t0)
    )

    # (6) p-subgroups: s-permutable iff the normalizer contains the p-residual
    t0 = time.perf_counter()
    inst, sampled = [], False
    res_masks = {p: _p_residual_mask(G, p) for p in primes_of(G)}
    for m, lhs in zip(lat.masks, sperm):
        p = _p_subgroup_prime(G, m)
        if p is None:
            continue
        if len(inst) >= PART_BUDGET:
            sampled = True
            break
        nz_mask = _normalizer_mask(G, m)
        rhs = res_masks[p] | nz_mask == nz_mask
        detail = _detail(
            G,
            {"subgroup": m},
            prime=p,
            s_permutable=lhs,
            normalizer_contains_residual=rhs,
        )
        inst.append((lhs == rhs, detail))
    records.append(
        _part_record("lemma-2.1.6", group_name, None, inst, sampled, t0)
    )
    return records


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
    t0 = time.perf_counter()
    lat = _lattice(G, lattice_cap)
    full = (1 << G.order()) - 1
    sperm = _lattice_predicate(G, False, lat).tolist()
    ssemi = _lattice_predicate(G, True, lat).tolist()
    ssp = _ssp_p_subgroups(G, lat)
    separation = sum(1 for _, m in ssp if not sperm[lat.row[m]])
    records = []

    # (1) restriction to intermediate subgroups, sampled
    inst, sampled = _restriction_part(G, lat, [m for _, m in ssp], True)
    records.append(
        _part_record(
            "lemma-2.2.1",
            group_name,
            None,
            inst,
            sampled,
            t0,
            extra={"separation_count": separation},
        )
    )

    # (2) images modulo normal subgroups stay s-semipermutable
    t0 = time.perf_counter()
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
    records.append(
        _part_record("lemma-2.2.2", group_name, None, inst, sampled, t0)
    )

    # (3) inside the p-core, s-semipermutable implies s-permutable
    t0 = time.perf_counter()
    inst, sampled = [], False
    cores = {p: _o_p_mask(G, p) for p in primes_of(G)}
    for p, m in ssp:
        if len(inst) >= PART_BUDGET:
            sampled = True
            break
        if m | cores[p] != cores[p]:
            continue
        inst.append((sperm[lat.row[m]], _detail(G, {"subgroup": m}, prime=p)))
    records.append(
        _part_record("lemma-2.2.3", group_name, None, inst, sampled, t0)
    )

    # (4) intersections with normal subgroups stay s-semipermutable
    t0 = time.perf_counter()
    inst, sampled = [], False
    for nm in lat.normal:
        if sampled:
            break
        for p, m in ssp:
            if len(inst) >= PART_BUDGET:
                sampled = True
                break
            parts = {"subgroup": m, "intersection": m & nm}
            detail = _detail(G, parts, normal_order=nm.bit_count())
            inst.append((ssemi[lat.row[m & nm]], detail))
    records.append(
        _part_record("lemma-2.2.4", group_name, None, inst, sampled, t0)
    )
    return records


def verify_lemma_2_3(
    G: Group, group_name: str = "?", lattice_cap: int = DEFAULT_LATTICE_CAP
) -> list[VerificationRecord]:
    """Normal closures of s-semipermutable p-subgroups are soluble.

    Above the lattice cap the p-subgroups are drawn from the lattices of
    the Sylow representatives instead of the full lattice, and the record
    is flagged sampled.
    """
    t0 = time.perf_counter()
    n = G.order()
    inst, sampled = [], False
    try:
        candidates = [m for _, m in _ssp_p_subgroups(G, _lattice(G, lattice_cap))]
    except LatticeCapError:
        sampled = True
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

    for m in candidates:
        if len(inst) >= PART_BUDGET:
            sampled = True
            break
        ok = g_soluble or derived_series_masks(G, closure(m))[-1] == 1
        detail = lambda m=m: {
            **_detail(G, {"subgroup": m})(), "closure_order": closure(m).bit_count()
        }
        inst.append((ok, detail))
    return [_part_record("lemma-2.3", group_name, None, inst, sampled, t0)]


def verify_lemma_2_4(
    G: Group, group_name: str = "?", lattice_cap: int = DEFAULT_LATTICE_CAP
) -> list[VerificationRecord]:
    """Complements of coprime abelian normal subgroups lift to the group."""
    t0 = time.perf_counter()
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
    return [_part_record("lemma-2.4", group_name, None, inst, sampled, t0)]


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
    return VerificationRecord(
        check="srinivasan",
        group=group_name,
        prime=None,
        hypothesis=hyp,
        conclusion=concl,
        violated=hyp and not concl,
        witnesses=wit,
        elapsed=time.perf_counter() - t0,
    )


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
        return [
            VerificationRecord(
                check="cor-4.1",
                group=group_name,
                prime=None,
                hypothesis=True,
                conclusion=True,
                violated=False,
                witnesses={"trivial": True},
                elapsed=time.perf_counter() - t0,
            )
        ]
    hyp, hw = main_hypothesis(G, p, mode)
    nilp = is_p_nilpotent(G, p)
    fwd = VerificationRecord(
        check="cor-4.1",
        group=group_name,
        prime=p,
        hypothesis=hyp,
        conclusion=nilp,
        violated=hyp and not nilp,
        witnesses={"hypothesis": hw, "p_nilpotent": nilp},
        elapsed=time.perf_counter() - t0,
    )
    conv = VerificationRecord(
        check="cor-4.1-conv",
        group=group_name,
        prime=p,
        hypothesis=nilp,
        conclusion=hyp,
        violated=nilp and not hyp,
        witnesses={"p_nilpotent": nilp, "hypothesis": hw},
        elapsed=0.0,
    )
    return [fwd, conv]


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
    return VerificationRecord(
        check="cor-4.2",
        group=group_name,
        prime=p,
        hypothesis=hyp,
        conclusion=concl,
        violated=hyp and not concl,
        witnesses={"p_soluble": soluble_p, "family_hypothesis": hw},
        elapsed=time.perf_counter() - t0,
    )


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
    return VerificationRecord(
        check="cor-4.3",
        group=group_name,
        prime=p,
        hypothesis=hyp,
        conclusion=concl,
        violated=hyp and not concl,
        witnesses={
            "normalizer_order": nm.bit_count(),
            "normalizer_p_nilpotent": normalizer_nilp,
            "family_hypothesis": hw,
        },
        elapsed=time.perf_counter() - t0,
    )
