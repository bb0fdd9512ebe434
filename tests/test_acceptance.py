"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  The corpus-wide runs are shared module-scoped fixtures;
the whole module is the slow part of the suite (several minutes).
"""

import hashlib
import random
import time

import pytest

import naive
from grouplab.corpus import builtin_corpus, elementary_abelian, symmetric
from grouplab.groups import subgroup_generated
from grouplab.permutability import (
    is_s_permutable,
    is_s_semipermutable,
    is_semipermutable,
)
from grouplab.perms import Permutation
from grouplab.runner import run_corpus
from grouplab.solubility import is_p_nilpotent, is_supersoluble
from grouplab.structure import (
    all_subgroups,
    maximal_subgroups_of_p_group,
    primes_of,
    smallest_generator_number,
)
from grouplab.theorems import HypothesisMode, verify_main

JOBS = 2  # criterion runtimes are asserted on the single-task runs only


def report_line(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def main200():
    corpus = builtin_corpus(200)
    t0 = time.monotonic()
    report = run_corpus(corpus, checks=["main"], mode=HypothesisMode.EXISTS)
    elapsed = time.monotonic() - t0
    return report, elapsed


@pytest.fixture(scope="module")
def lemmas120():
    corpus = [ng for ng in builtin_corpus(120)]
    return run_corpus(corpus, checks=["lemmas"], parallelism=JOBS)


@pytest.fixture(scope="module")
def corollaries120():
    corpus = builtin_corpus(120)
    return run_corpus(
        corpus, checks=["corollaries", "srinivasan"], parallelism=JOBS
    )


def test_criterion_1_reference_count_reproduction():
    t0 = time.monotonic()
    P = elementary_abelian(7, 7)
    maximals = maximal_subgroups_of_p_group(P)
    d = smallest_generator_number(P)
    elapsed = time.monotonic() - t0
    ok = len(maximals) == 137257 and d == 7 and elapsed < 60.0
    report_line(
        1,
        ok,
        f"|maximals(7^7)| = {len(maximals)} (expect 137257), d = {d} "
        f"(expect 7), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_main_over_corpus_200(main200):
    report, elapsed = main200
    violations = len(report.violations)
    skips = report.skipped
    ok = violations == 0 and skips == 0 and elapsed < 300.0
    # byte-identical parallel replay on a fresh corpus
    parallel = run_corpus(
        builtin_corpus(200),
        checks=["main"],
        mode=HypothesisMode.EXISTS,
        parallelism=JOBS,
    )
    identical = parallel.render("text") == report.render("text") and (
        parallel.render("jsonl") == report.render("jsonl")
    )
    ok = ok and identical
    report_line(
        2,
        ok,
        f"{len(report.records)} main instances, violations={violations}, "
        f"skips={skips}, {elapsed:.0f}s single-task (< 300s), "
        f"parallel report byte-identical={identical}",
    )


def test_criterion_3_golden_instances():
    from grouplab.corpus import direct_product, quaternion8

    rows = []
    r = verify_main(symmetric(4), 2, group_name="S4")
    rows.append(("S4", r.hypothesis is False and r.conclusion is False))
    r = verify_main(
        __import__("grouplab.corpus", fromlist=["alternating"]).alternating(4),
        2,
        group_name="A4",
    )
    rows.append(("A4", r.hypothesis is False))
    r = verify_main(quaternion8(), 2, group_name="Q8")
    rows.append(("Q8", r.hypothesis is True and r.conclusion is True))
    r = verify_main(direct_product(symmetric(3), symmetric(3)), 2, group_name="S3xS3")
    rows.append(("S3xS3", r.hypothesis is True and r.conclusion is True))
    r = verify_main(symmetric(3), 3, group_name="S3")
    rows.append(
        (
            "S3",
            r.conclusion is True
            and r.witnesses["conclusion"]["branch"] == "sylow of prime order",
        )
    )
    ok = all(flag for _, flag in rows)
    report_line(3, ok, "golden instances: " + ", ".join(f"{n}={'ok' if f else 'BAD'}" for n, f in rows))


def test_criterion_4_lemma_suites(lemmas120):
    report = lemmas120
    violations = len(report.violations)
    instances_216 = sum(
        r.witnesses.get("instances", 0)
        for r in report.records
        if r.check == "lemma-2.1.6" and r.skipped is None
    )
    instances_223 = sum(
        r.witnesses.get("instances", 0)
        for r in report.records
        if r.check == "lemma-2.2.3" and r.skipped is None
    )
    ok = violations == 0 and instances_216 >= 100 and instances_223 >= 100
    report_line(
        4,
        ok,
        f"{len(report.records)} lemma records over corpus(120), "
        f"violations={violations}, skips={report.skipped}, "
        f"lemma-2.1(6) instances={instances_216} (>= 100), "
        f"lemma-2.2(3) instances={instances_223} (>= 100)",
    )


LEMMAS120_DIGEST = "dc0a3c48380aa9694baefac0f6333494a9699b8f323676dc860aa1a578aa0457"


def test_lemma_report_120_digest(lemmas120):
    """The rendered lemma report over corpus(120), pinned by SHA-256 like
    ``test_report_digest.py`` pins the smaller corpora: its lattices of S5,
    A5 x C2 and the other groups of order above 64 are checked here."""
    text = lemmas120.render()
    assert hashlib.sha256(text.encode()).hexdigest() == LEMMAS120_DIGEST


def test_criterion_5_predicate_separation(lemmas120):
    separation_total = sum(
        r.witnesses.get("separation_count", 0)
        for r in lemmas120.records
        if r.check == "lemma-2.2.1" and r.skipped is None
    )
    # the canonical witness, confirmed by the raw product-set oracle
    s3 = symmetric(3)
    H = subgroup_generated(s3, [Permutation.parse(3, "(1 2)")])
    lib_sep = is_s_semipermutable(s3, H) and not is_s_permutable(s3, H)
    E = naive.closure(3, s3.generators)
    HE = naive.closure(3, H.generators)
    oracle_sep = naive.is_s_semipermutable(3, E, HE) and not naive.is_s_permutable(
        3, E, HE
    )
    ok = separation_total >= 1 and lib_sep and oracle_sep
    report_line(
        5,
        ok,
        f"s-semipermutable-but-not-s-permutable witnesses in corpus report: "
        f"{separation_total}; S3 transposition confirmed by product-set "
        f"oracle: {oracle_sep}",
    )


def test_criterion_6_corollaries_and_srinivasan(corollaries120):
    report = corollaries120
    violations = len(report.violations)
    by_check = {}
    for r in report.records:
        by_check[r.check] = by_check.get(r.check, 0) + 1
    ok = violations == 0 and all(
        by_check.get(c, 0) > 0
        for c in ("cor-4.1", "cor-4.1-conv", "cor-4.2", "cor-4.3", "srinivasan")
    )
    report_line(
        6,
        ok,
        f"{len(report.records)} corollary/srinivasan records over corpus(120), "
        f"violations={violations}, skips={report.skipped}, per-check counts={by_check}",
    )


def test_criterion_7_oracle_equivalence():
    rng = random.Random(20240810)
    pool = [ng for ng in builtin_corpus(60) if 1 < ng.group.order() <= 60]
    sample = rng.sample(pool, 30)
    mismatches = []
    checked = 0
    for ng in sample:
        G = ng.group
        E = naive.closure(G.degree, G.generators)
        if is_supersoluble(G) != naive.is_supersoluble(G.degree, E):
            mismatches.append((ng.name, "supersoluble"))
        for p in primes_of(G):
            if is_p_nilpotent(G, p) != naive.is_p_nilpotent(G.degree, E, p):
                mismatches.append((ng.name, f"{p}-nilpotent"))
        for H in all_subgroups(G):
            HE = frozenset(H.elements())
            checked += 1
            if is_s_permutable(G, H) != naive.is_s_permutable(G.degree, E, HE):
                mismatches.append((ng.name, "s-permutable"))
            if is_s_semipermutable(G, H) != naive.is_s_semipermutable(
                G.degree, E, HE
            ):
                mismatches.append((ng.name, "s-semipermutable"))
            if is_semipermutable(G, H) != naive.is_semipermutable(G.degree, E, HE):
                mismatches.append((ng.name, "semipermutable"))
    ok = not mismatches
    report_line(
        7,
        ok,
        f"30 random corpus groups (order <= 60), {checked} subgroup "
        f"instances x 3 predicates + 2 group classes: "
        f"{'100% agreement' if ok else mismatches[:5]}",
    )
