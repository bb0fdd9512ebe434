import pytest
from hypothesis import given, settings, strategies as st

from grouplab.corpus import builtin_corpus, cyclic, named_group
from grouplab.groups import Group
from grouplab.perms import Permutation
from grouplab.permutability import is_s_semipermutable
from grouplab.runner import (
    CounterexampleError,
    expand_checks,
    run_corpus,
)
from grouplab.solubility import chief_series
from grouplab.structure import md_families, primes_of, sylow_subgroup
from grouplab.theorems import (
    HypothesisMode,
    VerificationRecord,
    main_conclusion,
    main_hypothesis,
    verify_corollary_4_1,
    verify_corollary_4_2,
    verify_corollary_4_3,
    verify_lemma_2_1,
    verify_lemma_2_2,
    verify_lemma_2_3,
    verify_lemma_2_4,
    verify_main,
    verify_srinivasan,
)


def test_golden_main_instances(s4, a4, q8, s3s3, s3):
    r = verify_main(s4, 2, group_name="S4")
    assert (r.hypothesis, r.conclusion, r.violated) == (False, False, False)
    r = verify_main(a4, 2, group_name="A4")
    assert r.hypothesis is False and not r.violated
    r = verify_main(q8, 2, group_name="Q8")
    assert (r.hypothesis, r.conclusion) == (True, True)
    r = verify_main(s3s3, 2, group_name="S3xS3")
    assert (r.hypothesis, r.conclusion) == (True, True)
    r = verify_main(s3, 3, group_name="S3")
    assert r.conclusion is True
    assert r.witnesses["conclusion"]["branch"] == "sylow of prime order"


def test_main_hypothesis_witnesses(s4, q8):
    ok, wit = main_hypothesis(q8, 2)
    assert ok and len(wit["family"]) == wit["d"] == 2
    ok, wit = main_hypothesis(s4, 2)
    assert not ok and "failing_member" in wit
    assert wit["failure"]["hk_equals_kh"] is False


def test_main_conclusion_branches(s3, s4):
    ok, wit = main_conclusion(s3, 3)
    assert ok and wit["branch"] == "sylow of prime order"
    ok, wit = main_conclusion(s4, 2)
    assert not ok and wit["chief_factors"] == [2, 3, 4]


def test_hypothesis_requires_dividing_prime(s4):
    with pytest.raises(ValueError):
        main_hypothesis(s4, 5)


def test_mode_monotonicity_over_corpus():
    # forall implies canonical implies exists
    for ng in builtin_corpus(48):
        for p in primes_of(ng.group):
            forall = main_hypothesis(ng.group, p, HypothesisMode.FORALL)[0]
            canonical = main_hypothesis(ng.group, p, HypothesisMode.CANONICAL)[0]
            exists = main_hypothesis(ng.group, p, HypothesisMode.EXISTS)[0]
            if forall:
                assert canonical
            if canonical:
                assert exists


def test_modes_match_family_enumeration():
    # the linear-algebra shortcut agrees with direct family enumeration
    for name in ("S4", "A4", "Q8", "D8", "C12", "S3xS3", "A5", "C2^3", "D12xC3"):
        ng = named_group(name)
        for p in primes_of(ng.group):
            P = sylow_subgroup(ng.group, p)
            fams = list(md_families(P, limit=50000))
            vals = [
                all(is_s_semipermutable(ng.group, M) for M in f.members)
                for f in fams
            ]
            assert main_hypothesis(ng.group, p, HypothesisMode.EXISTS)[0] == any(vals)
            assert main_hypothesis(ng.group, p, HypothesisMode.FORALL)[0] == all(vals)
            assert main_hypothesis(ng.group, p, HypothesisMode.CANONICAL)[0] == vals[0]


def test_lemma_suites_no_violations_small():
    for name in ("S3", "S4", "A4", "Q8", "C12", "D12", "S3xS3"):
        ng = named_group(name)
        recs = (
            verify_lemma_2_1(ng.group, name)
            + verify_lemma_2_2(ng.group, name)
            + verify_lemma_2_3(ng.group, name)
            + verify_lemma_2_4(ng.group, name)
        )
        assert all(not r.violated for r in recs)
        # record invariants
        for r in recs:
            if r.violated:
                assert r.hypothesis and not r.conclusion
            assert r.witnesses["instances"] >= 0


def test_lemma_2_3_sylow_fallback_above_cap(s3, a5):
    # order 360 sits above a lowered lattice cap: candidates then come from
    # the Sylow representatives' lattices and the record is flagged sampled
    from grouplab.corpus import direct_product
    from grouplab.theorems import verify_lemma_2_3

    G = direct_product(s3, a5)
    (rec,) = verify_lemma_2_3(G, "S3xA5", lattice_cap=200)
    assert rec.skipped is None
    assert rec.witnesses["sampled"] is True
    assert not rec.violated


def test_lemma_2_1_hall_instances(s3):
    recs = verify_lemma_2_1(s3, "S3")
    part3 = next(r for r in recs if r.check == "lemma-2.1.3")
    # the normal C3 is an s-permutable Hall subgroup, so the part is live
    assert part3.hypothesis and part3.conclusion


def test_srinivasan(s4, q8):
    r = verify_srinivasan(cyclic(12), "C12")
    assert r.hypothesis and r.conclusion and not r.violated
    r = verify_srinivasan(s4, "S4")
    assert not r.hypothesis and not r.violated
    r = verify_srinivasan(q8, "Q8")
    assert r.hypothesis and r.conclusion


def test_corollary_4_1(s4, c6):
    fwd, conv = verify_corollary_4_1(c6, group_name="C6")
    assert fwd.hypothesis and fwd.conclusion and not fwd.violated
    assert conv.hypothesis and conv.conclusion and not conv.violated
    fwd, conv = verify_corollary_4_1(s4, group_name="S4")
    assert not fwd.hypothesis and not fwd.conclusion
    assert not fwd.violated and not conv.violated


def test_corollary_4_2_and_4_3(s3, a5):
    r = verify_corollary_4_2(s3, 3, group_name="S3")
    assert not r.violated
    r = verify_corollary_4_3(s3, 3, group_name="S3")
    assert not r.violated
    for p in primes_of(a5):
        assert not verify_corollary_4_2(a5, p, group_name="A5").violated
        assert not verify_corollary_4_3(a5, p, group_name="A5").violated


def test_record_invariant_enforced():
    with pytest.raises(AssertionError):
        VerificationRecord(
            check="x", group="g", prime=2,
            hypothesis=False, conclusion=False, violated=True,
        )


def test_expand_checks():
    assert expand_checks(["main"]) == ["main"]
    assert expand_checks(["lemmas"]) == [
        "lemma-2.1", "lemma-2.2", "lemma-2.3", "lemma-2.4",
    ]
    assert expand_checks(["corollaries", "main"])[-1] == "main"
    with pytest.raises(ValueError):
        expand_checks(["bogus"])


def test_run_corpus_main_small():
    report = run_corpus(builtin_corpus(24), checks=["main"])
    assert report.failed == 0 and report.skipped == 0
    assert len(report.records) == report.passed
    # every (group, prime) pair appears
    names = {(r.group, r.prime) for r in report.records}
    for ng in builtin_corpus(24):
        for p in primes_of(ng.group):
            assert (ng.name, p) in names


def test_run_corpus_drops_each_groups_caches():
    """A serial run keeps no group's lattice, vectors or quotients once its
    checks are done; the answers do not depend on them."""
    corpus = [named_group("S4"), named_group("D12")]
    before = run_corpus(corpus, checks=["lemmas"]).render("text")
    assert all(ng.group.cache == {} for ng in corpus)
    assert run_corpus(corpus, checks=["lemmas"]).render("text") == before


def test_run_corpus_empty():
    report = run_corpus([], checks=["main"])
    assert report.records == []
    assert report.render("text").count("\n") >= 3


def test_run_corpus_skip_policy():
    # a group above the lattice cap gets lemma-2.4 skipped, not passed
    corpus = [named_group("S4")]
    report = run_corpus(corpus, checks=["lemma-2.4"], lattice_cap=10)
    assert report.skipped == 1 and report.passed == 0
    rec = report.records[0]
    assert rec.skipped and "cap" in rec.skipped
    # conservation
    assert len(report.records) == report.passed + report.failed + report.skipped


def test_report_determinism_across_parallelism():
    corpus = builtin_corpus(24)
    r1 = run_corpus(corpus, checks=["main", "srinivasan"], parallelism=1)
    r2 = run_corpus(builtin_corpus(24), checks=["main", "srinivasan"], parallelism=3)
    assert r1.render("text") == r2.render("text")
    assert r1.render("jsonl") == r2.render("jsonl")


def test_violation_aborts_with_witness(tmp_path, monkeypatch):
    # force a fake violation to exercise the abort path
    import grouplab.runner as runner_mod

    def fake_verify_main(G, p, mode=HypothesisMode.EXISTS, group_name="?"):
        return VerificationRecord(
            check="main", group=group_name, prime=p,
            hypothesis=True, conclusion=False, violated=True,
            witnesses={"forced": True},
        )

    monkeypatch.setattr(runner_mod, "verify_main", fake_verify_main)
    witness = tmp_path / "witness.txt"
    with pytest.raises(CounterexampleError) as exc:
        run_corpus(
            builtin_corpus(6), checks=["main"], witness_path=str(witness)
        )
    assert witness.exists()
    content = witness.read_text()
    assert "name:" in content and "degree:" in content  # group file included
    assert exc.value.report.failed >= 1


def test_report_rendering_shapes():
    report = run_corpus(builtin_corpus(12), checks=["main"])
    text = report.render("text")
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert all(len(l.split("\t")) == 7 for l in lines)
    jsonl = report.render("jsonl")
    import json

    rows = [json.loads(l) for l in jsonl.splitlines()]
    assert rows[0].get("params")
    assert rows[-1]["total"] == len(lines)
    assert all("elapsed" not in row for row in rows)


RELABEL_GROUPS = [named_group(name).group for name in ("S4", "D24", "S3xC4")]


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_relabelling_invariance(data):
    # renaming the points (conjugating every generator by one permutation)
    # gives an isomorphic group, so chief factors and the main check's
    # hypothesis and conclusion at every prime must not change
    for G in RELABEL_GROUPS:
        s = Permutation(data.draw(st.permutations(range(G.degree))))
        sinv = s.inverse()
        H = Group(G.degree, [sinv * g * s for g in G.generators])
        assert chief_series(H).factor_orders == chief_series(G).factor_orders
        for p in primes_of(G):
            a, b = verify_main(G, p), verify_main(H, p)
            assert (a.hypothesis, a.conclusion) == (b.hypothesis, b.conclusion)


def test_stray_exception_becomes_error_record(tmp_path, monkeypatch):
    # a guard AssertionError in one group must not lose the other groups
    import grouplab.runner as runner_mod

    real_verify_main = runner_mod.verify_main

    def flaky_verify_main(G, p, mode=HypothesisMode.EXISTS, group_name="?"):
        if group_name == "S3":
            raise AssertionError("normalizer ascent stalled")
        return real_verify_main(G, p, mode, group_name=group_name)

    monkeypatch.setattr(runner_mod, "verify_main", flaky_verify_main)
    corpus = builtin_corpus(6)
    witness = tmp_path / "witness.txt"
    report = run_corpus(corpus, checks=["main"], witness_path=str(witness))
    errors = report.errors
    assert [(r.group, r.prime) for r in errors] == [("S3", 2), ("S3", 3)]
    assert all(r.status == "error:AssertionError" for r in errors)
    assert all(r.skipped is None and not r.violated for r in errors)
    assert errors[0].witnesses == {
        "error": "AssertionError: normalizer ascent stalled"
    }
    assert report.failed == 2
    expected = {
        (ng.name, p)
        for ng in corpus
        if ng.name != "S3"
        for p in primes_of(ng.group)
    }
    others = {(r.group, r.prime) for r in report.records if r.group != "S3"}
    assert others == expected and report.passed == len(expected)
    assert "error:AssertionError" in report.render("text")
    content = witness.read_text()
    assert "normalizer ascent stalled" in content and "name: S3" in content
