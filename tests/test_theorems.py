import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from grouplab import theorems
from grouplab.corpus import (
    NamedGroup,
    builtin_corpus,
    cyclic,
    named_group,
    write_group_file,
)
from grouplab.errors import DEFAULT_LATTICE_CAP
from grouplab.groups import CosetMap, Group
from grouplab.perms import Permutation
from grouplab.permutability import is_s_semipermutable
from grouplab.runner import (
    CounterexampleError,
    expand_checks,
    run_corpus,
)
from grouplab.solubility import chief_series
from grouplab.structure import (
    _lattice,
    all_sylow_subgroups,
    md_families,
    primes_of,
    sylow_subgroup,
)
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
    with pytest.raises(ValueError):
        expand_checks([])


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


def test_main_corollaries_and_srinivasan_build_one_table_per_group(monkeypatch):
    """The Sylow subgroups' Frattini frames and maximal subgroups run on
    G's table, so over corpus 60 each group builds one dense table, its
    own, and no other group builds one."""
    built = []
    table = Group.table

    def counted(self):
        if self._table is None:
            built.append(self)
        return table(self)

    monkeypatch.setattr(Group, "table", counted)
    corpus = builtin_corpus(60)
    report = run_corpus(corpus, checks=["main", "corollaries", "srinivasan"])
    assert report.failed == 0 and report.records
    assert sorted(map(id, built)) == sorted(id(ng.group) for ng in corpus)


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
    checks = ["main", "srinivasan", "lemmas", "corollaries"]
    r1 = run_corpus(corpus, checks=checks, parallelism=1)
    r2 = run_corpus(builtin_corpus(24), checks=checks, parallelism=3)
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


def test_same_name_groups_keep_their_own_chain(tmp_path, monkeypatch):
    # two groups under one name are two chains: each one's cache is emptied,
    # and the witness is the group file of the group that failed
    import grouplab.runner as runner_mod

    s4 = NamedGroup("X", named_group("S4").group)
    c6 = NamedGroup("X", cyclic(6))
    run_corpus([s4, c6], checks=["main"])
    assert s4.group.cache == {} and c6.group.cache == {}

    real_verify_main = runner_mod.verify_main

    def failing_on_s4(G, p, mode=HypothesisMode.EXISTS, group_name="?"):
        if G.degree == 4:
            raise AssertionError("forced")
        return real_verify_main(G, p, mode, group_name=group_name)

    monkeypatch.setattr(runner_mod, "verify_main", failing_on_s4)
    witness = tmp_path / "witness.txt"
    report = run_corpus([s4, c6], checks=["main"], witness_path=str(witness))
    assert [r.prime for r in report.errors] == [2, 3]
    assert witness.read_text().endswith(write_group_file(s4))


def test_derived_groups_build_no_stabilizer_chain(monkeypatch):
    """The quotients of the lemma suites and the Sylow subgroups of the main
    check take their elements from G's table, not from Schreier-Sims."""
    made = []

    def record(fn):
        def wrapped(G, *args):
            made.append((G, fn(G, *args)))
            return made[-1][1]

        return wrapped

    monkeypatch.setattr(theorems, "quotient", record(theorems.quotient))
    monkeypatch.setattr(theorems, "sylow_subgroup", record(theorems.sylow_subgroup))
    for name in ("S4", "C3xS3", "D8xC3"):
        G = named_group(name).group
        verify_lemma_2_1(G, name)
        verify_lemma_2_2(G, name)
        for p in primes_of(G):
            verify_main(G, p, group_name=name)
    quotients = [cm.quotient for _, cm in made if isinstance(cm, CosetMap)]
    sylows = [P for G, P in made if isinstance(P, Group) and P is not G]
    assert quotients and sylows
    assert all(H._levels is None for H in quotients + sylows)


def test_warm_corollaries_build_no_group(monkeypatch):
    """Repeated on a warm group whose family hypothesis holds at every
    prime, corollaries 4.1 and 4.3 decide p-nilpotency, of G and of
    N_G(P), on masks over G: they build no Group."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Group was built")

    def run(G):
        records = verify_corollary_4_1(G)
        records += [verify_corollary_4_3(G, p) for p in primes_of(G)]
        return [(r.hypothesis, r.conclusion, r.witnesses) for r in records]

    for name in ("S3", "D8xC3"):
        G = named_group(name).group
        assert all(main_hypothesis(G, p)[0] for p in primes_of(G))
        warm = run(G)
        with monkeypatch.context() as m:
            m.setattr(Group, "__init__", refuse)
            assert run(G) == warm


def test_srinivasan_reads_one_sylow_subgroup_per_prime(monkeypatch):
    """S3 has three Sylow 2-subgroups and one Sylow 3-subgroup; the
    hypothesis is decided on the first of each in mask order, on S3's
    table, and ``checked`` still counts the maximal subgroups of all four."""
    G = named_group("S3").group
    calls = []
    maximal_data = theorems._maximal_data

    def counted(P, H):
        assert H is G
        calls.append(G.mask_of(P))
        return maximal_data(P, H)

    monkeypatch.setattr(theorems, "_maximal_data", counted)
    r = verify_srinivasan(G, "S3")
    assert calls == [all_sylow_subgroups(G, p).masks[0] for p in (2, 3)]
    assert r.hypothesis and r.witnesses["checked"] == 4


def test_repeated_main_check_reads_the_memo(monkeypatch):
    """A repeat of the main check at the same (p, mode) decides nothing
    again: it equals the first record in every field but ``elapsed``."""
    for name in ("S4", "Q8", "C2xA4"):
        G = named_group(name).group
        G = Group(G.degree, G.generators)
        first = {
            (p, mode): verify_main(G, p, mode, name)
            for p in primes_of(G)
            for mode in HypothesisMode
        }
        with monkeypatch.context() as m:
            m.setattr(theorems, "main_hypothesis", None)
            m.setattr(theorems, "main_conclusion", None)
            for (p, mode), want in first.items():
                got = verify_main(G, p, mode, name)
                assert got.elapsed > 0
                assert dataclasses.replace(got, elapsed=want.elapsed) == want


def test_main_check_records_own_their_witnesses():
    """Changing one record's witnesses leaves the next record as it was."""
    G = named_group("Q8").group
    G = Group(G.degree, G.generators)
    first = verify_main(G, 2)
    family = list(first.witnesses["hypothesis"]["family"])
    first.witnesses["hypothesis"]["family"].append("changed")
    first.witnesses["conclusion"]["branch"] = "changed"
    del first.witnesses["hypothesis"]["d"]
    second = verify_main(G, 2)
    assert second.witnesses["hypothesis"]["family"] == family
    assert second.witnesses["hypothesis"]["d"] == 2
    assert second.witnesses["conclusion"]["branch"] != "changed"
    second.witnesses["hypothesis"]["family"].clear()
    assert verify_main(G, 2).witnesses["hypothesis"]["family"] == family


def test_main_check_memo_key_normalises_the_mode():
    G = named_group("S4").group
    G = Group(G.degree, G.generators)
    for mode in HypothesisMode:
        a = verify_main(G, 2, mode.value)
        b = verify_main(G, 2, mode)
        assert dataclasses.replace(a, elapsed=b.elapsed) == b
    keys = [k for k in G.cache if isinstance(k, tuple) and k[0] == "main"]
    assert sorted(k[2] for k in keys) == sorted(HypothesisMode)
    assert all(type(k[2]) is HypothesisMode for k in keys)


def test_main_check_caches_no_error():
    """p not dividing |G|, and p not prime, raise on every call."""
    G = named_group("S4").group
    G = Group(G.degree, G.generators)
    for p in (5, 4):
        for _ in range(3):
            with pytest.raises(ValueError):
                verify_main(G, p)
    assert not [k for k in G.cache if isinstance(k, tuple) and k[0] == "main"]


def test_restriction_parts_skip_a_sylow_subgroup_alone_in_k(monkeypatch):
    """A Sylow subgroup alone in the overgroup K is normal in K, so every
    H <= K permutes with it and no lattice vector is read for it: a
    nilpotent group reads none, and on S4 and S3xS3 every (H, K) gets the
    answer that reading all of K's Sylow subgroups gives."""
    read = []
    real = theorems._lattice_permutes

    def counted(G, L, lat):
        read.append(L)
        return real(G, L, lat)

    monkeypatch.setattr(theorems, "_lattice_permutes", counted)
    G = named_group("D8xC3").group
    lat = _lattice(G, DEFAULT_LATTICE_CAP)
    for coprime_only in (False, True):
        theorems._restriction_part(G, lat, lat.masks, coprime_only)
    assert read == []
    for name in ("S4", "S3xS3"):
        G = named_group(name).group
        lat = _lattice(G, DEFAULT_LATTICE_CAP)
        for i, m in enumerate(lat.masks):
            for km in lat.masks:
                if km | m != km:
                    continue
                sylows = theorems._sylows_within(G, lat, km)
                for coprime_only in (False, True):
                    every = all(
                        real(G, L, lat)[i]
                        for q, masks in sylows.items()
                        if not (coprime_only and m.bit_count() % q == 0)
                        for L in masks
                    )
                    got = theorems._permutes_with_sylows(
                        G, lat, i, coprime_only, sylows
                    )
                    assert got == every, (name, i, km)
    assert read
