"""The group-file cache behind ``GroupFile.to_group``: keys, bounds, and
answers on reused groups equal to answers on freshly built ones."""

import dataclasses
import os
import subprocess
import sys

import pytest

import grouplab
from grouplab import (
    CycleFormatError,
    HypothesisMode,
    Permutation,
    builtin_corpus,
    group_from_generators,
    named_group,
    parse_group_file,
    verify_corollary_4_3,
    verify_main,
    verify_srinivasan,
    write_group_file,
)
from grouplab.corpus import (
    GROUP_CACHE_MAX_ORDER,
    GROUP_CACHE_SIZE,
    clear_group_cache,
    group_cache_info,
)
from grouplab import structure, theorems
from grouplab.structure import p_part, primes_of, sylow_subgroup


@pytest.fixture(autouse=True)
def empty_cache():
    clear_group_cache()
    yield
    clear_group_cache()


def _group(text):
    return parse_group_file(text).to_group()


def test_same_text_same_group_other_text_other_group():
    G = _group("name: a\ndegree: 4\ngen: (1 2 3)\n")
    assert _group("name: b\ndegree: 4\ngen: (1 2 3)\n") is G
    other_gen = _group("name: a\ndegree: 4\ngen: (1 2 3 4)\n")
    other_degree = _group("name: a\ndegree: 5\ngen: (1 2 3)\n")
    assert other_gen is not G and other_gen.order() == 4
    assert other_degree is not G and other_degree.degree == 5
    assert G.degree == 4 and G.order() == 3
    info = group_cache_info()
    # each parse builds (or finds) the group once and to_group finds it
    assert (info.hits, info.misses, info.entries) == (5, 3, 3)


def test_entries_bounded():
    for k in range(40):
        _group(f"name: c\ndegree: {k + 2}\ngen: (1 2)\n")
    assert group_cache_info().entries <= GROUP_CACHE_SIZE
    # the most recent texts are the ones kept
    assert _group("name: c\ndegree: 41\ngen: (1 2)\n").degree == 41
    assert group_cache_info().misses == 40


def test_large_group_dropped_at_next_lookup():
    """The retained table bytes are the small group's table alone: a check
    at every prime finds its Sylow subgroups, which build no table of their
    own.  The large group goes with its table."""
    small = _group("name: s\ndegree: 4\ngen: (1 2 3 4)\ngen: (1 2)\n")
    big = _group("name: b\ndegree: 6\ngen: (1 2 3 4 5 6)\ngen: (1 2)\n")
    for G in (small, big):
        for p in primes_of(G):
            verify_main(G, p)
    assert big.order() == 720 > GROUP_CACHE_MAX_ORDER
    assert group_cache_info().entries == 2
    _group("name: t\ndegree: 3\ngen: (1 2 3)\n")
    info = group_cache_info()
    sylows = [sylow_subgroup(small, p) for p in primes_of(small)]
    assert [P.order() for P in sylows] == [8, 3]
    assert all(P._table is None for P in sylows)
    assert info.entries == 2 and info.table_bytes == small._table.nbytes
    assert _group("name: b\ndegree: 6\ngen: (1 2 3 4 5 6)\ngen: (1 2)\n") is not big
    assert _group("name: s\ndegree: 4\ngen: (1 2 3 4)\ngen: (1 2)\n") is small


def test_lookup_examines_no_entry_of_known_small_order(monkeypatch):
    """A known order never changes, so once a lookup has seen every
    entry's order, later lookups look at none of them, hits and misses
    alike."""
    from grouplab import corpus

    texts = [f"name: c\ndegree: {k + 2}\ngen: (1 2)\n" for k in range(GROUP_CACHE_SIZE)]
    for text in texts:
        assert _group(text).order() == 2
    _group(texts[0])  # sees every order once

    class Watched:
        def __init__(self, G):
            self.G = G

        def __getattr__(self, attr):
            raise AssertionError(f"cached group examined: {attr}")

    for key in list(corpus._groups):
        monkeypatch.setitem(corpus._groups, key, Watched(corpus._groups[key]))
    G = corpus._cached_group(3, ("(1 2 3)",))
    assert corpus._cached_group(3, ("(1 2 3)",)) is G
    assert len(corpus._groups) == GROUP_CACHE_SIZE
    assert isinstance(corpus._groups[(4, ("(1 2)",))], Watched)


def test_failed_parse_leaves_no_entry():
    with pytest.raises(CycleFormatError):
        _group("name: x\ndegree: 3\ngen: (1 2)\ngen: (1 4)\n")
    with pytest.raises(CycleFormatError):
        _group("name: x\ndegree: 3\ngen-images: 1 1 2\n")
    assert group_cache_info().entries == 0


def _plain(record):
    return dataclasses.replace(record, elapsed=0.0)


def test_reused_groups_give_fresh_answers():
    """Every group of corpus 64 at every prime and in every mode: the main
    check twice on the cached group equals the main check on a group built
    afresh from the same text.  Corollary 4.3 (one mode per prime, in
    turn) and Srinivasan's theorem on the cached group, which then share
    its Sylow subgroups with the main checks, equal them on fresh groups
    too.  The same generator lines on one more point give the group on
    that many points."""
    modes = list(HypothesisMode)
    for ng in builtin_corpus(64):
        text = write_group_file(ng)
        gf = parse_group_file(text)
        G = gf.to_group()
        gens = [Permutation.parse(gf.degree, t) for t in gf.generators]

        def fresh():
            return group_from_generators(gf.degree, gens)

        for k, p in enumerate(primes_of(G)):
            for mode in HypothesisMode:
                want = _plain(verify_main(fresh(), p, mode, gf.name))
                for _ in range(2):
                    got = _plain(verify_main(G, p, mode, gf.name))
                    assert got == want, (gf.name, p, mode)
            mode = modes[k % len(modes)]
            want = _plain(verify_corollary_4_3(fresh(), p, mode, gf.name))
            got = _plain(verify_corollary_4_3(G, p, mode, gf.name))
            assert got == want, (gf.name, p, mode)
        want = _plain(verify_srinivasan(fresh(), gf.name))
        assert _plain(verify_srinivasan(G, gf.name)) == want, gf.name
        assert G._elements is None  # the checks use the matrix, not Permutations
        n = gf.degree + 1
        padded = _group(text.replace(f"degree: {n - 1}\n", f"degree: {n}\n"))
        wider = [Permutation.parse(n, t) for t in gf.generators]
        assert padded.same_elements(group_from_generators(n, wider)), gf.name
    assert group_cache_info().hits > 0


def test_repeated_check_rebuilds_no_sylow_subgroup(monkeypatch):
    """A second check of a cached group at the same prime finds P, and
    with it Phi(P) and the maximal subgroups, in G's cache: neither the
    normalizer ascent nor the Frattini frame runs again, and P never
    builds a table of its own."""
    builds = []
    ascent, frame = structure._sylow_by_ascent, structure._p_group_frame

    def counted_ascent(G, p, target):
        builds.append(("sylow", p))
        return ascent(G, p, target)

    def counted_frame(P, G):
        if ("pframe", P.generators) not in G.cache:
            builds.append(("pframe", P.order()))
        return frame(P, G)

    monkeypatch.setattr(structure, "_sylow_by_ascent", counted_ascent)
    monkeypatch.setattr(structure, "_p_group_frame", counted_frame)
    monkeypatch.setattr(theorems, "_p_group_frame", counted_frame)
    text = "name: s\ndegree: 4\ngen: (1 2 3 4)\ngen: (1 2)\n"
    for p in (2, 3):
        start = len(builds)
        want = [_plain(verify_main(_group(text), p, mode)) for mode in HypothesisMode]
        assert ("pframe", p_part(24, p)) in builds[start:]
        start = len(builds)
        for mode, record in zip(HypothesisMode, want):
            assert _plain(verify_main(_group(text), p, mode)) == record
        assert builds[start:] == [], p
        assert sylow_subgroup(_group(text), p)._table is None
    # each Sylow subgroup was built once, by whichever check needed it first
    assert sorted(b for b in builds if b[0] == "sylow") == [("sylow", 2), ("sylow", 3)]


STREAM_GROUPS = (
    "S3", "Q8", "D8", "A4", "C3xS3", "C2xA4", "S4", "S3xS3",
    "D4xS3", "C2xS4", "A5", "C2^6",
)


def _relabelled_text(name):
    """Group-file text of the corpus group ``name`` with its points moved
    by a fixed permutation of the points."""
    G = named_group(name).group
    n = G.degree
    moved = list(range(n))[::-1]
    lines = [f"name: {name}", f"degree: {n}"]
    for g in G.generators:
        images = [0] * n
        for i, j in enumerate(g.images):
            images[moved[i]] = moved[j]
        lines.append(f"gen: {Permutation(images).cycle_string()}")
    return "\n".join(lines) + "\n"


def test_stream_path_repeats_find_group_and_verdict(monkeypatch):
    """Single checks from group-file text, each run as parse_group_file ->
    to_group -> verify_main: a second pass over the same requests finds
    every group in the group-file cache and every verdict in the group's
    cache, and gives records equal to the first pass's but for
    ``elapsed``.  The verdicts agree with those on the corpus groups."""
    requests = []
    for name in STREAM_GROUPS:
        text = _relabelled_text(name)
        G = named_group(name).group
        requests += [(text, p, mode) for p in primes_of(G) for mode in HypothesisMode]

    def run(text, p, mode):
        gf = parse_group_file(text)
        return _plain(verify_main(gf.to_group(), p, mode, gf.name))

    first = [run(*request) for request in requests]
    before = group_cache_info()
    assert before.misses == len(STREAM_GROUPS)
    with monkeypatch.context() as m:
        m.setattr(theorems, "main_hypothesis", None)
        m.setattr(theorems, "main_conclusion", None)
        second = [run(*request) for request in requests]
    assert second == first
    after = group_cache_info()
    # each request looks its group up twice: parse_group_file's validation
    # build and to_group
    assert after.hits - before.hits == 2 * len(requests)
    assert after.misses == before.misses
    for (text, p, mode), record in zip(requests, first):
        want = verify_main(named_group(record.group).group, p, mode)
        assert (record.hypothesis, record.conclusion, record.violated) == (
            want.hypothesis,
            want.conclusion,
            want.violated,
        ), (record.group, p, mode)


def test_import_loads_no_multiprocessing():
    """The process pool is imported only for a parallel run, so the memory
    of importing grouplab leaves room for the cache."""
    src = os.path.dirname(os.path.dirname(grouplab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, grouplab; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
