"""Regenerate perfbench/answers.json, the benchmark's expected-answer table.

Run once from the repository root against a known-good library:

    python3 perfbench/make_answers.py --part main --out main.json
    python3 perfbench/make_answers.py --part lemmas --out lemmas.json
    python3 perfbench/make_answers.py --part stream --out stream.json
    python3 perfbench/make_answers.py --merge main.json lemmas.json stream.json

The parts are independent, so two of them can run side by side.  Every
answer is computed on the unrelabelled groups; the benchmark then requires
relabelled copies to reproduce them, which holds because every stored field
is invariant under isomorphism.  The table also stores each group's base
generators, so the benchmark's inputs do not depend on the library's
constructions, and a reference cost per pool entry (seconds, on the machine
that generated the table), used only to sort pools into cost strata.  A
sweep entry is a group; a stream entry is a (group, prime, mode) check,
whose cost is the median of a few checks on relabelled copies, scaled by
the speed gauge of ``speed.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import grouplab as gl  # noqa: E402
from run import relabelled_text  # noqa: E402
from speed import SpeedGauge  # noqa: E402
from grouplab.corpus import builtin_corpus, named_group  # noqa: E402
from grouplab.structure import primes_of  # noqa: E402

MAIN_MAX_ORDER = 200
LEMMA_MAX_ORDER = 64
LEMMA_MAX_COST_S = 1.0
"""Lemma-pool groups slower than this are left out: a handful of 2-groups of
order 32-64 with very large subgroup lattices would otherwise dominate any
sample (the five slowest take 12-19 s each)."""
STREAM_SMALL_MAX_ORDER = 64
STREAM_LARGE = (
    "A4xA4xC2", "A4xS4", "A5xC2^2", "A5xC4", "A5xS3", "C11^2xC2", "C2^3xS3xS3",
    "C2^6xS3", "C2^7xC3", "C3^2xS4", "C3^3xA4", "C3^4xC2^2", "C3^4xS3", "C3^5",
    "C5^2xA4", "C5^2xS4", "C5^3xS3", "C7^2xC6", "C7^2xS3", "D10xA5",
    "D10xC5^2", "D16xC2^4", "D8xC2^5", "D8xC3^3", "Q8xC2^5", "S3xS3xS3",
    "S4xC2^4", "S4xD12", "S4xS4", "S5xC2", "S5xC3",
)
"""Direct products outside the built-in corpus, orders 216-750."""
STREAM_MAX_COST_S = 1.0
STREAM_COST_REPEATS = 3
MODES = ("exists", "forall", "canonical")


def _base(ng) -> dict:
    G = ng.group
    return {
        "order": G.order(),
        "degree": G.degree,
        "gens": [g.cycle_string() for g in G.generators],
    }


def _fresh(ng):
    """Copy of a named group with empty caches, so no run reuses another's."""
    G = ng.group
    return gl.NamedGroup(ng.name, gl.Group(G.degree, G.generators))


def _main_answer(record, mode: str) -> dict:
    if mode == "canonical":
        return {"conclusion": record.conclusion}
    hw = record.witnesses["hypothesis"]
    return {
        "hypothesis": record.hypothesis,
        "conclusion": record.conclusion,
        "d": hw["d"],
        "maximal_count": hw["maximal_count"],
        "passing_count": hw.get("passing_count"),
    }


def _main_answers(ng) -> dict:
    out: dict = {}
    for mode in MODES:
        report = gl.run_corpus(
            [_fresh(ng)], checks=["main"], mode=mode
        )
        for r in report.records:
            if r.status != "ok":
                raise SystemExit(f"{ng.name} p={r.prime} {mode}: {r.status}")
            out.setdefault(str(r.prime), {})[mode] = _main_answer(r, mode)
    return out


def part_main() -> dict:
    groups, pool = {}, []
    for ng in builtin_corpus(MAIN_MAX_ORDER):
        t0 = time.perf_counter()
        gl.run_corpus([_fresh(ng)], checks=["main"], mode="exists")
        cost = time.perf_counter() - t0
        groups[ng.name] = dict(_base(ng), main=_main_answers(ng))
        pool.append([ng.name, round(cost, 5)])
    return {"groups": groups, "pools": {"sweep-main": pool}}


def part_lemmas() -> dict:
    groups, pool = {}, []
    for ng in builtin_corpus(LEMMA_MAX_ORDER):
        t0 = time.perf_counter()
        report = gl.run_corpus([_fresh(ng)], checks=["lemmas"])
        cost = time.perf_counter() - t0
        if cost > LEMMA_MAX_COST_S:
            continue
        statuses = {r.check: r.status for r in report.records}
        if set(statuses.values()) != {"ok"}:
            raise SystemExit(f"{ng.name}: {statuses}")
        groups[ng.name] = dict(_base(ng), lemmas=statuses)
        pool.append([ng.name, round(cost, 5)])
    return {"groups": groups, "pools": {"sweep-lemmas": pool}}


def _stream_costs(ng, p: int, gauge: SpeedGauge, rng: random.Random) -> dict:
    """Seconds per check of each mode, as the stream sends it: the median of
    ``STREAM_COST_REPEATS`` checks on relabelled copies, scaled by the
    speed gauge."""
    entry = _base(ng)
    costs = {}
    for mode in MODES:
        times = []
        for _ in range(STREAM_COST_REPEATS):
            text = relabelled_text(ng.name, entry, rng)
            t0 = gauge.clock()
            G = gl.parse_group_file(text).to_group()
            gl.verify_main(G, p, gl.HypothesisMode(mode))
            dt = gauge.clock() - t0
            times.append(dt * gauge.factor(t0, t0 + dt))
        costs[mode] = statistics.median(times)
    return costs


def part_stream() -> dict:
    groups: dict = {}
    small, large = [], []
    rng = random.Random("stream-costs")
    gauge = SpeedGauge()
    gauge.start()
    try:
        for ng in builtin_corpus(STREAM_SMALL_MAX_ORDER):
            for p in primes_of(ng.group):
                for mode, cost in _stream_costs(ng, p, gauge, rng).items():
                    small.append([ng.name, p, mode, round(cost, 6)])
        for name in STREAM_LARGE:
            ng = named_group(name)
            entries = []
            for p in primes_of(ng.group):
                for mode, cost in _stream_costs(ng, p, gauge, rng).items():
                    if cost <= STREAM_MAX_COST_S:
                        entries.append([name, p, mode, round(cost, 6)])
            if entries:
                groups[name] = dict(_base(ng), main=_main_answers(ng))
                large.extend(entries)
    finally:
        gauge.stop()
    return {"groups": groups, "pools": {"stream-small": small, "stream-large": large}}


def merge(paths: list[str]) -> dict:
    out: dict = {
        "generated_by": "perfbench/make_answers.py",
        "caps": {
            "DEFAULT_ENUM_CAP": gl.errors.DEFAULT_ENUM_CAP,
            "DEFAULT_TABLE_CAP": gl.errors.DEFAULT_TABLE_CAP,
            "DEFAULT_LATTICE_CAP": gl.errors.DEFAULT_LATTICE_CAP,
        },
        "groups": {},
        "pools": {},
    }
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        for name, entry in part["groups"].items():
            out["groups"].setdefault(name, {}).update(entry)
        out["pools"].update(part["pools"])
    missing = {
        e[0] for pool in out["pools"].values() for e in pool
    } - set(out["groups"])
    if missing:
        raise SystemExit(f"pool groups without answers: {sorted(missing)}")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", choices=("main", "lemmas", "stream"))
    ap.add_argument("--out")
    ap.add_argument("--merge", nargs="+")
    args = ap.parse_args()
    if args.merge:
        data = merge(args.merge)
        path = os.path.join(ROOT, "perfbench", "answers.json")
    else:
        data = {"main": part_main, "lemmas": part_lemmas, "stream": part_stream}[
            args.part
        ]()
        path = args.out
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
