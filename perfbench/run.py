"""grouplab benchmark: corpus sweeps and a stream of single checks.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-main --seed 1 --seconds 32 --trace 0

Workloads (see README.md for why each exists):

* ``sweep-main``   ``run_corpus(checks=["main"], mode="exists")`` over a
  seeded stratified sample of relabelled built-in groups of order <= 200.
* ``sweep-lemmas`` ``run_corpus(checks=["lemmas"])`` over a seeded
  stratified sample of relabelled groups of order <= 64.
* ``check-stream`` one closed-loop client sending group-file text, a prime
  and a mode through ``parse_group_file -> to_group -> verify_main``.

All load runs in this one process; ``run_corpus`` gets ``parallelism=1``.
The library receives only group-file text (the seed relabels every group's
points), and every answer is checked against ``answers.json``.

With ``--trace 0`` the run times the workload untraced and prints the
end-to-end metrics.  With ``--trace 1`` it runs a fixed amount of work
(``TRACE_UNITS`` batches or rounds), each unit once untraced and once
traced, and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is always one JSON object.  A wrong answer, a
violation, a skip or an exception makes the run exit 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

import numpy as np

from layers import layer_metrics
from speed import PAD_S, SpeedGauge
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 11
TRACE_UNITS = 2

SWEEPS = {
    # workload: (pool, checks, stratum size)
    "sweep-main": ("sweep-main", "main", 40),
    "sweep-lemmas": ("sweep-lemmas", "lemmas", 20),
}

# One round of check-stream is 100 requests.  Each class (checks on small
# corpus groups, on larger products outside the corpus) is cut into cost
# strata of (group, prime, mode) entries, one stratum per slot.  Every round
# each slot takes the next entry of its stratum, in a seeded order that
# visits every entry before any repeats, freshly relabelled, and sends it as
# many times as its quota: Zipf (1/rank) quotas for the popular slots, one
# request for the others.  So texts repeat within a round and every seed
# sends the same mix of costs.  Strata are assigned to slots by a fixed
# shuffle, so that popularity does not follow cost.
STREAM_CLASSES = {
    # pool: (popular slots, their requests per round, single-request slots)
    "stream-small": (16, 68, 12),
    "stream-large": (4, 8, 12),
}


# -- input generation ------------------------------------------------------------


def parse_cycles(degree: int, text: str) -> list[int]:
    images = list(range(degree))
    for body in text.replace(")", "").split("(")[1:]:
        pts = [int(t) - 1 for t in body.split()]
        for i, pt in enumerate(pts):
            images[pt] = pts[(i + 1) % len(pts)]
    return images


def cycle_text(images: list[int]) -> str:
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cycle, cur = [], start
        while not seen[cur]:
            seen[cur] = True
            cycle.append(str(cur + 1))
            cur = images[cur]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "()"


def relabelled_text(name: str, entry: dict, rng: random.Random) -> str:
    """Group-file text of ``entry`` with its points renamed by a random
    permutation s (each generator g becomes s^-1 g s)."""
    n = entry["degree"]
    sigma = list(range(n))
    rng.shuffle(sigma)
    lines = [f"name: {name}", f"degree: {n}"]
    for gen in entry["gens"]:
        g = parse_cycles(n, gen)
        h = [0] * n
        for x in range(n):
            h[sigma[x]] = sigma[g[x]]
        lines.append(f"gen: {cycle_text(h)}")
    return "\n".join(lines) + "\n"


def cost_strata(entries: list, count: int) -> list[list]:
    """Split entries (each ending in its reference cost) into ``count``
    contiguous strata of near-equal size, cheapest first."""
    ordered = sorted(entries, key=lambda e: (e[-1], e[:-1]))
    q, r = divmod(len(ordered), count)
    out, i = [], 0
    for s in range(count):
        size = q + (s < r)
        out.append(ordered[i : i + size])
        i += size
    return out


def zipf_quotas(slots: int, total: int) -> list[int]:
    """Integer request counts proportional to 1/rank, summing to ``total``."""
    weights = [1 / r for r in range(1, slots + 1)]
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [max(1, int(x)) for x in raw]
    order = sorted(range(slots), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def percentile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A Beta-weighted mean of all order statistics: it moves smoothly where
    the samples are sparse, where a single order statistic jumps from one
    sample to the next.
    """
    if not values:  # every check failed; the run reports itself incorrect
        return 0.0
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    grid = (np.arange(100 * n) + 0.5) / (100 * n)  # cell midpoints on (0, 1)
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf)])
    cdf /= cdf[-1]
    weights = np.diff(cdf[::100])
    return float(weights @ xs)


# -- answer checks ----------------------------------------------------------------


def main_mismatch(expected: dict, record, mode: str) -> bool:
    """Whether a ``main`` record disagrees with its expected answers."""
    if record.status != "ok":
        return True
    if mode == "canonical":
        return record.conclusion != expected["conclusion"]
    hw = record.witnesses.get("hypothesis", {})
    got = {
        "hypothesis": record.hypothesis,
        "conclusion": record.conclusion,
        "d": hw.get("d"),
        "maximal_count": hw.get("maximal_count"),
        "passing_count": hw.get("passing_count"),
    }
    return got != expected


def task_of(check: str) -> str:
    """Runner task of a record: lemma parts ``lemma-2.1.3`` -> ``lemma-2.1``."""
    return ".".join(check.split(".")[:2])


# -- workloads --------------------------------------------------------------------


class Sweep:
    """A ``run_corpus`` call over a stratified sample, one sample per batch.

    The pool is cut into strata of ``size`` groups of similar reference
    cost; batch b takes the b-th member of each stratum (in a seeded
    order), so batches are disjoint samples with the same mix of costs.
    """

    def __init__(self, workload: str, answers: dict, seed: int):
        self.pool, self.checks, size = SWEEPS[workload]
        self.answers = answers["groups"]
        self.entries = answers["pools"][self.pool]
        self.count = max(1, len(self.entries) // size)
        self.seed = f"{workload}:{seed}"

    def setup(self, gl) -> None:
        rng = random.Random(self.seed)
        strata = cost_strata(self.entries, self.count)
        for stratum in strata:
            rng.shuffle(stratum)
        nbatches = max(len(s) for s in strata)
        self.batches = []
        for b in range(nbatches):
            names = [s[b % len(s)][0] for s in strata]
            texts = [relabelled_text(n, self.answers[n], rng) for n in names]
            self.batches.append([gl.parse_group_file(t) for t in texts])

    def run(self, gl, unit: int, tracer: Tracer | None = None,
            clock=time.perf_counter) -> dict:
        """Sweep batch ``unit``; returns its timing, answers and checks."""
        if tracer is not None:
            tracer.current_request = unit + 1
        batch = self.batches[unit % len(self.batches)]
        corpus = [gl.NamedGroup(gf.name, gf.to_group()) for gf in batch]
        expected = self._expected(batch)
        t0 = clock()
        try:
            report = gl.run_corpus(
                corpus, checks=[self.checks], mode="exists", parallelism=1
            )
            text = report.render("text")
        except Exception as exc:  # a failed batch counts every record it owed
            elapsed = clock() - t0
            print(f"# error: batch {unit}: {exc!r}", file=sys.stderr)
            return {"elapsed": elapsed, "attempted": len(expected),
                    "failed": len(expected), "latencies": [], "digest": None}
        elapsed = clock() - t0
        failed = 0
        tasks: dict = {}
        seen = set()
        for r in report.records:
            key = (r.check, r.group, r.prime)
            want = expected.get(key)
            seen.add(key)
            if want is None:
                failed += 1
            elif self.checks == "main":
                failed += main_mismatch(want, r, "exists")
            else:
                failed += r.status != want
            tkey = (task_of(r.check), r.group, r.prime)
            tasks[tkey] = tasks.get(tkey, 0.0) + r.elapsed
        failed += len(set(expected) - seen)
        return {
            "elapsed": elapsed,
            "attempted": len(expected),
            "failed": failed,
            "latencies": list(tasks.values()),
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        }

    def _expected(self, batch) -> dict:
        out = {}
        for gf in batch:
            entry = self.answers[gf.name]
            if self.checks == "main":
                for p, modes in entry["main"].items():
                    out[("main", gf.name, int(p))] = modes["exists"]
            else:
                for check, status in entry["lemmas"].items():
                    out[(check, gf.name, None)] = status
        return out


class Stream:
    """Closed loop, one client: each request is group-file text, a prime and
    a mode, run as parse_group_file -> to_group -> verify_main."""

    def __init__(self, workload: str, answers: dict, seed: int):
        self.answers = answers["groups"]
        self.pools = answers["pools"]
        self.seed = f"{workload}:{seed}"

    def setup(self, gl) -> None:
        self.rng = random.Random(self.seed)
        self.slots: list[tuple[list, int]] = []
        for pool, (npop, nreq, nsingle) in STREAM_CLASSES.items():
            strata = cost_strata(self.pools[pool], npop + nsingle)
            random.Random(pool).shuffle(strata)
            for stratum in strata:
                self.rng.shuffle(stratum)
            quotas = zipf_quotas(npop, nreq) + [1] * nsingle
            self.slots.extend(zip(strata, quotas))
        self.rounds = []
        self.rounds.append(self._round())

    def _round(self) -> list[tuple]:
        reqs = []
        for stratum, quota in self.slots:
            name, p, mode, _cost = stratum[len(self.rounds) % len(stratum)]
            text = relabelled_text(name, self.answers[name], self.rng)
            reqs += [(text, name, p, mode)] * quota
        self.rng.shuffle(reqs)
        return reqs

    def run(self, gl, unit: int, tracer: Tracer | None = None,
            clock=time.perf_counter) -> dict:
        """Send round ``unit``; returns latencies and answer checks."""
        while len(self.rounds) <= unit:
            self.rounds.append(self._round())
        starts, latencies, outcomes = [], [], []
        failed = 0
        for text, name, p, mode in self.rounds[unit]:
            if tracer is not None:
                tracer.current_request += 1
            t0 = clock()
            starts.append(t0)
            try:
                gf = gl.parse_group_file(text)
                record = gl.verify_main(
                    gf.to_group(), p, gl.HypothesisMode(mode), group_name=gf.name
                )
            except Exception as exc:
                latencies.append(clock() - t0)
                print(f"# error: {name} p={p} {mode}: {exc!r}", file=sys.stderr)
                failed += 1
                outcomes.append(None)
                continue
            latencies.append(clock() - t0)
            expected = self.answers[name]["main"][str(p)][mode]
            failed += main_mismatch(expected, record, mode)
            outcomes.append((record.hypothesis, record.conclusion, record.status))
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        return {
            "elapsed": sum(latencies),
            "attempted": len(latencies),
            "failed": failed,
            "latencies": latencies,
            "starts": starts,
            "digest": digest,
        }


WORKLOADS = {"sweep-main": Sweep, "sweep-lemmas": Sweep, "check-stream": Stream}


# -- running ----------------------------------------------------------------------


def import_grouplab():
    """Import grouplab afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "grouplab"]:
        del sys.modules[name]
    gl = importlib.import_module("grouplab")
    if os.path.dirname(os.path.abspath(gl.__file__)) != os.path.join(SRC, "grouplab"):
        raise ImportError(f"grouplab imported from {gl.__file__}, not {SRC}")
    return gl


def environment(gl, workload: str, seed: int) -> str:
    caps = " ".join(
        f"{cap}={getattr(gl.errors, cap, 'absent')}"
        for cap in ("DEFAULT_ENUM_CAP", "DEFAULT_TABLE_CAP", "DEFAULT_LATTICE_CAP")
    )
    return (
        f"# env nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"workload={workload} seed={seed} {caps}"
    )


def timed_setup(cls, workload: str, answers: dict, seed: int, tracer=None,
                clock=time.perf_counter):
    """Import plus input generation; returns (seconds, library, workload)."""
    t0 = clock()
    gl = import_grouplab()
    if tracer is not None:
        tracer.install(gl)
    job = cls(workload, answers, seed)
    job.setup(gl)
    elapsed = clock() - t0
    if tracer is not None:
        tracer.uninstall()
    return elapsed, gl, job


def measure(workload: str, answers: dict, seed: int, seconds: float):
    """Untraced run: the end-to-end metrics.

    Every time is scaled by the speed gauge's factor over the stretch of the
    run it was measured in (see ``speed.py``): a set-up, a stream request,
    or a sweep batch, whose per-check times come from the library.
    """
    cls = WORKLOADS[workload]
    gauge = SpeedGauge()
    gauge.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = gauge.clock()
            elapsed, gl, job = timed_setup(cls, workload, answers, seed,
                                           clock=gauge.clock)
            setups.append((t0, elapsed))
        print(environment(gl, workload, seed))
        # the answer table and the inputs live for the whole run: keep them
        # out of the collections the library's own garbage triggers
        gc.collect()
        gc.freeze()
        results, spans = [], []
        start = time.perf_counter()
        last = 0.0
        while not results or time.perf_counter() - start + last <= seconds:
            gc.collect()  # each unit starts without the last one's garbage
            t0 = time.perf_counter()
            u0 = gauge.clock()
            results.append(job.run(gl, len(results), clock=gauge.clock))
            spans.append((u0, gauge.clock()))
            last = time.perf_counter() - t0
        time.sleep(PAD_S)  # probes after the last request
    finally:
        gauge.stop()
    # determinism gate: unit 0 again, on fresh groups, untimed
    replay = job.run(gl, 0)
    same = results[0]["digest"] is not None and replay["digest"] == results[0]["digest"]
    attempted = sum(r["attempted"] for r in results + [replay])
    failed = sum(r["failed"] for r in results + [replay])
    timed = sum(r["attempted"] for r in results)

    setup_s = [dt * gauge.factor(t0, t0 + dt) for t0, dt in setups]
    latencies, busy = [], 0.0
    for r, (u0, u1) in zip(results, spans):
        if "starts" in r:  # stream: each request by its own stretch
            lat = [dt * gauge.factor(t0, t0 + dt)
                   for t0, dt in zip(r["starts"], r["latencies"])]
            busy += sum(lat)
        else:
            f = gauge.factor(u0, u1)
            lat = [dt * f for dt in r["latencies"]]
            busy += r["elapsed"] * f
        latencies += lat
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "instances_per_s": (timed / busy, "1/s"),
        "checks_per_s": (len(latencies) / busy, "1/s"),
        "check_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "check_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_latencies = [t for r in results for t in r["latencies"]]
    raw_busy = sum(r["elapsed"] for r in results)
    print(f"# units={len(results)} checks={len(latencies)} probes={len(gauge.samples)} "
          f"unit_s={[round(r['elapsed'], 3) for r in results]} "
          f"factors={[round(gauge.factor(*span), 3) for span in spans]} "
          f"setups_s={[round(dt, 4) for _, dt in setups]}")
    print(f"# unscaled: setup_s {statistics.median(dt for _, dt in setups):.6g} "
          f"instances_per_s {timed / raw_busy:.6g} "
          f"checks_per_s {len(raw_latencies) / raw_busy:.6g} "
          f"check_p50_ms {percentile(raw_latencies, 50) * 1000:.6g} "
          f"check_p90_ms {percentile(raw_latencies, 90) * 1000:.6g}")
    print(f"# determinism: {'ok' if same else 'MISMATCH'} digest={results[0]['digest']}")
    return attempted, failed, same, metrics


def measure_traced(workload: str, answers: dict, seed: int, label: str):
    """Traced run: each unit untraced, then traced; the per-layer metrics."""
    tracer = Tracer()
    _, gl, job = timed_setup(WORKLOADS[workload], workload, answers, seed, tracer)
    print(environment(gl, workload, seed))
    gc.collect()
    gc.freeze()
    attempted = failed = 0
    plain = traced = 0.0
    same = True
    for unit in range(TRACE_UNITS):
        a = job.run(gl, unit)
        tracer.install(gl)
        try:
            b = job.run(gl, unit, tracer)
        finally:
            tracer.uninstall()
        same &= a["digest"] is not None and a["digest"] == b["digest"]
        plain += a["elapsed"]
        traced += b["elapsed"]
        attempted += a["attempted"] + b["attempted"]
        failed += a["failed"] + b["failed"]
    tracer.write(os.path.join(HERE, "out", f"{label}.spans.npz"))
    overhead = traced / plain - 1
    metrics = layer_metrics(tracer, overhead)
    print(f"# tracing overhead: untraced {plain:.3f} s, traced {traced:.3f} s, "
          f"ratio {overhead:+.3f} over {TRACE_UNITS} units")
    print(f"# traced answers equal untraced: {'ok' if same else 'MISMATCH'}")
    return attempted, failed, same, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="grouplab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "grouplab")):
        print(f"grouplab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "answers.json"), encoding="utf-8") as fh:
        answers = json.load(fh)
    if args.trace:
        label = f"{args.workload}-seed{args.seed}"
        attempted, failed, same, metrics = measure_traced(
            args.workload, answers, args.seed, label
        )
    else:
        attempted, failed, same, metrics = measure(
            args.workload, answers, args.seed, args.seconds
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    correct = failed == 0 and same
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
