"""Corpus-wide verification runs, reports, and counterexample handling.

Each group is one chain: its tasks, one per (check, prime), run in a fixed
order through :func:`_run_chain`, which stops at the first violation and
then empties the group's cache.  The chains run in name order, in this
process or in worker processes, which receive the groups themselves
(pickled); a chain touches only its own group, so the records come
out the same either way and are then canonically sorted.  Reports carry
no timing data, which is what makes them byte-identical regardless of the
parallelism level.

A genuine violation is a theorem counterexample: the run aborts with a
serialized witness (the failing group's file, family and failing
product-set data) so the counterexample can be re-checked independently.
Any other exception in a check becomes a failed ``error:<Type>`` record
and the run goes on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

from .corpus import NamedGroup, write_group_file
from .errors import CapExceededError, DEFAULT_LATTICE_CAP, GroupError
from .groups import Group
from .structure import primes_of
from .theorems import (
    HypothesisMode,
    VerificationRecord,
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

CHECK_ALIASES = {
    "main": ("main",),
    "lemmas": ("lemma-2.1", "lemma-2.2", "lemma-2.3", "lemma-2.4"),
    "corollaries": ("cor-4.1", "cor-4.2", "cor-4.3"),
    "srinivasan": ("srinivasan",),
}

# check id -> (one task per prime?, run(G, name, p, mode, lattice_cap) -> records);
# each run looks its verify_* up when called, so a patched one takes effect
_CHECKS = {
    "main": (True, lambda G, name, p, mode, cap: [verify_main(G, p, mode, name)]),
    "lemma-2.1": (False, lambda G, name, p, mode, cap: verify_lemma_2_1(G, name, cap)),
    "lemma-2.2": (False, lambda G, name, p, mode, cap: verify_lemma_2_2(G, name, cap)),
    "lemma-2.3": (False, lambda G, name, p, mode, cap: verify_lemma_2_3(G, name, cap)),
    "lemma-2.4": (False, lambda G, name, p, mode, cap: verify_lemma_2_4(G, name, cap)),
    "cor-4.1": (
        False, lambda G, name, p, mode, cap: verify_corollary_4_1(G, mode, name)
    ),
    "cor-4.2": (
        True, lambda G, name, p, mode, cap: [verify_corollary_4_2(G, p, mode, name)]
    ),
    "cor-4.3": (
        True, lambda G, name, p, mode, cap: [verify_corollary_4_3(G, p, mode, name)]
    ),
    "srinivasan": (False, lambda G, name, p, mode, cap: [verify_srinivasan(G, name)]),
}


class CounterexampleError(GroupError):
    """A check reported a violated record during a corpus run."""

    def __init__(self, record: VerificationRecord, report: "Report"):
        super().__init__(
            f"violation: check {record.check} on {record.group}"
            + (f" at p={record.prime}" if record.prime else "")
        )
        self.record = record
        self.report = report


def expand_checks(tokens) -> list[str]:
    out: list[str] = []
    for token in tokens:
        token = token.strip()
        if token in CHECK_ALIASES:
            out.extend(CHECK_ALIASES[token])
        elif token in _CHECKS:
            out.append(token)
        else:
            raise ValueError(f"unknown check {token!r}")
    if not out:
        raise ValueError("no check requested")
    seen = set()
    return [c for c in out if not (c in seen or seen.add(c))]


@dataclass
class Report:
    params: dict
    records: list[VerificationRecord] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.status == "ok")

    @property
    def failed(self) -> int:
        return len(self.violations) + len(self.errors)

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.records if r.skipped is not None)

    @property
    def violations(self) -> list[VerificationRecord]:
        return [r for r in self.records if r.violated]

    @property
    def errors(self) -> list[VerificationRecord]:
        return [r for r in self.records if r.error is not None]

    def _record_fields(self, r: VerificationRecord) -> dict:
        return {
            "check": r.check,
            "group": r.group,
            "prime": r.prime,
            "hypothesis": r.hypothesis,
            "conclusion": r.conclusion,
            "status": r.status,
            "witness": r.witnesses,
        }

    def to_text(self) -> str:
        lines = ["# grouplab verification report"]
        lines.append(
            "# " + " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        )
        lines.append("# check group prime hypothesis conclusion status witness")
        for r in self.records:
            wit = json.dumps(r.witnesses, sort_keys=True, default=str)
            if len(wit) > 200:
                wit = wit[:197] + "..."
            lines.append(
                "\t".join(
                    [
                        r.check,
                        r.group,
                        "-" if r.prime is None else str(r.prime),
                        _tf(r.hypothesis),
                        _tf(r.conclusion),
                        r.status,
                        wit,
                    ]
                )
            )
        lines.append(
            f"# total={len(self.records)} pass={self.passed} "
            f"fail={self.failed} skip={self.skipped}"
        )
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        lines = [json.dumps({"params": self.params}, sort_keys=True)]
        for r in self.records:
            lines.append(
                json.dumps(self._record_fields(r), sort_keys=True, default=str)
            )
        lines.append(
            json.dumps(
                {
                    "total": len(self.records),
                    "pass": self.passed,
                    "fail": self.failed,
                    "skip": self.skipped,
                },
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"

    def render(self, fmt: str = "text") -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "jsonl":
            return self.to_jsonl()
        raise ValueError(f"unknown report format {fmt!r}")


def _tf(v) -> str:
    if v is None:
        return "-"
    return "true" if v else "false"


def serialize_witness(ng: NamedGroup, record: VerificationRecord) -> str:
    """Self-contained counterexample witness: the group file plus the full
    record, so the instance can be re-checked independently."""
    head = {
        "check": record.check,
        "group": record.group,
        "prime": record.prime,
        "hypothesis": record.hypothesis,
        "conclusion": record.conclusion,
        "witnesses": record.witnesses,
    }
    return (
        "# grouplab counterexample witness\n"
        + json.dumps(head, indent=2, sort_keys=True, default=str)
        + "\n# group file\n"
        + write_group_file(ng)
    )


def _run_task(key, thunk) -> list[VerificationRecord]:
    """Run one task; a cap overrun becomes a skip and any other exception an
    error record, so one instance can never end the whole run."""
    check, name, prime = key
    try:
        return thunk()
    except CapExceededError as e:
        skipped, error, witnesses = str(e), None, {}
    except Exception as e:
        skipped, error = None, type(e).__name__
        witnesses = {"error": f"{error}: {e}"}
    return [
        VerificationRecord(
            check=check,
            group=name,
            prime=prime or None,
            hypothesis=None,
            conclusion=None,
            skipped=skipped,
            witnesses=witnesses,
            error=error,
        )
    ]


def _run_chain(
    ng: NamedGroup, check_ids, mode: HypothesisMode, lattice_cap: int
) -> list[VerificationRecord]:
    """One group's tasks in (check, prime) order, up to the first violation.

    The group's ``cache`` is emptied afterwards: its entries would only
    pile up while the rest of the corpus runs.
    """
    G, name = ng.group, ng.name
    tasks = sorted(
        (check, p)
        for check in check_ids
        for p in (primes_of(G) if _CHECKS[check][0] else [0])
    )
    out: list[VerificationRecord] = []
    for check, p in tasks:
        run = _CHECKS[check][1]
        batch = _run_task((check, name, p), lambda: run(G, name, p, mode, lattice_cap))
        out.extend(batch)
        if any(r.violated for r in batch):
            break
    G.cache.clear()
    return out


def run_corpus(
    corpus: list[NamedGroup],
    checks=("main",),
    mode: HypothesisMode = HypothesisMode.EXISTS,
    parallelism: int = 1,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
    witness_path: str | None = None,
    params: dict | None = None,
) -> Report:
    """Evaluate the requested checks on every applicable (group, prime).

    Each group is one chain (:func:`_run_chain`); the chains run in name
    order, here or, when ``parallelism`` > 1, in worker processes.  Cap
    overruns are recorded as skips, never as passes; other exceptions as
    failed error records.  The first violation, else the first error, in
    report order, is serialized to ``witness_path`` with the group it came
    from.  On a violation the run aborts (CounterexampleError carries the
    partial report) and cancels the chains still pending in the pool.
    """
    mode = HypothesisMode(mode)
    check_ids = expand_checks(checks)
    if parallelism < 1:
        raise ValueError(f"parallelism must be at least 1, not {parallelism}")
    if lattice_cap < 1:
        raise ValueError(f"lattice_cap must be at least 1, not {lattice_cap}")
    run = partial(_run_chain, check_ids=check_ids, mode=mode, lattice_cap=lattice_cap)
    ordered = sorted(corpus, key=lambda ng: ng.name)
    pool = None
    if parallelism > 1:
        # chains share nothing, so workers run truly in parallel and every
        # cache is filled exactly once; imported here so that importing
        # grouplab loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=parallelism)
    batches = map(run, ordered) if pool is None else pool.map(run, ordered, chunksize=8)
    records: list[VerificationRecord] = []
    owner: dict[int, NamedGroup] = {}
    try:
        # consuming in name order keeps the abort point (and the partial
        # report) deterministic even under parallel execution
        for ng, batch in zip(ordered, batches):
            records += batch
            owner.update((id(r), ng) for r in batch)
            if any(r.violated for r in batch):
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    records.sort(key=lambda r: (r.check, r.group, r.prime or 0))
    report = Report(
        params=params
        or {
            "checks": ",".join(check_ids),
            "mode": mode.value,
            "groups": len(corpus),
        },
        records=records,
    )
    failures = report.violations + report.errors
    if failures:
        record = failures[0]
        if witness_path:
            with open(witness_path, "w", encoding="utf-8") as fh:
                fh.write(serialize_witness(owner[id(record)], record))
        if record.violated:
            raise CounterexampleError(record, report)
    return report


def with_enum_cap(ng: NamedGroup, enum_cap: int) -> NamedGroup:
    """Copy of a named group whose Group carries a custom enumeration cap."""
    g = ng.group
    return NamedGroup(
        ng.name,
        Group(g.degree, g.generators, enum_cap=enum_cap),
        ng.provenance,
    )
