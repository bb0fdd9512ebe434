"""Corpus-wide verification runs, reports, and counterexample handling.

Tasks fan out over (group, prime, check); every task touches only
immutable group data and produces its own records, so results are
aggregated order-independently and then canonically sorted.  Reports carry
no timing data, which is what makes them byte-identical regardless of the
parallelism level.

A genuine violation is a theorem counterexample: the run aborts with a
serialized witness (group file, family and failing product-set data) so
the counterexample can be re-checked independently.  Any other exception
in a check becomes a failed ``error:<Type>`` record and the run goes on.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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

_ALL_CHECKS = tuple(c for group in CHECK_ALIASES.values() for c in group)


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
        elif token in _ALL_CHECKS:
            out.append(token)
        else:
            raise ValueError(f"unknown check {token!r}")
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


def _instance_tasks(
    ng: NamedGroup,
    check: str,
    mode: HypothesisMode,
    lattice_cap: int,
):
    """(sort_key, thunk) pairs for one group and one check id."""
    G = ng.group
    name = ng.name
    tasks = []
    if check == "main":
        for p in primes_of(G):
            tasks.append(
                (
                    (check, name, p),
                    lambda G=G, p=p: [verify_main(G, p, mode, group_name=name)],
                )
            )
    elif check == "lemma-2.1":
        tasks.append(
            ((check, name, 0), lambda: verify_lemma_2_1(G, name, lattice_cap))
        )
    elif check == "lemma-2.2":
        tasks.append(
            ((check, name, 0), lambda: verify_lemma_2_2(G, name, lattice_cap))
        )
    elif check == "lemma-2.3":
        tasks.append(
            ((check, name, 0), lambda: verify_lemma_2_3(G, name, lattice_cap))
        )
    elif check == "lemma-2.4":
        tasks.append(
            ((check, name, 0), lambda: verify_lemma_2_4(G, name, lattice_cap))
        )
    elif check == "srinivasan":
        tasks.append(((check, name, 0), lambda: [verify_srinivasan(G, name)]))
    elif check == "cor-4.1":
        tasks.append(
            ((check, name, 0), lambda: verify_corollary_4_1(G, mode, group_name=name))
        )
    elif check == "cor-4.2":
        for p in primes_of(G):
            tasks.append(
                (
                    (check, name, p),
                    lambda p=p: [verify_corollary_4_2(G, p, mode, group_name=name)],
                )
            )
    elif check == "cor-4.3":
        for p in primes_of(G):
            tasks.append(
                (
                    (check, name, p),
                    lambda p=p: [verify_corollary_4_3(G, p, mode, group_name=name)],
                )
            )
    else:
        raise ValueError(f"unknown check {check!r}")
    return tasks


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
            violated=False,
            skipped=skipped,
            witnesses=witnesses,
            error=error,
        )
    ]


def _chain_spec(ng, check_ids, mode, lattice_cap, abort_on_violation) -> tuple:
    """Picklable description of one group's work (generator images only)."""
    g = ng.group
    return (
        ng.name,
        g.degree,
        tuple(p.images for p in g.generators),
        g.enum_cap,
        tuple(check_ids),
        mode.value,
        lattice_cap,
        abort_on_violation,
    )


def _run_chain_spec(spec) -> list[VerificationRecord]:
    from .perms import Permutation

    (
        name,
        degree,
        gen_images,
        enum_cap,
        check_ids,
        mode_value,
        lattice_cap,
        abort_on_violation,
    ) = spec
    G = Group(degree, [Permutation(im) for im in gen_images], enum_cap)
    ng = NamedGroup(name, G)
    tasks = []
    for check in check_ids:
        tasks.extend(
            _instance_tasks(ng, check, HypothesisMode(mode_value), lattice_cap)
        )
    tasks.sort(key=lambda t: t[0])
    out: list[VerificationRecord] = []
    for key, thunk in tasks:
        out.extend(_run_task(key, thunk))
        if abort_on_violation and any(r.violated for r in out):
            break
    return out


def run_corpus(
    corpus: list[NamedGroup],
    checks=("main",),
    mode: HypothesisMode = HypothesisMode.EXISTS,
    parallelism: int = 1,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
    abort_on_violation: bool = True,
    witness_path: str | None = None,
    params: dict | None = None,
) -> Report:
    """Evaluate the requested checks on every applicable (group, prime).

    Cap overruns are recorded as skips, never as passes; other exceptions
    as failed error records.  The first violation, else the first error, is
    serialized to ``witness_path``.  On a violation the run aborts
    (CounterexampleError carries the partial report) unless
    ``abort_on_violation`` is false.  Each group's ``cache`` is emptied
    once its checks are done, so a run holds one group's caches at a time.
    """
    mode = HypothesisMode(mode)
    check_ids = expand_checks(checks)
    by_name = {ng.name: ng for ng in corpus}
    results: list[list[VerificationRecord]] = []

    def consume(batches) -> None:
        # consuming in canonical group order keeps the abort point (and the
        # partial report) deterministic even under parallel execution
        for batch in batches:
            results.append(batch)
            if abort_on_violation and any(r.violated for r in batch):
                return

    if parallelism > 1:
        # one process per group chain: chains share nothing, so workers
        # run truly in parallel and every cache is filled exactly once
        specs = [
            _chain_spec(ng, check_ids, mode, lattice_cap, abort_on_violation)
            for ng in sorted(corpus, key=lambda ng: ng.name)
        ]
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            consume(pool.map(_run_chain_spec, specs, chunksize=8))
    else:
        chains: dict[str, list] = {}
        for ng in corpus:
            for check in check_ids:
                for key, thunk in _instance_tasks(ng, check, mode, lattice_cap):
                    chains.setdefault(key[1], []).append((key, thunk))
        for chain in chains.values():
            chain.sort(key=lambda t: t[0])

        def run_chain(name: str) -> list[VerificationRecord]:
            out = []
            for key, thunk in chains[name]:
                out.extend(_run_task(key, thunk))
                if abort_on_violation and any(r.violated for r in out):
                    break
            # the group's checks are done: its caches would only pile up
            # while the rest of the corpus runs
            by_name[name].group.cache.clear()
            return out

        consume(run_chain(name) for name in sorted(chains))
    records = [r for batch in results for r in batch]
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
                fh.write(serialize_witness(by_name[record.group], record))
        if record.violated and abort_on_violation:
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
