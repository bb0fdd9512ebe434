"""Command line interface.

Subcommands:

  info <builtin:NAME | file:PATH>
      Order, primes, Sylow orders, generator numbers and class predicates.

  check <group> --prime P [--mode exists|forall|canonical]
      Evaluate the main hypothesis/conclusion on one instance.
      Exit status: 0 consistent, 1 violation, 2 usage or cap error.

  verify --corpus builtin --max-order N --checks main,lemmas,... [options]
      Corpus-wide verification; writes the report to --out or stdout.
      Exit status: 0 no failures, 1 a violation or an error record,
      2 usage error.

Caps are overridable with --enum-cap and --lattice-cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .corpus import NamedGroup, builtin_corpus, corpus_manifest, load_group_file, named_group
from .errors import (
    CapExceededError,
    DEFAULT_ENUM_CAP,
    DEFAULT_LATTICE_CAP,
    GroupError,
)
from .runner import CounterexampleError, run_corpus, with_enum_cap
from .solubility import (
    is_nilpotent,
    is_p_nilpotent,
    is_p_soluble,
    is_p_supersoluble,
    is_soluble,
    is_supersoluble,
)
from .structure import _p_group_frame, all_sylow_subgroups, p_part, primes_of
from .theorems import HypothesisMode, verify_main


def _resolve_group(spec: str, enum_cap: int) -> NamedGroup:
    if spec.startswith("builtin:"):
        ng = named_group(spec.split(":", 1)[1])
    elif spec.startswith("file:"):
        ng = load_group_file(spec.split(":", 1)[1])
    elif os.path.exists(spec):
        ng = load_group_file(spec)
    else:
        ng = named_group(spec)
    if enum_cap != DEFAULT_ENUM_CAP:
        ng = with_enum_cap(ng, enum_cap)
    return ng


def _cmd_info(args) -> int:
    ng = _resolve_group(args.group, args.enum_cap)
    G = ng.group
    print(f"name: {ng.name}")
    print(f"provenance: {ng.provenance}")
    print(f"order: {G.order()}")
    print(f"degree: {G.degree}")
    primes = primes_of(G)
    print(f"primes: {' '.join(map(str, primes)) or '-'}")
    enumerable = G.order() <= G.enum_cap
    for p in primes:
        count = d = "?"
        if enumerable:  # finding a Sylow subgroup enumerates G
            system = all_sylow_subgroups(G, p)
            count = system.count
            d = _p_group_frame(system.representative, G)[3]
        print(f"sylow p={p}: order {p_part(G.order(), p)}, count {count}, d_p {d}")
    if enumerable:
        print(f"soluble: {is_soluble(G)}")
        print(f"nilpotent: {is_nilpotent(G)}")
        print(f"supersoluble: {is_supersoluble(G)}")
        for p in primes:
            print(
                f"p={p}: p-soluble {is_p_soluble(G, p)}, "
                f"p-supersoluble {is_p_supersoluble(G, p)}, "
                f"p-nilpotent {is_p_nilpotent(G, p)}"
            )
    else:
        print("class predicates: skipped (order above enumeration cap)")
    return 0


def _cmd_check(args) -> int:
    ng = _resolve_group(args.group, args.enum_cap)
    record = verify_main(
        ng.group, args.prime, HypothesisMode(args.mode), group_name=ng.name
    )
    print(f"check: main ({args.mode} mode)")
    print(f"group: {ng.name} (order {ng.group.order()})")
    print(f"prime: {args.prime}")
    print(f"hypothesis: {record.hypothesis}")
    print(f"conclusion: {record.conclusion}")
    print(f"violated: {record.violated}")
    print("witnesses: " + json.dumps(record.witnesses, sort_keys=True, default=str))
    return 1 if record.violated else 0


def _cmd_verify(args) -> int:
    if args.corpus != "builtin":
        raise GroupError(f"unknown corpus {args.corpus!r} (only 'builtin' exists)")
    corpus = builtin_corpus(args.max_order)
    if args.enum_cap != DEFAULT_ENUM_CAP:
        corpus = [with_enum_cap(ng, args.enum_cap) for ng in corpus]
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(corpus_manifest(corpus))
    checks = [c for c in args.checks.split(",") if c]
    params = {
        "corpus": "builtin",
        "max_order": args.max_order,
        "checks": args.checks,
        "mode": args.mode,
        "lattice_cap": args.lattice_cap,
    }
    try:
        report = run_corpus(
            corpus,
            checks=checks,
            mode=HypothesisMode(args.mode),
            parallelism=args.jobs,
            lattice_cap=args.lattice_cap,
            witness_path=args.witness,
            params=params,
        )
    except CounterexampleError as e:
        text = e.report.render(args.format)
        _emit(text, args.out)
        print(f"VIOLATION: {e}", file=sys.stderr)
        if args.witness:
            print(f"witness written to {args.witness}", file=sys.stderr)
        return 1
    _emit(report.render(args.format), args.out)
    print(
        f"total={len(report.records)} pass={report.passed} "
        f"fail={report.failed} skip={report.skipped}",
        file=sys.stderr,
    )
    for r in report.errors:
        print(f"ERROR: {r.check} on {r.group}: {r.witnesses['error']}", file=sys.stderr)
    if report.failed and args.witness:
        print(f"witness written to {args.witness}", file=sys.stderr)
    return 1 if report.failed else 0


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouplab",
        description="Finite-group permutability predicates and theorem verification.",
    )
    parser.add_argument(
        "--enum-cap",
        type=int,
        default=DEFAULT_ENUM_CAP,
        help="largest group order enumerated element by element",
    )
    parser.add_argument(
        "--lattice-cap",
        type=int,
        default=DEFAULT_LATTICE_CAP,
        help="largest group order for full subgroup lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a group")
    p_info.add_argument("group", help="builtin:NAME, file:PATH, or a path")
    p_info.set_defaults(func=_cmd_info)

    p_check = sub.add_parser("check", help="evaluate the main check on one group")
    p_check.add_argument("group", help="builtin:NAME, file:PATH, or a path")
    p_check.add_argument("--prime", type=int, required=True)
    p_check.add_argument(
        "--mode",
        choices=[m.value for m in HypothesisMode],
        default=HypothesisMode.EXISTS.value,
    )
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser("verify", help="run checks over a corpus")
    p_verify.add_argument("--corpus", default="builtin")
    p_verify.add_argument("--max-order", type=int, default=60)
    p_verify.add_argument(
        "--checks",
        default="main",
        help="comma list: main,lemmas,corollaries,srinivasan or explicit ids",
    )
    p_verify.add_argument(
        "--mode",
        choices=[m.value for m in HypothesisMode],
        default=HypothesisMode.EXISTS.value,
    )
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", default=None, help="report path (default stdout)")
    p_verify.add_argument("--format", choices=["text", "jsonl"], default="text")
    p_verify.add_argument("--manifest", default=None, help="write corpus manifest here")
    p_verify.add_argument(
        "--witness", default=None, help="path for a counterexample witness file"
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as e:
        print(f"cap error: {e}", file=sys.stderr)
        return 2
    except GroupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
