"""Per-layer metrics, how each is computed from a trace, and which
end-to-end metric on which workload it should move.

``moves`` is the prediction written down before any optimisation: a change
that lowers the layer metric should raise or lower the named end-to-end
metric on the named workload, and leave the others alone.  Later
performance work cites these pairings by metric name.

Times are in seconds, self times except for ``*_incl_s``, and counts are
totals, both over the traced work of one run (see ``run.py``).
"""

from __future__ import annotations

SWEEPS = ("sweep-main", "sweep-lemmas")
ALL = ("sweep-main", "sweep-lemmas", "check-stream")

# name -> (unit, better, spans or counter, moves)
# For "s" metrics the third field lists the span names whose self times are
# summed; a name ending in "." sums every span of that prefix.  Metrics named
# "*_incl_s" sum span times including children instead.  For the other
# metrics the third field is the counter key.
PER_LAYER = {
    "perms.mul_calls": ("count", "lower", "perms.mul_calls",
        {"sweep-main": "instances_per_s", "check-stream": "check_p50_ms"}),
    "groups.order_s": ("s", "lower", ("groups.Group.order",),
        {"sweep-main": "instances_per_s"}),
    "groups.order_builds": ("count", "lower", "groups.order_builds",
        {"sweep-main": "instances_per_s"}),
    "groups.elements_s": ("s", "lower", ("groups.Group.elements",),
        {"check-stream": "check_p90_ms"}),
    "groups.elements_builds": ("count", "lower", "groups.elements_builds",
        {"check-stream": "check_p90_ms"}),
    "groups.elements_enumerated": ("count", "lower", "groups.elements_enumerated",
        {"check-stream": "check_p90_ms"}),
    "groups.indices_of_s": ("s", "lower", ("groups.Group.indices_of", "groups.Group.mask_of"),
        {"check-stream": "check_p90_ms"}),
    "groups.table_s": ("s", "lower", ("groups.Group.table",),
        {"sweep-lemmas": "instances_per_s"}),
    "groups.table_builds": ("count", "lower", "groups.table_builds",
        {"sweep-lemmas": "instances_per_s"}),
    "groups.subgroup_from_mask_s": ("s", "lower",
        ("groups.Group.subgroup_from_mask", "groups.Group.subgroup_from_indices"),
        {"sweep-lemmas": "instances_per_s"}),
    "groups.normalizer_s": ("s", "lower", ("groups.normalizer",),
        {"sweep-lemmas": "instances_per_s"}),
    "groups.quotient_s": ("s", "lower", ("groups.quotient", "groups.CosetMap."),
        {"sweep-lemmas": "instances_per_s"}),
    "groups.cap_errors": ("count", "lower", "groups.cap_errors",
        {w: "error_ratio" for w in ALL}),
    "groups.self_s": ("s", "lower", ("groups.",), {}),
    "solubility.chief_s": ("s", "lower", ("solubility.chief_series",),
        {"sweep-main": "instances_per_s", "sweep-lemmas": "no change"}),
    "solubility.chief_incl_s": ("s", "lower", ("solubility.chief_series",),
        {"sweep-main": "instances_per_s", "sweep-lemmas": "no change"}),
    "solubility.chief_builds": ("count", "lower", "solubility.chief_builds",
        {"sweep-main": "instances_per_s", "sweep-lemmas": "no change"}),
    "solubility.self_s": ("s", "lower", ("solubility.",), {}),
    "structure.sylow_s": ("s", "lower",
        ("structure.sylow_subgroup", "structure.all_sylow_subgroups"),
        {"sweep-main": "instances_per_s"}),
    "structure.normal_s": ("s", "lower",
        ("structure.normal_subgroup_masks", "structure.normal_subgroups",
         "structure.minimal_normal_subgroups"),
        {"sweep-main": "instances_per_s"}),
    "structure.lattice_s": ("s", "lower",
        ("structure.lattice_masks", "structure.all_subgroups"),
        {"sweep-lemmas": "instances_per_s"}),
    "structure.lattice_subgroups": ("count", "lower", "structure.lattice_subgroups",
        {"sweep-lemmas": "instances_per_s"}),
    "structure.maximals_s": ("s", "lower",
        ("structure._maximal_data", "structure.maximal_subgroups_of_p_group"),
        {"check-stream": "check_p50_ms"}),
    "structure.maximals_count": ("count", "lower", "structure.maximals_count",
        {"check-stream": "check_p50_ms"}),
    "structure.self_s": ("s", "lower", ("structure.",), {}),
    "permutability.product_set_s": ("s", "lower", ("permutability.product_set",),
        {"sweep-lemmas": "instances_per_s", "check-stream": "check_p50_ms"}),
    "permutability.product_sets": ("count", "lower", "permutability.product_sets",
        {"sweep-lemmas": "instances_per_s", "check-stream": "check_p50_ms"}),
    "permutability.predicate_s": ("s", "lower",
        ("permutability.is_s_permutable", "permutability.is_s_semipermutable",
         "permutability.is_semipermutable"),
        {"sweep-lemmas": "instances_per_s", "check-stream": "check_p50_ms"}),
    "permutability.predicate_calls": ("count", "lower", "permutability.predicate_calls",
        {"sweep-lemmas": "instances_per_s", "check-stream": "check_p50_ms"}),
    "permutability.predicate_hit_ratio": ("ratio", "higher", None,
        {"sweep-lemmas": "instances_per_s", "check-stream": "check_p50_ms"}),
    "permutability.self_s": ("s", "lower", ("permutability.",), {}),
    "corpus.parse_s": ("s", "lower",
        ("corpus.parse_group_file", "corpus.GroupFile.to_group"),
        {"check-stream": "check_p50_ms", "sweep-main": "setup_s",
         "sweep-lemmas": "setup_s"}),
    "corpus.self_s": ("s", "lower", ("corpus.",), {}),
    "theorems.self_s": ("s", "lower", ("theorems.",),
        {"sweep-lemmas": "instances_per_s"}),
    "theorems.records": ("count", "higher", "theorems.records",
        {"sweep-lemmas": "instances_per_s"}),
    "runner.self_s": ("s", "lower", ("runner.",),
        {w: "instances_per_s" for w in SWEEPS}),
    "runner.render_s": ("s", "lower",
        ("runner.Report.render", "runner.Report.to_text", "runner.Report.to_jsonl"),
        {w: "instances_per_s" for w in SWEEPS}),
    "trace.spans": ("count", "lower", "trace.spans", {}),
    "trace.overhead_ratio": ("ratio", "lower", None, {}),
}


def _sum_times(times: dict[str, float], spans) -> float:
    total = 0.0
    for name, t in times.items():
        for s in spans:
            if name == s or (s.endswith(".") and name.startswith(s)):
                total += t
                break
    return total


def layer_metrics(tracer, overhead: float) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``.

    ``overhead`` is the tracing overhead, which the trace cannot know.
    """
    self_times, inclusive = tracer.self_times(), tracer.inclusive_times()
    counts = dict(tracer.counts, **{"trace.spans": len(tracer.start)})
    calls = counts.get("permutability.predicate_calls", 0)
    derived = {
        "permutability.predicate_hit_ratio": (
            counts.get("permutability.predicate_hits", 0) / calls if calls else 0.0
        ),
        "trace.overhead_ratio": overhead,
    }
    out = {}
    for name, (unit, _better, source, _moves) in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        elif unit == "s":
            times = inclusive if name.endswith("_incl_s") else self_times
            value = _sum_times(times, source)
        else:
            value = counts.get(source, 0)
        out[name] = (value, unit)
    return out
