"""Out-of-tree tracing of the grouplab layers.

The tracer wraps the public functions and methods of each ``grouplab``
module from outside and records one span (name, start, end, parent,
request) per call, in memory.  Each wrapper is bound wherever callers look
the name up: in the defining module, in every module that imported it
(``theorems`` binds ``product_set`` and ``_maximal_data`` at import, for
example) and in the package namespace.  Methods are patched on their class.

``Permutation.__mul__`` is far too hot for a span; it is only counted, and
its time stays in the self time of whichever span called it.  The rest of
``perms`` is not wrapped for the same reason.

A layer's self time is its spans' duration minus the part covered by child
spans, so nested calls are never counted twice.
"""

from __future__ import annotations

import array
import functools
import inspect
import os
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "perms",
    "groups",
    "structure",
    "permutability",
    "solubility",
    "corpus",
    "theorems",
    "runner",
)

PRIVATE_TARGETS = {"structure": ("_maximal_data",)}
"""Private functions worth a span: the hot helpers other layers call."""

PREDICATES = ("is_s_permutable", "is_s_semipermutable", "is_semipermutable")

_MISSING = object()


class _FirstCalls:
    """Remembers which live objects a function has already been called on."""

    def __init__(self):
        self._seen: dict[int, weakref.ref] = {}

    def first(self, obj) -> bool:
        ref = self._seen.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        self._seen[id(obj)] = weakref.ref(obj)
        return True


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        self.current_request = 0
        self.counts: Counter = Counter()
        self._first: dict[str, _FirstCalls] = defaultdict(_FirstCalls)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target of ``package`` (the imported grouplab)."""
        modules = {name: getattr(package, name) for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and layer != "perms" and (
                    not attr.startswith("_")
                    or attr in PRIVATE_TARGETS.get(layer, ())
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)

    def _wrap_class(self, layer: str, cls) -> None:
        if layer == "perms":
            self._patch(cls, "__mul__", self._counted("perms.mul_calls", cls.__mul__))
            return
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                name = f"{layer}.{cls.__name__}.{attr}"
                self._patch(cls, attr, self._wrap(name, obj))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        before, after = _hooks(self, name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end[idx] = clock()
                stack.pop()
                if _is_cap_error(exc) and not getattr(exc, "_traced", False):
                    exc._traced = True  # count each error once, where it starts
                    self.counts["groups.cap_errors"] += 1
                raise
            self.end[idx] = clock()
            stack.pop()
            if after:
                after(args, result, state)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, float] = defaultdict(float)
        names, name_of = self.names, self.name_of
        for i in range(n):
            out[names[name_of[i]]] += end[i] - start[i] - child[i]
        return dict(out)

    def inclusive_times(self) -> dict[str, float]:
        """Span time per name, counting only the outermost of nested calls
        of the same name."""
        out: dict[str, float] = defaultdict(float)
        names, name_of, parent = self.names, self.name_of, self.parent
        for i in range(len(self.start)):
            p = parent[i]
            if p < 0 or name_of[p] != name_of[i]:
                out[names[name_of[i]]] += self.end[i] - self.start[i]
        return dict(out)

    def write(self, path: str) -> None:
        """Write the recorded spans as a compressed NumPy archive."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _is_cap_error(exc: BaseException) -> bool:
    return any(c.__name__ == "CapExceededError" for c in type(exc).__mro__)


def _hooks(tracer: Tracer, name: str):
    """(before, after) callbacks that turn a span into counts.

    ``before(args)`` runs before the call and returns state for
    ``after(args, result, state)``.
    """
    counts = tracer.counts
    first = tracer._first[name]

    def build_counter(key: str | None, attr: str | None = None, size=None):
        # A build is a call that had to compute: the first call on an
        # instance, or, where the lazy attribute exists, a call that found
        # it unset.
        def before(args):
            obj = args[0]
            is_first = first.first(obj)
            state = getattr(obj, attr, _MISSING) if attr else _MISSING
            return is_first if state is _MISSING else state is None

        def after(args, result, built):
            if built and result is not None:
                if key:
                    counts[key] += 1
                if size:
                    counts[size[0]] += size[1](result)

        return before, after

    if name == "groups.Group.order":
        return build_counter("groups.order_builds", "_order")
    if name == "groups.Group.elements":
        return build_counter(
            "groups.elements_builds", "_elements", ("groups.elements_enumerated", len)
        )
    if name == "groups.Group.table":
        return build_counter("groups.table_builds", "_table")
    if name == "solubility.chief_series":
        return build_counter("solubility.chief_builds")
    if name == "structure.lattice_masks":
        return build_counter(None, size=("structure.lattice_subgroups", len))
    if name == "structure._maximal_data":
        return build_counter(
            None, size=("structure.maximals_count", lambda r: len(r[1]))
        )
    if name == "permutability.product_set":

        def after(args, result, state):
            counts["permutability.product_sets"] += 1

        return None, after
    if name.rsplit(".", 1)[-1] in PREDICATES and name.startswith("permutability."):

        def before(args):
            return counts["permutability.product_sets"]

        def after(args, result, product_sets_before):
            counts["permutability.predicate_calls"] += 1
            if counts["permutability.product_sets"] == product_sets_before:
                counts["permutability.predicate_hits"] += 1

        return before, after
    if name.startswith("theorems.verify_"):

        def after(args, result, state):
            counts["theorems.records"] += len(result) if isinstance(result, list) else 1

        return None, after
    return None, None
