"""Permutations of the point set {1..n}.

Internally points are 0-based indices into an image tuple; all cycle
*strings* (parsing and printing) use the conventional 1-based form, e.g.
``"(1 2 3)(4 5)"``, with ``"()"`` for the identity.

Composition convention, used everywhere in this library:

    (a * b)(x) = b(a(x))

i.e. products act left to right: ``a`` first, then ``b``.
"""

from __future__ import annotations

import math
import re
from functools import total_ordering
from typing import Iterable, Sequence

from .errors import CycleFormatError, DegreeMismatchError, InvalidPermutationError

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


@total_ordering
class Permutation:
    """An immutable bijection of {0..degree-1}, ordered lexicographically."""

    __slots__ = ("images", "_hash")

    images: tuple[int, ...]

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise InvalidPermutationError(
                    f"images {images!r} are not a bijection of 0..{n - 1}"
                )
            seen[v] = True
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        # unpickling goes through __init__, so the images are validated again
        return (Permutation, (self.images,))

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        # products and inverses of valid permutations need no re-validation
        self = object.__new__(cls)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))
        return self

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build from disjoint cycles given with 1-based points.

        Raises CycleFormatError for points outside 1..degree or repeated
        points (within one cycle or across cycles: disjoint form required).
        """
        images = list(range(degree))
        used: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
            for pt in cycle:
                if not isinstance(pt, int) or not 1 <= pt <= degree:
                    raise CycleFormatError(
                        f"point {pt!r} outside 1..{degree}"
                    )
                if pt in used:
                    raise CycleFormatError(f"repeated point {pt} in cycles")
                used.add(pt)
            for i, pt in enumerate(cycle):
                images[pt - 1] = cycle[(i + 1) % len(cycle)] - 1
        return cls(images)

    @classmethod
    def parse(cls, degree: int, text: str) -> "Permutation":
        """Parse 1-based disjoint cycle notation, e.g. ``"(1 2 3)(4 5)"``.

        ``"()"`` denotes the identity.  Points are separated by whitespace
        or commas.
        """
        stripped = text.strip()
        if not stripped:
            raise CycleFormatError("empty permutation string")
        consumed = _CYCLE_RE.sub("", stripped).strip()
        if consumed:
            raise CycleFormatError(f"malformed cycle notation {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(stripped):
            body = body.replace(",", " ").strip()
            if not body:
                continue
            try:
                cycle = [int(tok) for tok in body.split()]
            except ValueError:
                raise CycleFormatError(f"malformed cycle {body!r}") from None
            cycles.append(cycle)
        return cls.from_cycles(degree, cycles)

    # -- core arithmetic ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: ``(a * b)(x) = b(a(x))``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise DegreeMismatchError(
                f"degree {len(self.images)} vs {len(other.images)}"
            )
        b = other.images
        return Permutation._unchecked(tuple(b[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation._unchecked(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(len(self.images))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self, g: "Permutation") -> "Permutation":
        """Return ``g^-1 * self * g``."""
        return g.inverse() * self * g

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.images else 1

    def apply(self, point: int) -> int:
        """Image of a 0-based point."""
        return self.images[point]

    # -- cycle structure ---------------------------------------------------

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles as 0-based tuples, each starting at its least
        point, sorted by least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cur, cycle = start, []
            while not seen[cur]:
                seen[cur] = True
                cycle.append(cur)
                cur = self.images[cur]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        """1-based disjoint cycle form; ``"()"`` for the identity."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join(
            "(" + " ".join(str(pt + 1) for pt in c) + ")" for c in cycles
        )

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation.parse({len(self.images)}, {self.cycle_string()!r})"

    def __str__(self) -> str:
        return self.cycle_string()


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Product under the library convention: apply ``a`` first, then ``b``."""
    return a * b
