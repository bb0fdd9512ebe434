"""Exception types, default size caps and the one size threshold shared
across the library.

Every cap is an explicit, overridable number.  Operations that would blow
past a cap raise instead of silently degrading; callers that can degrade
(e.g. the verification runner) catch ``CapExceededError`` and record a skip.
"""

DEFAULT_ENUM_CAP = 10_000
"""Largest group order for which elements are listed one by one, by coset
enumeration; a larger group's order and membership come from a stabilizer
chain.  It also bounds the dense multiplication table, which is built on
the element index: n^2 int32 entries, 400 MB at 10,000."""

DEFAULT_LATTICE_CAP = 400
"""Largest group order for which the full subgroup lattice is built."""

DEFAULT_TABLE_CAP = 2048
"""Largest group order whose normal closures, and for a p-group P its
Frattini subgroup, Burnside basis and maximal subgroups, are built on a
multiplication table (G's for a Sylow subgroup P of G); above it, or above
the group's enumeration cap, ``normal_closure`` and the p-group frame work
on generators and need neither G's element list nor its table.  A
threshold, not a cap: nothing raises on it."""

DEFAULT_FAMILY_LIMIT = 100_000
"""Most maximal-subgroup families enumerated per p-group."""


class GroupError(Exception):
    """Base class for all errors raised by grouplab."""


class DegreeMismatchError(GroupError):
    """Permutations of different degrees were combined."""


class InvalidPermutationError(GroupError):
    """Image array is not a bijection of the point set."""


class NotASubgroupError(GroupError):
    """An operand was required to be a subgroup (or member) and is not."""


class NotNormalError(GroupError):
    """A quotient was requested by a non-normal subgroup."""


class NotAPGroupError(GroupError):
    """A p-group-only operation was applied to a group of mixed order."""


class CapExceededError(GroupError):
    """A size cap would be exceeded.

    Attributes:
        cap: the configured limit.
        size: the offending size, when known.
    """

    def __init__(self, message: str, cap: int, size: int | None = None):
        super().__init__(message)
        self.cap = cap
        self.size = size


class EnumerationCapError(CapExceededError):
    """Group too large to enumerate element by element."""


class LatticeCapError(CapExceededError):
    """Group too large for full subgroup-lattice construction."""


class CycleFormatError(GroupError, ValueError):
    """Malformed cycle notation or group file."""
