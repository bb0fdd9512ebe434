"""Permutation arithmetic and the group engine.

Walks through cycle notation, the composition convention, membership
testing, and quotient groups realized as permutation groups on cosets.
"""

from grouplab import (
    Permutation,
    compose,
    group_from_generators,
    is_normal,
    normal_closure,
    normalizer,
    quotient,
    subgroup_generated,
)

# Cycle strings are 1-based; composition is left to right: (a*b)(x) = b(a(x)).
a = Permutation.parse(3, "(1 2)")
b = Permutation.parse(3, "(2 3)")
print("a =", a, " b =", b)
print("a * b =", compose(a, b), "   (apply a first, then b: 1 -> 2 -> 3)")
print("b * a =", compose(b, a))
print("a * a =", a * a, "  (involution squared)")

# Groups are defined by generators.  Up to the element-enumeration cap,
# order and membership come from the element list, built by coset
# enumeration; above it from a stabilizer chain, so they work far beyond
# the cap.
S4 = group_from_generators(4, [Permutation.parse(4, "(1 2)"), Permutation.parse(4, "(1 2 3 4)")])
print("\n|S4| =", S4.order())
print("(1 2 3) in S4:", S4.contains(Permutation.parse(4, "(1 2 3)")))

big = group_from_generators(
    49, [Permutation.from_cycles(49, [range(b * 7 + 1, b * 7 + 8)]) for b in range(7)]
)
print("order of seven commuting 7-cycles:", big.order(), "= 7^7")

# The Klein four-group is normal in S4; the quotient is a regular
# permutation group on the six cosets, isomorphic to S3.
V = subgroup_generated(
    S4, [Permutation.parse(4, "(1 2)(3 4)"), Permutation.parse(4, "(1 3)(2 4)")]
)
print("\nV normal in S4:", is_normal(S4, V))
cm = quotient(S4, V)
print("|S4/V| =", cm.quotient.order(), " degree =", cm.quotient.degree)
x, y = S4.elements()[5], S4.elements()[17]
print("projection is a homomorphism:", cm.project(x * y) == cm.project(x) * cm.project(y))

# Normal closures and normalizers.
H = subgroup_generated(S4, [Permutation.parse(4, "(1 2)")])
print("\n<(1 2)>^S4 has order", normal_closure(S4, H).order())
P3 = subgroup_generated(S4, [Permutation.parse(4, "(1 2 3)")])
print("N_S4(<(1 2 3)>) has order", normalizer(S4, P3).order())
