"""Birack homology: boundary matrices, groups, and the degenerate part."""

from biracks import (
    boundary_matrix,
    boundary_of_tuple,
    degenerate_generators,
    homology_group,
    load_birack,
    tuple_basis,
)

b = load_birack("ab4")

# The chain group C_n is free on n-tuples from {1..size}; the boundary
# deletes one slot at a time, acting by beta before it and alpha after.
print("basis of C_2 starts:", tuple_basis(b.size, 2)[:5])
print("boundary of (1, 2):", boundary_of_tuple(b, (1, 2)))

# d composed with d is zero; check it on actual matrices.
for n in (2, 3):
    lower = boundary_matrix(b, n)
    upper = boundary_matrix(b, n + 1)
    assert (lower @ upper).is_zero()
print("d o d = 0 in degrees 2, 3")

# Integral homology, read off a Smith normal form of the boundaries.
for n in range(4):
    print(f"H_{n} =", homology_group(b, n).describe())

# Mod 2 the ranks grow exactly by the torsion contributions.
print("H_2 with Z_2 coefficients:", homology_group(b, 2, modulus=2).describe())

# Degenerate generators span the subcomplex that the reduced theory
# quotients out; their boundaries stay inside the lower-degree span.
gens = degenerate_generators(b, 2)
print(f"{len(gens)} degenerate 2-generators, first:", gens[0])
