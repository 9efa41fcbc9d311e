"""Reduced 2-cocycles: the basis, the quotient, and coboundary shifts."""

from biracks import (
    Cochain1,
    evaluate_coboundary,
    is_reduced_2_cocycle,
    load_birack,
    load_cochain,
    reduced_2_cocycles,
    reduced_2_cohomology,
)

b = load_birack("ab4")

# A reduced 2-cocycle is killed by the coboundary and vanishes on the
# degenerate generators, so its Boltzmann weights ignore framing moves.
# One call gives the lattice basis and its quotient by coboundaries.
basis, quotient = reduced_2_cohomology(b)
print(f"reduced 2-cocycle lattice has rank {len(basis)}")
for phi in basis:
    print("  pairs with coefficient:", phi.pairs())

# The bundled cochain is the first basis vector.
phi = load_cochain("ab4_phi", 4)
assert phi.pairs() == basis[0].pairs()
assert is_reduced_2_cocycle(b, phi)

# Coboundaries of 1-cochains are cocycles too, just useless ones: the
# quotient counts cocycles modulo these.
print("reduced cocycles mod coboundaries:", quotient.describe())

chi1 = Cochain1.chi(b.size, 1)
shifted = phi + evaluate_coboundary(b, chi1)
assert is_reduced_2_cocycle(b, shifted)
print("phi + delta(chi_1) is still reduced; both give equal invariants")

# Over Z_2 the basis can be larger than the integral rank suggests.
mod2 = reduced_2_cocycles(b, modulus=2)
print(f"over Z_2: {len(mod2)} basis elements")
