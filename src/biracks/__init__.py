"""Finite augmented biracks and their link invariants.

Core objects: AugmentedBirack (validated permutation tables with derived
inverse maps, kink map, and characteristic), LinkDiagram (semiarc-level
signed crossing lists for classical and virtual links), Cochain2 and
LaurentPolynomial (weight data and invariant values), plus exact integer
homology of the birack chain complex, read from the invariant factors of
its boundary maps.  Errors and the less used types live in their modules:
biracks.errors.InputError marks unusable input.
"""

from .algebra import (
    AugmentedBirack,
    check_axioms,
    cycle_notation,
    format_birack,
    from_matrix,
    from_tables,
    matrix_to_tables,
    parse_birack,
    tsr_birack,
)
from .data import (
    available_biracks,
    available_cochains,
    available_diagrams,
    load_birack,
    load_cochain,
    load_diagram,
)
from .diagram import (
    Crossing,
    LinkDiagram,
    add_positive_kink,
    canonical_relabel,
    from_crossings,
    parse_crossing_list,
    parse_gauss,
    render_crossing_list,
    render_gauss,
    reverse_component,
)
from .homology import (
    Cochain1,
    Cochain2,
    boundary_matrix,
    boundary_of_tuple,
    cohomology_group,
    degenerate_generators,
    evaluate_coboundary,
    format_cochain,
    homology_group,
    is_reduced_2_cocycle,
    reduced_2_cocycles,
    reduced_2_cohomology,
    reduced_cocycle_constraints,
    tuple_basis,
)
from .invariants import (
    LaurentPolynomial,
    cocycle_invariant,
    counting_invariant,
    framed_invariants,
)
from .linalg import (
    IntegerMatrix,
    kernel_lattice,
    smith_normal_form,
)

__version__ = "0.1.0"
