"""Cohomology of toric wonderful models over the integers.

The pipeline: a toric arrangement yields a poset of layers; a building
set inside it yields a blowup poset of nested sets; together with a
smooth equal-sign fan this produces a presentation of the integer
cohomology ring of the associated wonderful compactification, verified
three ways: a strong Groebner basis over Z, an exact Smith-normal-form
rank oracle, and an enumeration of admissible monomials.
"""

from .arrangement import (
    Layer,
    ToricArrangement,
    intersect_layers,
    layer_leq,
    name_layers,
    poset_of_layers,
)
from .fan import (
    Fan,
    check_fan,
    check_pseudomanifold,
    equal_sign,
    interior_condition,
    make_fan,
    restrict_fan,
)
from .intlinalg import (
    SNFResult,
    Sublattice,
    annihilator,
    complement_basis,
    hnf,
    hnf_basis,
    lattice_index,
    saturate,
    snf,
)
from .admissible import (
    AdmissibleFunction,
    check_recursion,
    enumerate_am,
    enumerate_b,
    flag_decomposition,
    generating_function,
    is_admissible,
    monomial_to_function,
    peel_down,
)
from .polyring import (
    GroebnerBasis,
    Polynomial,
    VariableTable,
    basis_witness,
    buchberger,
    graded_rank_oracle,
    groebner_witness,
)
from .poset import (
    BlowupPoset,
    BuildingSet,
    NestedSet,
    RankedPoset,
    blowup_at,
    blowup_building,
    contraction,
    deletion,
    g_factors,
    is_building_set,
    is_local_lattice,
    is_well_connected,
    iterated_blowup,
    make_building_set,
    minimal_building_set,
    minimal_well_connected,
    nested_sets,
    select_building,
)
from .presentation import (
    BettiReport,
    ModelPresentation,
    presentation_from_arrangement,
    toric_relations,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
