"""Domino tableau combinatorics for the hyperoctahedral groups.

Signed permutations, standard domino tableaux, the two-tableau insertion
correspondence, cycle moves, wall-crossing operators, and the annealing map
from a group element to the tableau parametrizing its orbital variety.
"""

from .cycles import (
    Coloring,
    Cycle,
    all_cycles,
    cycle_of,
    extended_cycle,
    move_through,
    move_through_extended,
    move_through_set,
)
from .enumeration import (
    SUITE_NAMES,
    VerificationReport,
    all_sdt,
    count_sdt,
    verify_suite,
)
from .insertion import (
    TableauPair,
    pair_deserialize,
    pair_from_json_dict,
    pair_serialize,
    pair_to_json_dict,
    rs,
    rs_inverse,
)
from .operators import (
    OperatorDomainReport,
    OperatorUndefinedError,
    equal_length_domain,
    type_d_domain,
    unequal_length_domain,
    wall_cross_equal_length,
    wall_cross_type_d,
    wall_cross_unequal_length,
)
from .partitions import (
    Partition,
    dominates,
    format_partition,
    is_orbit_partition,
    is_special,
    orbit_collapse,
    orbit_dual,
    parse_partition,
    partitions_of,
    transpose,
)
from .pipeline import (
    AnnealStep,
    OrbitalResult,
    PipelineStallError,
    candidate_moves,
    orbit_of,
    orbital_tableau,
    special_projection,
)
from .signed_perm import (
    SignedPerm,
    apply_generator,
    compose,
    enumerate_group,
    format_perm,
    generator,
    identity,
    inverse,
    left_descents,
    length,
    parse_perm,
    right_descents,
)
from .tableau import (
    Domino,
    DominoTableau,
    TableauError,
    deserialize,
    from_json_dict,
    make_tableau,
    render,
    serialize,
    to_json_dict,
)

__version__ = "0.1.0"

# Names that no other module calls say why they are exported.
__all__ = [
    "AnnealStep",
    "Coloring",
    "Cycle",
    "Domino",
    "DominoTableau",
    "OperatorDomainReport",
    "OperatorUndefinedError",
    "OrbitalResult",
    "Partition",
    "PipelineStallError",
    "SUITE_NAMES",
    "SignedPerm",
    "TableauError",
    "TableauPair",
    "VerificationReport",
    "all_cycles",
    "all_sdt",
    "apply_generator",
    "candidate_moves",
    "compose",
    "count_sdt",
    "cycle_of",
    "deserialize",
    "dominates",
    "enumerate_group",
    "equal_length_domain",
    "extended_cycle",
    "format_partition",
    "format_perm",
    "from_json_dict",
    "generator",
    "identity",
    "inverse",
    "is_orbit_partition",
    "is_special",
    "left_descents",  # the left descent set, right_descents' partner
    "length",
    "make_tableau",
    "move_through",
    "move_through_extended",
    "move_through_set",
    "orbit_collapse",
    "orbit_dual",  # the duality whose square fixes exactly the special partitions
    "orbit_of",
    "orbital_tableau",
    "pair_deserialize",
    "pair_from_json_dict",
    "pair_serialize",  # the text that pair_deserialize reads back
    "pair_to_json_dict",
    "parse_partition",
    "parse_perm",
    "partitions_of",
    "render",
    "right_descents",
    "rs",
    "rs_inverse",
    "serialize",
    "special_projection",
    "transpose",
    "type_d_domain",
    "unequal_length_domain",
    "verify_suite",
    "wall_cross_equal_length",
    "wall_cross_type_d",
    "wall_cross_unequal_length",
]
