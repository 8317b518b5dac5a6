"""Domino tableau combinatorics for the hyperoctahedral groups.

Signed permutations, standard domino tableaux, the two-tableau insertion
correspondence, cycle moves, wall-crossing operators, and the annealing map
from a group element to the tableau parametrizing its orbital variety.

Names resolve on first use (PEP 562): ``import domino_tableaux`` loads no
submodule, and the first access to an exported name imports the module that
owns it and keeps the value in the package namespace.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports.  Names that no other module calls say why
# they are exported.
_EXPORTS = {
    "cycles": (
        "Coloring",
        "Cycle",
        "all_cycles",
        "cycle_of",
        "extended_cycle",
        "move_through",
        "move_through_extended",
        "move_through_set",
    ),
    "enumeration": (
        "SUITE_NAMES",
        "VerificationReport",
        "all_sdt",
        "verify_suite",
    ),
    "insertion": (
        "TableauPair",
        "pair_deserialize",
        "pair_from_json_dict",
        "pair_serialize",  # the text that pair_deserialize reads back
        "pair_to_json_dict",
        "rs",
        "rs_inverse",
    ),
    "operators": (
        "OperatorDomainReport",
        "OperatorUndefinedError",
        "equal_length_domain",
        "type_d_domain",
        "unequal_length_domain",
        "wall_cross_equal_length",
        "wall_cross_type_d",
        "wall_cross_unequal_length",
    ),
    "partitions": (
        "Partition",
        "count_sdt",
        "dominates",
        "format_partition",
        "is_orbit_partition",
        "is_special",
        "orbit_collapse",
        "orbit_dual",  # the duality whose square fixes exactly the special partitions
        "parse_partition",
        "partitions_of",
        "transpose",
    ),
    "pipeline": (
        "OrbitalResult",
        "PipelineStallError",
        "candidate_moves",
        "orbit_of",  # the element-to-orbit map that the paper computes
        "orbital_tableau",
        "special_projection",
    ),
    "signed_perm": (
        "SignedPerm",
        "apply_generator",
        "compose",
        "enumerate_group",
        "format_perm",
        "generator",  # s_i itself: apply_generator(w, i) is compose(w, generator(i, n))
        "identity",
        "inverse",
        "left_descents",  # the left descent set, right_descents' partner
        "length",  # the Coxeter length, by which descents and the weak order are defined
        "parse_perm",
        "right_descents",
    ),
    "tableau": (
        "Domino",
        "DominoTableau",
        "TableauError",
        "deserialize",
        "from_json_dict",
        "make_tableau",
        "render",
        "serialize",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
