"""What a `dtab` call and a bare package import load, and the package's
lazily resolved names."""

import importlib
import os
import subprocess
import sys

import pytest

import domino_tableaux
from domino_tableaux.insertion import pair_serialize, rs

# every name the package exported when its __init__ imported every module
PUBLIC_NAMES = sorted(
    """
    Coloring Cycle Domino DominoTableau OperatorDomainReport
    OperatorUndefinedError OrbitalResult Partition PipelineStallError
    SUITE_NAMES SignedPerm TableauError TableauPair VerificationReport
    all_cycles all_sdt apply_generator candidate_moves compose count_sdt
    cycle_of deserialize dominates enumerate_group equal_length_domain
    extended_cycle format_partition format_perm from_json_dict generator
    identity inverse is_orbit_partition is_special left_descents length
    make_tableau move_through move_through_extended move_through_set
    orbit_collapse orbit_dual orbit_of orbital_tableau pair_deserialize
    pair_from_json_dict pair_serialize pair_to_json_dict parse_partition
    parse_perm partitions_of render right_descents rs rs_inverse serialize
    special_projection transpose type_d_domain unequal_length_domain
    verify_suite wall_cross_equal_length wall_cross_type_d
    wall_cross_unequal_length
    """.split()
)
# the library above partitions and signed_perm; each module imports only
# earlier ones and those two.  --help and count load none of it, rs the
# first two
ABOVE_PARTITIONS = [
    "domino_tableaux." + name
    for name in ("tableau", "insertion", "cycles", "operators", "pipeline", "enumeration")
]
# a pair in the domain of the unequal-length operator
OP_PAIR = pair_serialize(rs((-1, 2, 3), "C"))


def _python(*args):
    """Run a fresh interpreter on this checkout's package."""
    src = os.path.dirname(os.path.dirname(domino_tableaux.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def _dtab_imports(*argv):
    """Exit code, stdout and the modules first imported by `dtab argv`,
    read from ``-X importtime``."""
    out = _python("-X", "importtime", "-m", "domino_tableaux.cli", *argv)
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in out.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return out.returncode, out.stdout, modules


def test_package_import_loads_no_submodule():
    out = _python(
        "-c",
        "import sys, domino_tableaux\n"
        "print(sorted(m for m in sys.modules if m.startswith('domino_tableaux.')))",
    )
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (["--help"], [], ["dataclasses", *ABOVE_PARTITIONS]),
        (
            ["count", "--type", "C", "[2,2]"],
            ["domino_tableaux.partitions"],
            ["dataclasses", *ABOVE_PARTITIONS],
        ),
        (
            ["rs", "--type", "C", "2 -1"],
            ABOVE_PARTITIONS[:2],
            ["dataclasses", *ABOVE_PARTITIONS[2:]],
        ),
        (
            ["orbital", "--type", "C", "2 1"],
            [*ABOVE_PARTITIONS[:3], "domino_tableaux.pipeline"],
            ["dataclasses", "domino_tableaux.operators", "domino_tableaux.enumeration"],
        ),
        (
            ["op", "unequal-length", OP_PAIR],
            ABOVE_PARTITIONS[:4],
            ["dataclasses", "domino_tableaux.pipeline", "domino_tableaux.enumeration"],
        ),
        (
            ["verify", "--type", "C", "rs-bijection", "--n", "2"],
            ABOVE_PARTITIONS,
            ["dataclasses"],
        ),
    ],
)
def test_dtab_loads_only_the_layers_its_command_runs(argv, loaded, absent):
    code, stdout, modules = _dtab_imports(*argv)
    assert code == 0 and stdout
    assert set(loaded) <= modules
    assert not modules & set(absent)


def test_the_library_loads_no_dataclasses():
    # enumeration imports every other module of the library
    out = _python(
        "-c",
        "import sys, domino_tableaux.enumeration\n"
        "print(sorted(m for m in sys.modules if m.startswith('domino_tableaux.')))\n"
        "print('dataclasses' in sys.modules)",
    )
    assert out.returncode == 0, out.stderr
    loaded, dataclasses_loaded = out.stdout.splitlines()
    library = ["domino_tableaux.partitions", "domino_tableaux.signed_perm", *ABOVE_PARTITIONS]
    assert loaded == repr(sorted(library))
    assert dataclasses_loaded == "False"


def test_exports_are_the_public_names():
    assert sorted(domino_tableaux.__all__) == PUBLIC_NAMES
    assert dir(domino_tableaux) == domino_tableaux.__all__


def test_every_export_resolves_to_its_module_binding():
    for module, names in domino_tableaux._EXPORTS.items():
        owner = importlib.import_module(f"domino_tableaux.{module}")
        for name in names:
            assert getattr(domino_tableaux, name) is getattr(owner, name), name


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from domino_tableaux import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == domino_tableaux.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        domino_tableaux.no_such_name
    assert not hasattr(domino_tableaux, "_no_such_private_name")
