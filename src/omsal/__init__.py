"""Oriented matroids, Salvetti complexes, and metrical-hemisphere checks.

Exact combinatorial models of pseudohyperplane arrangements: sign-vector
covector sets with axiom verification, face and Salvetti posets, integer
homology, Orlik-Solomon ranks, tope metrics with minimal positive paths,
and the QMH/LMH/MH hierarchy on CW posets.  Everything is exact; no
floating point anywhere.
"""

from .errors import (
    AxiomFailure,
    ComparisonFailure,
    ConsistencyFailure,
    EquivalenceViolation,
    OMError,
    ParseError,
    UnknownFixture,
)
from .signs import SignVector, compose, conforms, separation_mask
from .posets import FinitePoset, is_lattice
from .matroid import (
    Chirotope,
    OrientedMatroid,
    RationalArrangement,
    are_isomorphic,
    cocircuits_from_chirotope,
    from_arrangement,
    span_from_cocircuits,
    verify_axioms,
)
from .homology import HomologyGroup, IntegerChainComplex
from .salvetti import (
    SalvettiCell,
    build_salvetti_poset,
    chain_determination_check,
    f_vector_and_euler,
    nerve_check,
    oriented_one_skeleton,
    retraction_check,
    salvetti_complex,
)
from .osalg import (
    UnderlyingMatroid,
    circuits,
    flats_from_covectors,
    gr_comparison,
    nbc_sets,
)
from .paths import (
    antipodal_extension_check,
    is_simplicial,
    lattice_equivalence_check,
    minimal_positive_paths,
    tope_distance,
    tope_poset,
)
from .mh import (
    CWPoset,
    MHReport,
    cw_from_covers,
    dual_complex,
    mh_check,
    omega_tables,
    salvetti_cw,
    skeleton_distances,
)
from .fixtures import ALL_FIXTURES, FixtureSpec, generate_fixture, parse_fixture_spec

__all__ = (
    "ALL_FIXTURES",
    "AxiomFailure",
    "CWPoset",
    "Chirotope",
    "ComparisonFailure",
    "ConsistencyFailure",
    "EquivalenceViolation",
    "FinitePoset",
    "FixtureSpec",
    "HomologyGroup",
    "IntegerChainComplex",
    "MHReport",
    "OMError",
    "OrientedMatroid",
    "ParseError",
    "RationalArrangement",
    "SalvettiCell",
    "SignVector",
    "UnderlyingMatroid",
    "UnknownFixture",
    "antipodal_extension_check",
    "are_isomorphic",
    "build_salvetti_poset",
    "chain_determination_check",
    "circuits",
    "cocircuits_from_chirotope",
    "compose",
    "conforms",
    "cw_from_covers",
    "dual_complex",
    "f_vector_and_euler",
    "flats_from_covectors",
    "from_arrangement",
    "generate_fixture",
    "gr_comparison",
    "is_lattice",
    "is_simplicial",
    "lattice_equivalence_check",
    "mh_check",
    "minimal_positive_paths",
    "nbc_sets",
    "nerve_check",
    "omega_tables",
    "oriented_one_skeleton",
    "parse_fixture_spec",
    "retraction_check",
    "salvetti_complex",
    "salvetti_cw",
    "separation_mask",
    "skeleton_distances",
    "span_from_cocircuits",
    "tope_distance",
    "tope_poset",
    "verify_axioms",
)
