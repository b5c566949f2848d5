"""Oriented matroids, Salvetti complexes, and metric-hull checks.

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
from .posets import FinitePoset, build_poset, is_lattice
from .matroid import (
    Chirotope,
    OrientedMatroid,
    RationalArrangement,
    are_isomorphic,
    cocircuits_from_chirotope,
    from_arrangement,
    is_simple,
    span_from_cocircuits,
    verify_axioms,
)
from .homology import (
    HomologyGroup,
    IntegerChainComplex,
    smith_normal_form,
)
from .salvetti import (
    SalvettiCell,
    build_salvetti_poset,
    cellular_homology,
    chain_determination_check,
    f_vector_and_euler,
    nerve_check,
    oriented_one_skeleton,
    retraction_check,
)
from .osalg import (
    UnderlyingMatroid,
    circuits,
    flats_from_covectors,
    gr_comparison,
    nbc_sets,
    os_betti,
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
    lmh_check,
    mh_check,
    qmh_check,
    salvetti_cw,
    skeleton_distances,
)
from .fixtures import ALL_FIXTURES, FixtureSpec, generate_fixture, parse_fixture_spec

__all__ = [
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
    "build_poset",
    "build_salvetti_poset",
    "cellular_homology",
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
    "is_simple",
    "is_simplicial",
    "lattice_equivalence_check",
    "lmh_check",
    "mh_check",
    "minimal_positive_paths",
    "nbc_sets",
    "nerve_check",
    "oriented_one_skeleton",
    "os_betti",
    "parse_fixture_spec",
    "qmh_check",
    "retraction_check",
    "salvetti_cw",
    "separation_mask",
    "skeleton_distances",
    "smith_normal_form",
    "span_from_cocircuits",
    "tope_distance",
    "tope_poset",
    "verify_axioms",
]
