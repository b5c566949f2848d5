"""Session caches: the heavy objects are built once and shared.

cached_salvetti_homology is the simplicial route: the homology of the
order complex of the Salvetti poset, built by the reference
SimplicialComplex in oracles.py.  It is the independent check on the
cellular route of the package.  On nonpappus (71,656 faces) its Smith
reduction takes a few seconds, against a few hundredths on the cells,
so homology groups and cell posets are memoized here instead of being
recomputed per test.
"""

import pytest

from oracles import homology, order_complex

from omsal.fixtures import generate_fixture
from omsal.salvetti import build_salvetti_poset

_posets = {}
_groups = {}


@pytest.fixture(scope="session")
def om():
    """Spec string -> oriented matroid (generate_fixture already caches)."""
    return generate_fixture


def cached_salvetti_poset(spec):
    if spec not in _posets:
        _posets[spec] = build_salvetti_poset(generate_fixture(spec))
    return _posets[spec]


def cached_salvetti_homology(spec):
    if spec not in _groups:
        _groups[spec] = homology(order_complex(cached_salvetti_poset(spec)))
    return _groups[spec]


@pytest.fixture(scope="session")
def salvetti_poset():
    return cached_salvetti_poset


@pytest.fixture(scope="session")
def salvetti_homology():
    return cached_salvetti_homology
