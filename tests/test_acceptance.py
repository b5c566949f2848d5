"""The ten acceptance checks, one test (one pass/fail line) per criterion.

Heavy shared objects come from the session caches in conftest; the
independent brute-force oracles live in oracles.py.
"""

import os
import subprocess
import sys
from pathlib import Path

from cw_complexes import cw_polygon
from oracles import (
    crossed,
    enumerate_covector_strings,
    flip_graph_neighbors,
    geodesic_counts_from,
    separation_set,
    tope_graph_distances,
)

from omsal.fixtures import ALL_FIXTURES, fixture_arrangement, generate_fixture
from omsal.matroid import verify_axioms
from omsal.mh import dual_complex, mh_check, salvetti_cw, skeleton_distances
from omsal.osalg import flats_from_covectors, nbc_sets
from omsal.paths import (
    antipodal_extension_check,
    lattice_equivalence_check,
    minimal_positive_paths,
    tope_distance,
)
from omsal.salvetti import (chain_determination_check, f_vector_and_euler,
                            retraction_check, salvetti_complex)
from omsal.signs import SignVector

from conftest import cached_salvetti_homology


def test_criterion_01_covector_axioms():
    # every shipped fixture satisfies V0-V3; dropping the zero vector or
    # one tope fails with the right axiom and witness
    for spec in ALL_FIXTURES:
        m = generate_fixture(spec)
        assert m.verify().passes, spec

        no_zero = verify_axioms([x for x in m.covectors if x.support_mask])
        assert not no_zero.passes
        assert no_zero.first_failure.name == "V0"
        assert no_zero.first_failure.witness == (SignVector.zero(m.n),)

        t = m.topes()[-1]
        no_tope = verify_axioms([x for x in m.covectors if x != t])
        assert not no_tope.passes
        assert no_tope.first_failure.name == "V1"
        assert no_tope.first_failure.witness == (-t,)


def test_criterion_02_covector_counts_vs_oracle():
    expected = {"generic:3:2": (13, (1, 6, 6)),
                "generic:4:3": (51, (1, 12, 24, 14))}
    for spec, (count, profile) in expected.items():
        m = generate_fixture(spec)
        assert len(m.covectors) == count
        assert m.height_profile() == profile
        oracle = enumerate_covector_strings(fixture_arrangement(spec).normals)
        assert sorted(str(x) for x in m.covectors) == oracle


def test_criterion_03_salvetti_f_vectors():
    frozen = {"boolean:1": (2, 2), "boolean:2": (4, 8, 4),
              "generic:3:2": (6, 12, 6), "generic:4:3": (14, 48, 48, 14)}
    for spec in ALL_FIXTURES:
        m = generate_fixture(spec)
        fv, euler = f_vector_and_euler(salvetti_complex(m)[0])
        assert euler == 0
        assert fv[0] == fv[-1] == len(m.topes())
        if spec in frozen:
            assert fv == frozen[spec]


def test_criterion_04_homology_matches_os_ranks():
    frozen = {"boolean:1": (1, 1), "boolean:2": (1, 2, 1),
              "generic:3:2": (1, 3, 2), "generic:4:3": (1, 4, 6, 3)}
    for spec in ALL_FIXTURES:
        groups = cached_salvetti_homology(spec)
        betti = tuple(g.betti for g in groups)
        assert all(g.torsion == () for g in groups), spec
        nbc = nbc_sets(flats_from_covectors(generate_fixture(spec))).counts()
        assert betti == nbc, spec
        if spec in frozen:
            assert betti == frozen[spec]


def test_criterion_05_nerve_is_the_order_complex():
    from omsal.salvetti import nerve_check
    for spec in ALL_FIXTURES:
        ok, detail = nerve_check(generate_fixture(spec))
        assert ok, (spec, detail)


def test_criterion_06_mh_structure():
    for spec in ALL_FIXTURES:
        m = generate_fixture(spec)
        for q in (dual_complex(m), salvetti_cw(m)):
            assert mh_check(q).mh.passed, spec
            # local metrics agree with the global one on passing complexes
            table = skeleton_distances(q)
            for cell, local in table.local_d.items():
                for pair, d in local.items():
                    assert table.global_d[pair] == d, (spec, cell, pair)
    tri = mh_check(cw_polygon(3)).qmh
    assert not tri.passed and tri.witness == ("v1", "e2", 3)


def test_criterion_07_tope_metrics_and_paths():
    for spec in ALL_FIXTURES:
        m = generate_fixture(spec)
        topes = m.topes()
        strings = [str(t) for t in topes]
        graph_d = tope_graph_distances(m)
        dual_d = skeleton_distances(dual_complex(m)).global_d
        nbrs = flip_graph_neighbors(strings)
        for t in topes:
            _, ways = geodesic_counts_from(nbrs, str(t))
            for s in topes:
                d = tope_distance(m, t, s)
                assert graph_d[t, s] == d == dual_d[(t, s)] == len(separation_set(t, s))
                paths = minimal_positive_paths(m, t, s)
                assert len(paths) == ways[str(s)], (spec, t, s)
                sep = separation_set(t, s)
                for p in paths:
                    steps = crossed(p)
                    assert len(steps) == len(sep) and set(steps) == sep
        assert antipodal_extension_check(m), spec


def test_criterion_08_simplicial_iff_tope_lattices():
    simplicial = {"boolean:1": True, "boolean:2": True, "boolean:3": True,
                  "generic:3:2": True, "braid:3": True,
                  "generic:4:3": False, "generic:5:3": False,
                  "nonpappus": False}
    for spec in ALL_FIXTURES:
        report = lattice_equivalence_check(generate_fixture(spec))
        assert report.simplicial == (report.lattice_witness is None) == simplicial[spec]


def test_criterion_09_retraction_and_chain_determination():
    for spec in ALL_FIXTURES:
        m = generate_fixture(spec)
        for t in m.topes():
            assert retraction_check(m, t), (spec, t)
        assert chain_determination_check(m), spec


def test_criterion_10_cli_determinism(tmp_path):
    driver = Path(__file__).with_name("cli_driver.py")
    runs = []
    for seed in ("0", "104729"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        runs.append(subprocess.run(
            [sys.executable, str(driver), str(tmp_path)],
            capture_output=True, env=env, cwd=str(driver.parent.parent)))
    first, second = runs
    assert first.returncode == 0 and second.returncode == 0, first.stderr
    assert first.stdout and b"$ omsal verify" in first.stdout
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    # the transcript itself is pinned, with the work directory normalised
    golden = driver.with_name("data") / "cli_transcript.txt"
    assert (first.stdout.decode("utf-8").replace(str(tmp_path), "<work>")
            == golden.read_text(encoding="utf-8"))
