"""Round trips for the five file formats and the command-line reports."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import dense_boundary_matrix, order_complex, write_dense_matrix_text

from omsal import fileio, matroid
from omsal.cli import main
from omsal.errors import AxiomFailure, ConsistencyFailure, ParseError
from omsal.fixtures import cw_octagon_chords, fixture_arrangement, parse_fixture_spec
from omsal.homology import IntegerChainComplex
from omsal.matroid import are_isomorphic, from_arrangement
from omsal.mh import cw_from_covers, mh_check
from omsal.salvetti import build_salvetti_poset, f_vector_and_euler


# -- .arr ------------------------------------------------------------------


def test_arrangement_round_trip():
    arr = fixture_arrangement(parse_fixture_spec("generic:4:3"))
    text = fileio.emit_arrangement(arr)
    back = fileio.parse_arrangement(text)
    assert back.l == arr.l
    assert back.normals == arr.normals
    assert fileio.emit_arrangement(back) == text


def test_arrangement_keeps_exact_fractions():
    text = "rank 2\n1/3 -2\n0 5/7\n"
    back = fileio.parse_arrangement(text)
    assert fileio.emit_arrangement(back) == text


def test_arrangement_parse_errors():
    with pytest.raises(ParseError, match="<input>:1: expected 'rank"):
        fileio.parse_arrangement("rang 2\n1 0\n")
    with pytest.raises(ParseError, match=":1: bad rank"):
        fileio.parse_arrangement("rank two\n1 0\n")
    with pytest.raises(ParseError, match=":3: expected 2 entries"):
        fileio.parse_arrangement("rank 2\n1 0\n1 2 3\n")
    with pytest.raises(ParseError, match=":2:"):
        fileio.parse_arrangement("rank 2\n1 x\n")
    with pytest.raises(ParseError, match="no normals"):
        fileio.parse_arrangement("rank 2\n")
    with pytest.raises(ParseError, match="no content"):
        fileio.parse_arrangement("# nothing here\n")


def test_comments_and_blanks_are_skipped():
    text = "# header\nrank 2\n\n1 0   # x-axis\n0 1\n"
    assert fileio.parse_arrangement(text).n == 2


# -- .cov ------------------------------------------------------------------


def test_covector_round_trip(om):
    m = om("generic:3:2")
    text = fileio.emit_covectors(m)
    back = fileio.parse_covectors(text)
    assert back.covectors == m.covectors
    assert fileio.emit_covectors(back) == text


def test_covector_parse_errors():
    with pytest.raises(ParseError, match=":2: bad sign character"):
        fileio.parse_covectors("++\n+x\n")
    with pytest.raises(ParseError, match=":3: length 3 differs from 2"):
        fileio.parse_covectors("++\n--\n+++\n")
    with pytest.raises(AxiomFailure) as exc:
        fileio.parse_covectors("++\n--\n+-\n-+\n")  # zero vector missing
    assert exc.value.report.first_failure.name == "V0"


# -- .chi ------------------------------------------------------------------


def test_colex_order_frozen():
    assert fileio.colex_subsets(4, 2) == [
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    assert fileio.colex_subsets(5, 3)[:4] == [
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_chirotope_round_trip():
    from omsal.matroid import Chirotope
    arr = fixture_arrangement(parse_fixture_spec("generic:4:3"))
    chi = Chirotope.from_normals(arr)
    text = fileio.emit_chirotope(chi)
    back = fileio.parse_chirotope(text)
    assert back.r == chi.r and back.n == chi.n
    assert fileio.emit_chirotope(back) == text


def test_chirotope_spans_the_three_line_matroid(om):
    from omsal.matroid import cocircuits_from_chirotope, span_from_cocircuits
    chi = fileio.parse_chirotope("chirotope r=2 n=3\n++-\n")
    m = span_from_cocircuits(cocircuits_from_chirotope(chi))
    assert len(m.covectors) == 13
    assert are_isomorphic(m, om("generic:3:2"))[0]


def test_chirotope_signs_may_wrap_lines():
    a = fileio.parse_chirotope("chirotope r=2 n=3\n++-\n")
    b = fileio.parse_chirotope("chirotope r=2 n=3\n+\n+-\n")
    assert a.values == b.values


def test_chirotope_parse_errors():
    with pytest.raises(ParseError, match="expected 'chirotope"):
        fileio.parse_chirotope("chirotope 2 3\n++-\n")
    with pytest.raises(ParseError, match="bad r/n"):
        fileio.parse_chirotope("chirotope r=x n=3\n++-\n")
    with pytest.raises(ParseError, match=":1: need 1 <= r <= n"):
        fileio.parse_chirotope("chirotope r=-1 n=3\n++-\n")
    with pytest.raises(ParseError, match=":1: need 1 <= r <= n"):
        fileio.parse_chirotope("chirotope r=0 n=0\n+\n")
    with pytest.raises(ParseError, match="3 sign characters required"):
        fileio.parse_chirotope("chirotope r=2 n=3\n++\n")
    with pytest.raises(ParseError, match="bad sign character"):
        fileio.parse_chirotope("chirotope r=2 n=3\n+?-\n")


# -- .poset ------------------------------------------------------------------


def test_salvetti_poset_round_trip(om):
    poset = build_salvetti_poset(om("generic:3:2"))
    text = fileio.emit_salvetti_poset(poset)
    back = fileio.parse_salvetti_poset(text)
    assert back.elements == poset.elements
    assert set(back.covers()) == set(poset.covers())
    assert f_vector_and_euler(back) == ((6, 12, 6), 0)
    assert fileio.emit_salvetti_poset(back) == text


def test_salvetti_poset_parse_errors():
    with pytest.raises(ParseError, match=":3: cell line after cover"):
        fileio.parse_salvetti_poset("0 ++ ++\n0 0\n1 0+ ++\n")
    with pytest.raises(ParseError, match="out of range"):
        fileio.parse_salvetti_poset("0 ++ ++\n0 3\n")
    with pytest.raises(ParseError, match="unrecognized line"):
        fileio.parse_salvetti_poset("0 ++ ++ ++\n")
    with pytest.raises(ParseError, match=":1:"):
        fileio.parse_salvetti_poset("x ++ ++\n")
    with pytest.raises(ParseError, match="expected two cell indices"):
        fileio.parse_salvetti_poset("0 ++ ++\n0 x\n")
    with pytest.raises(ParseError,
                       match="^<input>: Euler characteristic 2 != 0$"):
        fileio.parse_salvetti_poset("0 ++ ++\n0 -- --\n")
    with pytest.raises(ParseError, match=r":1: cell \[0\+,\+\+\] of dimension 1 "
                                         "covers 0 cells"):
        fileio.parse_salvetti_poset("1 0+ ++\n0 ++ ++\n")
    with pytest.raises(ParseError, match=":1: covector \\+- is not a face"):
        fileio.parse_salvetti_poset("0 +- --\n")
    with pytest.raises(ParseError, match=":1: .* cannot have dimension 0"):
        fileio.parse_salvetti_poset("0 0+ ++\n")
    with pytest.raises(ParseError, match=":1: .* cannot have dimension 1"):
        fileio.parse_salvetti_poset("1 ++ ++\n")
    with pytest.raises(ParseError, match=":2: duplicate cell"):
        fileio.parse_salvetti_poset("0 ++ ++\n0 ++ ++\n")
    with pytest.raises(ParseError, match=":2: sign vectors of length 3"):
        fileio.parse_salvetti_poset("0 ++ ++\n0 +++ +++\n")
    with pytest.raises(ParseError, match=":5: .* is not a facet of"):
        fileio.parse_salvetti_poset("0 ++ ++\n0 -- --\n1 0+ ++\n0 2\n1 2\n")


# -- .cw ------------------------------------------------------------------


def test_cw_round_trip_preserves_witnesses():
    q = cw_octagon_chords(True)
    text = fileio.emit_cw(q)
    back = fileio.parse_cw(text)
    assert back.f_vector() == q.f_vector()
    assert fileio.emit_cw(back) == text
    assert mh_check(back).lmh.witness == mh_check(q).lmh.witness


def test_cw_parse_errors():
    with pytest.raises(ParseError, match="duplicate cell"):
        fileio.parse_cw("cell a dim 0\ncell a dim 0\n")
    with pytest.raises(ParseError, match="unknown cell 'b'"):
        fileio.parse_cw("cell a dim 0\ncover a b\n")
    with pytest.raises(ParseError, match="bad dimension"):
        fileio.parse_cw("cell a dim x\n")
    with pytest.raises(ParseError, match="unrecognized line"):
        fileio.parse_cw("cells a dim 0\n")
    with pytest.raises(ParseError, match="<input>: no 0-cells"):
        fileio.parse_cw("cell a dim 1\n")
    with pytest.raises(ParseError, match="<input>: 1-cell e has endpoints"):
        fileio.parse_cw("cell a dim 0\ncell b dim 0\ncell e dim 1\n"
                        "cover a e\n")
    with pytest.raises(ParseError, match=r"<input>: face a \(dim 0\) under e"):
        fileio.parse_cw("cell a dim 0\ncell e dim 0\ncover a e\n")


def test_cw_emit_rejects_unwritable_labels():
    q = cw_from_covers([("a b", 0)], [])
    with pytest.raises(ConsistencyFailure, match="not writable"):
        fileio.emit_cw(q)
    q = cw_from_covers([(1, 0), ("1", 0), ("e", 1)],
                       [(1, "e"), ("1", "e")])
    with pytest.raises(ConsistencyFailure, match="collide"):
        fileio.emit_cw(q)


# -- format dispatch -----------------------------------------------------------


def test_load_dispatches_on_suffix(tmp_path, om):
    m = om("generic:3:2")
    arr = fixture_arrangement(parse_fixture_spec("generic:3:2"))
    cov = tmp_path / "g.cov"
    cov.write_text(fileio.emit_covectors(m))
    arrf = tmp_path / "g.arr"
    arrf.write_text(fileio.emit_arrangement(arr))
    chif = tmp_path / "g.chi"
    from omsal.matroid import Chirotope
    chif.write_text(fileio.emit_chirotope(Chirotope.from_normals(arr)))
    loaded = [fileio.load_oriented_matroid(p) for p in (cov, arrf, chif)]
    assert all(x.covectors == m.covectors for x in loaded)
    bad = tmp_path / "g.xyz"
    bad.write_text("whatever\n")
    with pytest.raises(ParseError, match="unknown input format"):
        fileio.load_oriented_matroid(bad)
    with pytest.raises(ParseError, match="No such file"):
        fileio.parse_covectors(tmp_path / "missing.cov")


# -- command line ---------------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_verify_pass(capsys):
    code, out, err = run(capsys, "verify", "--fixture", "generic:3:2")
    assert code == 0 and err == ""
    assert out == ("V0 pass\nV1 pass\nV2 pass\nV3 pass\n"
                   "covectors=13 rank=2 topes=6\nresult: pass\n")


def test_cli_verify_axiom_failure(capsys, tmp_path):
    bad = tmp_path / "bad.cov"
    bad.write_text("++\n--\n+-\n-+\n")
    code, out, err = run(capsys, "verify", "--in", str(bad))
    assert code == 1
    assert out.startswith("V0 FAIL")
    assert out.endswith("result: FAIL\n")


def test_cli_verify_needs_a_subject(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 2 and out == ""
    assert "ParseError" in err


def test_cli_salvetti_summary(capsys):
    code, out, err = run(capsys, "salvetti", "--fixture", "generic:3:2")
    assert (code, out) == (0, "f=(6,12,6) χ=0\n")
    code, out, _ = run(capsys, "salvetti", "--fixture", "generic:3:2",
                       "--f-vector")
    assert out == "f=(6,12,6)\n"
    code, out, _ = run(capsys, "salvetti", "--fixture", "generic:3:2",
                       "--euler")
    assert out == "χ=0\n"


def test_cli_salvetti_emit_and_reload(capsys, tmp_path):
    code, out, err = run(capsys, "salvetti", "--fixture", "boolean:2", "--emit")
    assert code == 0
    f = tmp_path / "b2.poset"
    f.write_text(out)
    code, out2, _ = run(capsys, "salvetti", "--in", str(f))
    assert (code, out2) == (0, "f=(4,8,4) χ=0\n")


def test_cli_homology(capsys):
    code, out, _ = run(capsys, "homology", "--fixture", "generic:3:2")
    assert code == 0
    assert out == "H_0: Z\nH_1: Z^3\nH_2: Z^2\nbetti=(1,3,2)\n"


def test_cli_homology_dumps_matrices(capsys, tmp_path):
    # the dump keeps the boundaries of the order complex, not the cells
    d = tmp_path / "mats"
    code, out, _ = run(capsys, "homology", "--fixture", "generic:4:3",
                       "--dump-matrices", str(d))
    assert code == 0
    assert out == "H_0: Z\nH_1: Z^4\nH_2: Z^6\nH_3: Z^3\nbetti=(1,4,6,3)\n"
    names = sorted(p.name for p in d.iterdir())
    assert names == ["boundary_1.txt", "boundary_2.txt", "boundary_3.txt"]
    shapes = []
    for name in names:
        rows = (d / name).read_text().splitlines()
        assert len({len(r.split()) for r in rows}) == 1
        shapes.append((len(rows), len(rows[0].split())))
    assert shapes == [(124, 1180), (1180, 2400), (2400, 1344)]


@pytest.mark.parametrize("spec", ["boolean:2", "generic:3:2", "generic:4:3"])
def test_cli_homology_dump_matches_dense_writer(capsys, tmp_path, spec,
                                                salvetti_poset):
    d = tmp_path / "mats"
    code, _, _ = run(capsys, "homology", "--fixture", spec,
                     "--dump-matrices", str(d))
    assert code == 0
    chain = order_complex(salvetti_poset(spec)).chain_complex()
    assert len(list(d.iterdir())) == len(chain.dims) - 1
    for k in range(1, len(chain.dims)):
        dense = tmp_path / f"dense_{k}.txt"
        write_dense_matrix_text(dense_boundary_matrix(chain, k), dense)
        assert (d / f"boundary_{k}.txt").read_bytes() == dense.read_bytes()


NONPAPPUS_HOMOLOGY = "H_0: Z\nH_1: Z^9\nH_2: Z^28\nH_3: Z^20\nbetti=(1,9,28,20)\n"
NONPAPPUS_GR = ("deg  os  H_k\n  0   1    1\n  1   9    9\n  2  28   28\n"
                "  3  20   20\nmatch\n")


def test_cli_homology_and_gr_compare_skip_the_order_complex(capsys,
                                                            monkeypatch):
    def refuse(cls, faces_by_dim):
        raise AssertionError("simplicial boundaries assembled")

    monkeypatch.setattr(IntegerChainComplex, "from_faces", classmethod(refuse))
    assert run(capsys, "homology", "--fixture", "nonpappus") == \
        (0, NONPAPPUS_HOMOLOGY, "")
    assert run(capsys, "gr-compare", "--fixture", "nonpappus") == \
        (0, NONPAPPUS_GR, "")


def test_cli_homology_of_an_emitted_poset(capsys, tmp_path):
    code, text, _ = run(capsys, "salvetti", "--fixture", "generic:4:3",
                        "--emit")
    f = tmp_path / "g43.poset"
    f.write_text(text)
    from_file = run(capsys, "homology", "--in", str(f))
    assert from_file == run(capsys, "homology", "--fixture", "generic:4:3")
    assert from_file[:2] == \
        (0, "H_0: Z\nH_1: Z^4\nH_2: Z^6\nH_3: Z^3\nbetti=(1,4,6,3)\n")


def test_cli_homology_of_a_non_cw_poset_is_bad_input(capsys, tmp_path):
    # boolean:2 without the cover of cell 12 on its facet 4: the poset
    # still parses, but vertex 0 now lies in one facet of cell 12
    code, text, _ = run(capsys, "salvetti", "--fixture", "boolean:2", "--emit")
    assert "\n4 12\n" in text
    bad = tmp_path / "bad.poset"
    bad.write_text(text.replace("\n4 12\n", "\n"))
    assert run(capsys, "salvetti", "--in", str(bad))[0] == 0
    proc = subprocess.run([sys.executable, "-m", "omsal", "homology", "--in",
                           str(bad)], capture_output=True, text=True,
                          cwd=str(Path(__file__).parent.parent))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"ParseError: {bad}: face 0 lies in 1 facets "
                           "of cell 12\n")


def test_cli_os_betti(capsys):
    code, out, _ = run(capsys, "os-betti", "--fixture", "generic:3:2")
    assert (code, out) == (0, "os-betti=(1,3,2)\nbroken-circuit: {2,3}\n")


def test_cli_gr_compare(capsys):
    code, out, _ = run(capsys, "gr-compare", "--fixture", "braid:3")
    assert code == 0
    assert out.splitlines()[0] == "deg  os  H_k"
    assert out.splitlines()[-1] == "match"


def test_cli_mh_check(capsys):
    code, out, _ = run(capsys, "mh-check", "--fixture", "boolean:2")
    assert code == 0
    assert out == ("dual: qmh: pass; lmh: pass; mh: pass\n"
                   "salvetti: qmh: pass; lmh: pass; mh: pass\n")
    code, out, _ = run(capsys, "mh-check", "--fixture", "boolean:2",
                       "--complex", "dual")
    assert out == "dual: qmh: pass; lmh: pass; mh: pass\n"


def test_cli_mh_check_cw_failure(capsys, tmp_path):
    f = tmp_path / "oct.cw"
    f.write_text(fileio.emit_cw(cw_octagon_chords(False)))
    code, out, _ = run(capsys, "mh-check", "--in", str(f))
    assert code == 1
    assert out.startswith("cw: qmh: pass; lmh: pass; mh: FAIL at ('upper'")


def test_cli_topes(capsys):
    code, out, _ = run(capsys, "topes", "--fixture", "generic:3:2")
    assert (code, out) == (0, "topes=6\n+++\n++-\n+--\n-++\n--+\n---\n")


def test_cli_tope_poset(capsys):
    code, out, _ = run(capsys, "topes", "--fixture", "boolean:2",
                       "--poset", "--base", "++")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "base=++"
    # separation sets from ++ form the Boolean lattice on two walls
    assert lines[1:] == ["++ +-", "++ -+", "+- --", "-+ --"]


def test_cli_paths(capsys):
    code, out, _ = run(capsys, "paths", "--fixture", "generic:3:2",
                       "--from", "+++", "--to=---")
    assert code == 0
    assert out == ("distance=3\npaths=2\n"
                   "[0++,+++] [-0+,-++] [--0,--+]\n"
                   "[++0,+++] [+0-,++-] [0--,+--]\n")
    code, out, _ = run(capsys, "paths", "--fixture", "generic:3:2",
                       "--from", "+++", "--to", "+++")
    assert out == "distance=0\npaths=1\n(empty)\n"


def test_cli_paths_rejects_non_topes(capsys):
    code, out, err = run(capsys, "paths", "--fixture", "generic:3:2",
                         "--from", "+0+", "--to=---")
    assert code == 2
    assert "NotATope" in err


def test_cli_isomorphic(capsys, tmp_path):
    code, out, _ = run(capsys, "isomorphic", "--fixture", "braid:3",
                       "--other", "generic:3:2")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "isomorphic: yes"
    assert lines[1].startswith("perm=(") and lines[2].startswith("flips=(")
    code, out, _ = run(capsys, "isomorphic", "--fixture", "boolean:2",
                       "--other", "generic:3:2")
    assert (code, out) == (1, "isomorphic: no\n")
    f = tmp_path / "other.cov"
    f.write_text("000\n" )
    code, out, err = run(capsys, "isomorphic", "--fixture", "boolean:2",
                         "--other-in", str(f))
    assert code == 1  # the one-covector subject is a valid OM, not isomorphic
    code, out, err = run(capsys, "isomorphic", "--fixture", "boolean:2")
    assert code == 2 and "ParseError" in err


def test_cli_gen_formats(capsys, om, tmp_path):
    code, out, _ = run(capsys, "gen", "--fixture", "generic:3:2")
    assert code == 0
    assert out == fileio.emit_covectors(om("generic:3:2"))
    code, out, _ = run(capsys, "gen", "--fixture", "generic:3:2",
                       "--format", "chi")
    assert (code, out) == (0, "chirotope r=2 n=3\n+++\n")
    code, out, _ = run(capsys, "gen", "--fixture", "nonpappus",
                       "--format", "chi")
    assert code == 0 and out.startswith("chirotope r=3 n=9\n")
    code, out, err = run(capsys, "gen", "--fixture", "nonpappus",
                         "--format", "arr")
    assert code == 2 and "UnknownFixture" in err
    # file passthrough re-emits canonically
    f = tmp_path / "g.arr"
    code, out, _ = run(capsys, "gen", "--fixture", "generic:3:2",
                       "--format", "arr")
    f.write_text(out)
    code, out2, _ = run(capsys, "gen", "--in", str(f), "--format", "arr")
    assert out2 == out
    code, _, err = run(capsys, "gen", "--in", str(f), "--format", "chi")
    assert code == 2 and "UnknownFixture" in err


def test_cli_json_payloads(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--json", "--fixture", "boolean:2")
    data = json.loads(out)
    assert code == 0
    assert data["command"] == "verify" and data["result"] == "pass"
    assert data["checks"] == {"V0": True, "V1": True, "V2": True, "V3": True}
    assert data["covectors"] == 9

    code, out, _ = run(capsys, "salvetti", "--json", "--fixture", "generic:3:2")
    data = json.loads(out)
    assert data["f_vector"] == [6, 12, 6] and data["euler"] == 0

    f = tmp_path / "oct.cw"
    f.write_text(fileio.emit_cw(cw_octagon_chords(False)))
    code, out, _ = run(capsys, "mh-check", "--json", "--in", str(f))
    data = json.loads(out)
    assert code == 1
    wit = data["complexes"]["cw"]["witness"]
    assert wit[0] == "upper" and wit[1] == "v1"

    bad = tmp_path / "bad.cov"
    bad.write_text("++\n--\n")
    code, out, _ = run(capsys, "verify", "--json", "--in", str(bad))
    data = json.loads(out)
    assert code == 1 and data["result"] == "fail"
    assert data["checks"]["V0"] is False

    code, out, _ = run(capsys, "verify", "--json", "--in",
                       str(tmp_path / "nope.cov"))
    data = json.loads(out)
    assert code == 2 and data["kind"] == "input-error"


def test_cli_input_errors(capsys):
    code, out, err = run(capsys, "verify", "--fixture", "wat:9")
    assert code == 2 and "UnknownFixture" in err
    code, out, err = run(capsys, "verify", "--fixture", "boolean:99")
    assert code == 2 and "EnumerationLimitExceeded" in err


def test_cli_bad_chirotope_header_is_bad_input(tmp_path):
    bad = tmp_path / "bad.chi"
    bad.write_text("chirotope r=-1 n=3\n++-\n")
    proc = subprocess.run([sys.executable, "-m", "omsal", "verify", "--in",
                           str(bad)], capture_output=True, text=True,
                          cwd=str(Path(__file__).parent.parent))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"ParseError: {bad}:1: need 1 <= r <= n in " \
                          "'chirotope r=-1 n=3'\n"


@pytest.mark.parametrize("text", ["0 ++ ++\n0 -- --\n", "1 0+ ++\n0 ++ ++\n"],
                         ids=["euler-2", "edge-without-faces"])
def test_cli_malformed_poset_is_bad_input(tmp_path, text):
    bad = tmp_path / "bad.poset"
    bad.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "omsal", "salvetti", "--in",
                           str(bad)], capture_output=True, text=True,
                          cwd=str(Path(__file__).parent.parent))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"ParseError: {bad}")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_cli_malformed_cw_is_bad_input(tmp_path):
    bad = tmp_path / "bad.cw"
    bad.write_text("cell a dim 0\ncell e dim 0\ncover a e\n")
    proc = subprocess.run([sys.executable, "-m", "omsal", "mh-check", "--in",
                           str(bad)], capture_output=True, text=True,
                          cwd=str(Path(__file__).parent.parent))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"ParseError: {bad}: face a (dim 0)")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_cli_complex_with_cw_input_is_bad_input(tmp_path):
    cw = tmp_path / "edge.cw"
    cw.write_text("cell a dim 0\ncell b dim 0\ncell e dim 1\n"
                  "cover a e\ncover b e\n")
    proc = subprocess.run([sys.executable, "-m", "omsal", "mh-check", "--in",
                           str(cw), "--complex", "dual"],
                          capture_output=True, text=True,
                          cwd=str(Path(__file__).parent.parent))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"ParseError: --complex dual needs matroid input; "
                           f"{cw} is one CW complex\n")
    assert "Traceback" not in proc.stderr


def test_cli_paths_on_parallel_elements_is_bad_input(tmp_path):
    # elements 2 and 3 share a hyperplane: one wall crosses both
    arr = tmp_path / "parallel.arr"
    arr.write_text("rank 2\n1 0\n0 1\n0 2\n")
    proc = subprocess.run([sys.executable, "-m", "omsal", "paths", "--in",
                           str(arr), "--from=+++", "--to=---"],
                          capture_output=True, text=True,
                          cwd=str(Path(__file__).parent.parent))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("NotSimple: elements 2, 3 are parallel: adjacent "
                           "topes +++, +-- differ on all of them\n")
    assert "Traceback" not in proc.stderr


def test_cli_non_integer_cap_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("OM_SALVETTI_MAX_N", "abc")
    code, out, err = run(capsys, "salvetti", "--fixture", "boolean:3",
                         "--f-vector")
    assert code == 2 and out == ""
    assert err == ("EnumerationLimitExceeded: OM_SALVETTI_MAX_N='abc' "
                   "is not an integer\n")


def test_cli_verify_loads_and_verifies_once(capsys, tmp_path, monkeypatch):
    arr = tmp_path / "x.arr"
    arr.write_text(fileio.emit_arrangement(
        fixture_arrangement(parse_fixture_spec("generic:3:2"))))
    calls = []
    real = matroid.verify_axioms

    def counted(covectors):
        calls.append(covectors)
        return real(covectors)

    monkeypatch.setattr(matroid, "verify_axioms", counted)
    code, out, err = run(capsys, "verify", "--in", str(arr))
    assert code == 0 and out.endswith("result: pass\n")
    assert len(calls) == 1


def test_cli_argparse_failures():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["paths", "--fixture", "boolean:2", "--from", "++"])
    assert exc.value.code == 2
