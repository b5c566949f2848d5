"""Round trips for the five file formats and the command-line reports."""

import contextlib
import io
import json
import subprocess
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cw_complexes import cw_octagon_chords, emit_cw
from oracles import dense_boundary_matrix, f_vector, order_complex, write_dense_matrix_text

from omsal import fileio, fixtures, matroid, osalg
from omsal.cli import main
from omsal.errors import (AxiomFailure, ConsistencyFailure, DegenerateChirotope,
                          EnumerationLimitExceeded, OMError, ParseError)
from omsal.fixtures import fixture_arrangement, parse_fixture_spec
from omsal.homology import HomologyGroup, IntegerChainComplex
from omsal.limits import DUMP_BYTES_CAP, check_dump_size
from omsal.matroid import are_isomorphic, from_arrangement, verify_axioms
from omsal.mh import cw_from_covers, mh_check
from omsal.posets import FinitePoset
from omsal.salvetti import (SalvettiCell, build_salvetti_poset, f_vector_and_euler,
                            salvetti_complex)
from omsal.signs import SignVector


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


def test_a_str_is_text_and_a_path_is_a_file(tmp_path):
    # "0" is the one covector of the rank-0 matroid on one element, not
    # the name of a file
    m = fileio.parse_covectors("0")
    assert (m.n, m.rank, m.covectors) == (1, 0, {SignVector.from_string("0")})
    f = tmp_path / "point.cov"
    f.write_text("0\n")
    assert fileio.parse_covectors(f).covectors == m.covectors


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


def test_salvetti_poset_round_trip(capsys, tmp_path, om):
    cells, covers = salvetti_complex(om("generic:3:2"))
    text = fileio.emit_salvetti_poset(cells, covers)
    lines = text.splitlines(keepends=True)
    first = len(cells)
    # a repeated cover line is read once: one again in the middle,
    # another at the end
    repeated = lines[:first + 3] + [lines[first + 1]] + lines[first + 3:] \
        + [lines[first]]
    for name, body in (("g32.poset", lines), ("g32rep.poset", repeated)):
        f = tmp_path / name
        f.write_text("".join(body))
        back = salvetti_complex(fileio.parse_salvetti_poset(f))
        assert back == (cells, covers)
        assert f_vector_and_euler(back[0]) == ((6, 12, 6), 0)
        assert run(capsys, "salvetti", "--in", str(f), "--emit") == (0, text, "")
        assert run(capsys, "homology", "--in", str(f)) == \
            (0, "H_0: Z\nH_1: Z^3\nH_2: Z^2\nbetti=(1,3,2)\n", "")


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
    # none of these covector sets holds 0, so V0 fails before any
    # complex is built
    for text in ("0 ++ ++\n0 -- --\n", "1 0+ ++\n0 ++ ++\n", "0 +- --\n",
                 "0 0+ ++\n", "1 ++ ++\n",
                 "0 ++ ++\n0 -- --\n1 0+ ++\n0 2\n1 2\n",
                 "0 ++ ++\n0 -+ -+\n1 0+ ++\n0 2\n1 2\n"):
        with pytest.raises(ParseError,
                           match=r"^<input>: covector axiom V0 FAIL \(00\)$"):
            fileio.parse_salvetti_poset(text)
    with pytest.raises(ParseError, match=":2: duplicate cell"):
        fileio.parse_salvetti_poset("0 ++ ++\n0 ++ ++\n")
    with pytest.raises(ParseError, match=":2: sign vectors of length 3"):
        fileio.parse_salvetti_poset("0 ++ ++\n0 +++ +++\n")
    # a cover line first: no cell is there for it to name
    with pytest.raises(ParseError, match="^<input>:1: cell index out of range$"):
        fileio.parse_salvetti_poset("0 1\n")
    # on the circle of boolean:1, two vertices and two edges: the first
    # failing axiom with its witness, else the line of the first stray
    # cell or cover, else the first missing cell or cover
    b1 = "0 + +\n0 - -\n1 0 +\n1 0 -\n0 2\n0 3\n1 2\n1 3\n"
    for text, message in (
            ("0 + +\n1 0 +\n0 1\n", r": covector axiom V1 FAIL \(\+\)"),
            (b1.replace("1 0 +", "2 0 +"),
             r":3: \[0,\+\] of dimension 2 is not a Salvetti cell"),
            (b1.replace("0 - -", "0 - +"),
             r":2: \[-,\+\] of dimension 0 is not a Salvetti cell"),
            (b1 + "0 1\n", r":9: \[\+,\+\] is not a facet of \[-,-\]"),
            (b1 + "2 0\n", r":9: \[0,\+\] is not a facet of \[\+,\+\]"),
            ("0 + +\n0 - -\n1 0 +\n0 2\n1 2\n",
             r": missing cell \[0,-\] of dimension 1"),
            (b1.replace("1 3\n", ""), r": missing cover \[-,-\] < \[0,-\]")):
        with pytest.raises(ParseError, match=f"^<input>{message}$"):
            fileio.parse_salvetti_poset(text)


def test_salvetti_poset_in_any_cell_order(om):
    m = om("generic:3:2")
    cells, covers = salvetti_complex(m)
    # top cells first, the covers remapped and reversed, five of them twice
    order = sorted(range(len(cells)), key=lambda i: (-cells[i].dim, str(cells[i])))
    at = {i: k for k, i in enumerate(order)}
    lines = [f"{cells[i].dim} {cells[i].covector} {cells[i].tope}" for i in order]
    pairs = [f"{at[i]} {at[j]}" for i, j in reversed(covers)]
    text = "\n".join(lines + pairs + pairs[:5]) + "\n"
    back = fileio.parse_salvetti_poset(text)
    assert back.covectors == m.covectors
    assert salvetti_complex(back) == (cells, covers)


# -- .cw ------------------------------------------------------------------


def test_cw_round_trip_preserves_witnesses():
    q = cw_octagon_chords(True)
    text = emit_cw(q)
    back = fileio.parse_cw(text)
    assert f_vector(back) == f_vector(q)
    assert emit_cw(back) == text
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
    with pytest.raises(ParseError, match="<input>: cell e covers itself"):
        fileio.parse_cw("cell e dim 0\ncover e e\n")


def test_cw_emit_rejects_unwritable_labels():
    q = cw_from_covers([("a b", 0)], [])
    with pytest.raises(ConsistencyFailure, match="not writable"):
        emit_cw(q)
    q = cw_from_covers([(1, 0), ("1", 0), ("e", 1)],
                       [(1, "e"), ("1", "e")])
    with pytest.raises(ConsistencyFailure, match="collide"):
        emit_cw(q)


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


def _assert_builder_contract(rows, shape):
    # what IntegerChainComplex stores as given: nonzero int entries, no
    # empty row, every index inside the shape
    m, n = shape
    for i, r in rows.items():
        assert 0 <= i < m and r
        for j, v in r.items():
            assert 0 <= j < n and type(v) is int and v


@pytest.mark.parametrize("spec", fixtures.ALL_FIXTURES)
def test_boundary_builders_emit_nonzero_ints_and_no_empty_row(capsys,
                                                              monkeypatch,
                                                              tmp_path, spec):
    cells, covers = salvetti_complex(fixtures.generate_fixture(spec))
    cellular = IntegerChainComplex.from_cw_covers([c.dim for c in cells], covers)
    for k in range(1, len(cellular.dims)):
        _assert_builder_contract(cellular.boundaries[k],
                                 cellular.dims[k - 1:k + 1])
    # the dump's own from_faces boundaries, caught on their way to the
    # writer
    dumped = []
    monkeypatch.setattr("omsal.cli.write_matrix_text",
                        lambda rows, path, shape: dumped.append((rows, shape)))
    code, _, _ = run(capsys, "homology", "--fixture", spec,
                     "--dump-matrices", str(tmp_path))
    if spec == "nonpappus":
        # its dump (2.5 GB) is refused, so the builder is called directly
        # on the chains the dump lists
        assert code == 2 and not dumped
        poset = build_salvetti_poset(fixtures.generate_fixture(spec))
        chain = IntegerChainComplex.from_faces(poset.chain_layers())
        dumped = [(chain.boundaries[k], chain.dims[k - 1:k + 1])
                  for k in range(1, len(chain.dims))]
    else:
        assert code == 0
    assert dumped
    for rows, shape in dumped:
        _assert_builder_contract(rows, shape)


def test_cli_refuses_a_dump_over_the_cap_before_writing(capsys, tmp_path,
                                                        monkeypatch):
    def no_chains(self):
        raise AssertionError("a chain was listed")

    monkeypatch.setattr(FinitePoset, "chain_layers", no_chains)
    d = tmp_path / "mats"
    start = time.perf_counter()
    code, out, err = run(capsys, "homology", "--fixture", "nonpappus",
                         "--dump-matrices", str(d))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("EnumerationLimitExceeded: the matrix dump would write at "
                   "least 2545019168 bytes, over the cap of 268435456\n")
    assert not d.exists()


@pytest.mark.parametrize("spec, size", [("generic:4:3", 12_407_840),
                                        ("generic:5:3", 73_570_592),
                                        ("boolean:4", 682_229_760)])
def test_dump_size_is_counted_from_the_down_masks(om, spec, size):
    dims = build_salvetti_poset(om(spec)).chain_counts()
    assert sum(2 * a * b for a, b in zip(dims, dims[1:])) == size
    if size > DUMP_BYTES_CAP:
        with pytest.raises(EnumerationLimitExceeded, match=str(size)):
            check_dump_size(dims)
    else:
        check_dump_size(dims)


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


def test_cli_closes_the_salvetti_covers_only_to_read_masks(capsys, tmp_path,
                                                           monkeypatch, om):
    # FinitePoset.from_covers calls over Salvetti cells, counted per
    # command on a fresh matroid
    closures = []
    real = FinitePoset.from_covers.__func__

    def counted(cls, elements, pairs):
        if elements and isinstance(elements[0], SalvettiCell):
            closures.append(len(elements))
        return real(cls, elements, pairs)

    monkeypatch.setattr(FinitePoset, "from_covers", classmethod(counted))
    f = tmp_path / "g32.poset"
    f.write_text(fileio.emit_salvetti_poset(*salvetti_complex(om("generic:3:2"))))
    fixture, poset_file = ("--fixture", "generic:5:3"), ("--in", str(f))
    dump = ("homology", "--dump-matrices")
    expected = [(cmd + subject, 0)
                for cmd in (("homology",), ("salvetti", "--f-vector"),
                            ("salvetti", "--emit"))
                for subject in (fixture, poset_file)]
    expected += [(("gr-compare",) + fixture, 0),
                 (("mh-check", "--complex", "salvetti") + fixture, 1),
                 (dump + (str(tmp_path / "a"),) + poset_file, 1),
                 (dump + (str(tmp_path / "b"), "--fixture", "generic:3:2"), 1)]
    for argv, count in expected:
        monkeypatch.setattr(fixtures, "_cache", {})
        closures.clear()
        assert (run(capsys, *argv)[0], len(closures)) == (0, count), argv


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
    # boolean:2 without the cover of cell 12 on its facet 4: the cells
    # are all there, so the file names the cover it lacks
    code, text, _ = run(capsys, "salvetti", "--fixture", "boolean:2", "--emit")
    assert "\n4 12\n" in text
    bad = tmp_path / "bad.poset"
    bad.write_text(text.replace("\n4 12\n", "\n"))
    for command in ("salvetti", "homology"):
        proc = subprocess.run([sys.executable, "-m", "omsal", command, "--in",
                               str(bad)], capture_output=True, text=True,
                              cwd=str(Path(__file__).parent.parent))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"ParseError: {bad}: missing cover "
                               "[+0,++] < [00,++]\n")


POSET_G43_COMMANDS = (("verify",), ("os-betti",), ("gr-compare",), ("mh-check",),
                      ("topes",), ("gen", "--format", "cov"))


@pytest.mark.parametrize("command", POSET_G43_COMMANDS)
def test_every_command_reads_a_poset_as_its_matroid(capsys, tmp_path, command):
    m = fixtures.generate_fixture("generic:4:3")
    poset, cov = tmp_path / "g43.poset", tmp_path / "g43.cov"
    poset.write_text(fileio.emit_salvetti_poset(*salvetti_complex(m)))
    cov.write_text(fileio.emit_covectors(m))
    code, out, err = run(capsys, *command, "--in", str(poset))
    assert (code, err) == (0, "")
    assert out and out == run(capsys, *command, "--in", str(cov))[1]


def test_cli_homology_of_the_point_poset(capsys, tmp_path):
    # the complex of rank 0: one element, a loop, and one cell
    f = tmp_path / "point.poset"
    f.write_text("0 0 0\n")
    assert run(capsys, "homology", "--in", str(f)) == (0, "H_0: Z\nbetti=(1)\n", "")
    assert run(capsys, "salvetti", "--in", str(f)) == (0, "f=(1) χ=1\n", "")


def test_cli_os_betti(capsys):
    code, out, _ = run(capsys, "os-betti", "--fixture", "generic:3:2")
    assert (code, out) == (0, "os-betti=(1,3,2)\nbroken-circuit: {2,3}\n")


def test_cli_gr_compare(capsys):
    code, out, _ = run(capsys, "gr-compare", "--fixture", "braid:3")
    assert code == 0
    assert out.splitlines()[0] == "deg  os  H_k"
    assert out.splitlines()[-1] == "match"


@pytest.mark.parametrize("os_ranks, betti, torsion, message", [
    ((1, 4, 2), None, (), "degree 1: os rank 4 != homology rank 3"),
    (None, (1, 3, 2), (2,), "torsion (2,) in degree 1"),
    ((1, 3, 3), (1, 3, 3), (), "os ranks do not alternate to zero"),
], ids=["rank", "torsion", "alternation"])
def test_cli_gr_compare_failure_is_a_check_failure(capsys, monkeypatch, os_ranks,
                                                   betti, torsion, message):
    # the nbc counts or the groups are patched to disagree on generic:3:2
    if os_ranks:
        table = osalg.NbcTable((), tuple((frozenset(),) * b for b in os_ranks))
        monkeypatch.setattr(osalg, "nbc_sets", lambda u, order=None: table)
    if betti:
        groups = [HomologyGroup(b, torsion if k == 1 else ())
                  for k, b in enumerate(betti)]
        monkeypatch.setattr(IntegerChainComplex, "homology", lambda self: groups)
    argv = ("gr-compare", "--fixture", "generic:3:2")
    assert run(capsys, *argv) == (1, f"ComparisonFailure: {message}\n", "")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"command": "gr-compare", "error": message,
                               "kind": "check-failure"}


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
    f.write_text(emit_cw(cw_octagon_chords(False)))
    code, out, _ = run(capsys, "mh-check", "--in", str(f))
    assert code == 1
    assert out.startswith("cw: qmh: pass; lmh: pass; mh: FAIL at ('upper'")


@pytest.mark.parametrize("text, message", [
    ("cell a dim 0\ncell b dim 1\ncover a b\ncover b a\n",
     "antisymmetry fails on ('a', 'b')"),
    ("cell a dim 0\ncell b dim 0\n",
     "no path of 1-cells joins the vertices a and b"),
], ids=["cyclic-covers", "disconnected"])
def test_cli_mh_check_cw_refusals_are_parse_errors(capsys, tmp_path, text, message):
    # every refusal of a .cw file names the file, as the parser's own do
    f = tmp_path / "bad.cw"
    f.write_text(text)
    assert run(capsys, "mh-check", "--in", str(f)) == \
        (2, "", f"ParseError: {f}: {message}\n")
    code, out, err = run(capsys, "mh-check", "--in", str(f), "--json")
    assert (code, err) == (2, "")
    assert json.loads(out) == {"command": "mh-check", "error": f"{f}: {message}",
                               "kind": "input-error"}


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


def test_cli_names_the_all_minus_tope_of_two_elements(capsys):
    # argparse hands the attached value "--" (--to=--) to the command as []
    for ends in (("--from", "++", "--to=--"), ("--from=--", "--to", "++")):
        code, out, _ = run(capsys, "paths", "--fixture", "boolean:2", *ends)
        assert (code, out.splitlines()[:2]) == (0, ["distance=2", "paths=2"])
    code, out, _ = run(capsys, "topes", "--fixture", "boolean:2",
                       "--poset", "--base=--")
    assert (code, out.splitlines()[0]) == (0, "base=--")


@pytest.mark.parametrize("argv", [
    ("topes", "--fixture", "boolean:2", "--poset", "--base="),
    ("paths", "--fixture", "boolean:2", "--from=", "--to", "++"),
    ("paths", "--fixture", "boolean:2", "--from", "++", "--to="),
])
def test_cli_empty_tope_value_is_a_parse_error(capsys, argv):
    # an empty tope is bad input, not the first tope and not a nameless non-tope
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "ParseError: bad sign string '': empty\n")


BOTH_SUBJECTS = "ParseError: --fixture and --in both given; pass one\n"
DROPPED_OPTIONS = [
    (("topes", "--fixture", "boolean:2", "--base=xyz"),
     "ParseError: --base needs --poset\n"),
    (("topes", "--fixture", "boolean:2", "--base", "++"),
     "ParseError: --base needs --poset\n"),
    (("salvetti", "--fixture", "boolean:2", "--emit", "--f-vector"),
     "ParseError: --emit prints the poset; drop --f-vector and --euler\n"),
    (("salvetti", "--fixture", "boolean:2", "--emit", "--euler"),
     "ParseError: --emit prints the poset; drop --f-vector and --euler\n"),
    (("salvetti", "--fixture", "boolean:2", "--emit", "--f-vector", "--euler"),
     "ParseError: --emit prints the poset; drop --f-vector and --euler\n"),
    (("isomorphic", "--fixture", "boolean:2", "--other", "boolean:2",
      "--other-in", "missing.cov"),
     "ParseError: --other and --other-in both given; pass one\n"),
    (("mh-check", "--fixture", "boolean:2", "--in", "missing.cw"), BOTH_SUBJECTS),
    (("verify", "--fixture=", "--in", "missing.cov"), BOTH_SUBJECTS),
] + [((command, "--fixture", "boolean:2", "--in", "missing.cov") + rest,
      BOTH_SUBJECTS)
     for command, rest in [("verify", ()), ("salvetti", ()), ("homology", ()),
                           ("os-betti", ()), ("gr-compare", ()), ("mh-check", ()),
                           ("topes", ()), ("paths", ("--from=++", "--to=--")),
                           ("isomorphic", ("--other", "boolean:2")), ("gen", ())]]


@pytest.mark.parametrize("argv, message", DROPPED_OPTIONS,
                         ids=[" ".join(argv) for argv, _ in DROPPED_OPTIONS])
def test_cli_refuses_an_option_it_would_drop(capsys, monkeypatch, tmp_path,
                                             argv, message):
    # one line on stderr, no output and no file opened: each path named
    # here is missing, so a run that read it would fail another way
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", message)


def test_cli_empty_dump_directory_is_a_parse_error(capsys, monkeypatch, tmp_path):
    # refused before the subject is loaded, so nothing is written
    def no_subject(args):
        raise AssertionError("the subject was loaded")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("omsal.cli._load_subject", no_subject)
    code, out, err = run(capsys, "homology", "--fixture", "boolean:2",
                         "--dump-matrices=")
    assert (code, out, err) == \
        (2, "", "ParseError: bad --dump-matrices directory '': empty\n")
    assert not list(tmp_path.iterdir())


def test_cli_dumps_into_a_directory_named_dashes(capsys, monkeypatch, tmp_path):
    # argparse hands the attached value "--" to the command as []
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "homology", "--fixture", "boolean:2",
                     "--dump-matrices=--")
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "--").iterdir()) == \
        ["boundary_1.txt", "boundary_2.txt"]


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


@pytest.mark.parametrize("spec", ["boolean:3", "generic:4:3", "braid:4", "boolean:5"])
def test_cli_gen_cov_from_an_arrangement_file(capsys, tmp_path, spec):
    f = tmp_path / "x.arr"
    code, text, _ = run(capsys, "gen", "--fixture", spec, "--format", "arr")
    f.write_text(text)
    expected = run(capsys, "gen", "--fixture", spec, "--format", "cov")
    assert code == expected[0] == 0
    assert run(capsys, "gen", "--in", str(f), "--format", "cov") == expected


def test_cli_gen_refusals(capsys, tmp_path):
    f = tmp_path / "x.cov"
    f.write_text(fileio.emit_covectors(fixtures.generate_fixture("boolean:2")))
    assert run(capsys, "gen", "--in", str(f), "--format", "arr") == \
        (2, "", f"UnknownFixture: {f}: no arrangement form to emit\n")
    assert run(capsys, "gen", "--format", "cov") == \
        (2, "", "ParseError: need --fixture <spec> or --in <path>\n")


def test_cli_paths_bad_sign_character(capsys):
    assert run(capsys, "paths", "--fixture", "boolean:2", "--from=+x", "--to=++") == \
        (2, "", "ParseError: bad sign string '+x': bad sign character 'x'\n")


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
    f.write_text(emit_cw(cw_octagon_chords(False)))
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


@pytest.mark.parametrize("spec, message", [
    ("braid:1", "braid needs n >= 2, got 'braid:1'"),
    ("boolean:x", "bad integer in fixture spec 'boolean:x'"),
    ("generic:3:0", "parameters must be positive in 'generic:3:0'"),
])
def test_cli_fixture_spec_refusals(capsys, spec, message):
    assert run(capsys, "verify", "--fixture", spec) == \
        (2, "", f"UnknownFixture: {message}\n")


def test_cli_file_fixture_kind_is_unknown(capsys):
    # files are read with --in; a fixture spec names a built-in subject
    code, out, err = run(capsys, "verify", "--fixture", "file:x.cov")
    assert (code, out) == (2, "") and "UnknownFixture" in err


def test_cli_oversized_fixture_builds_no_normals(capsys, monkeypatch):
    # the arrangement form does not check the cap: braid:6 has 15 normals
    code, out, _ = run(capsys, "gen", "--fixture", "braid:6", "--format", "arr")
    assert code == 0 and out.splitlines()[0] == "rank 5"
    assert len(out.splitlines()) == 1 + 15

    def refuse(*args):
        raise AssertionError("normals built for a spec over the cap")

    for name in ("boolean_arrangement", "generic_arrangement",
                 "braid_arrangement"):
        monkeypatch.setattr(fixtures, name, refuse)
    for spec, n in (("braid:45", 990), ("braid:6", 15), ("boolean:13", 13),
                    ("generic:13:3", 13)):
        code, out, err = run(capsys, "verify", "--fixture", spec)
        assert (code, out) == (2, "")
        assert err == f"EnumerationLimitExceeded: n={n} exceeds " \
                      "OM_SALVETTI_MAX_N=12\n"


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


def test_cli_short_chirotope_with_huge_header_is_bad_input(tmp_path):
    # C(40, 20) is about 1.4e11 subsets: they must not be listed just
    # to learn that one sign character is too few
    bad = tmp_path / "big.chi"
    bad.write_text("chirotope r=20 n=40\n+\n")
    proc = subprocess.run([sys.executable, "-m", "omsal", "verify", "--in",
                           str(bad)], capture_output=True, text=True,
                          cwd=str(Path(__file__).parent.parent), timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"ParseError: {bad}: 137846528820 sign characters " \
                          "required for r=20 n=40, got 1\n"


@pytest.mark.parametrize("name, text, err", [
    ("exp.arr", "rank 2\n1 0\n0 1e400000000\n",
     "ParseError: {}:3: '1e400000000' is not an integer, a decimal or p/q"),
    ("huge.chi", "chirotope r=50000000 n=100000000\n+\n",
     f"ParseError: {{}}: more than {sys.maxsize} sign characters required "
     "for r=50000000 n=100000000, got 1"),
    ("free.chi", "chirotope r=20000 n=20000\n+\n",
     "EnumerationLimitExceeded: r=20000 exceeds OM_SALVETTI_MAX_N=12"),
], ids=["exponent", "binomial", "rank"])
def test_cli_input_too_large_to_expand_is_bad_input(tmp_path, name, text, err):
    # nothing may be multiplied out or listed: the exponent has 400
    # million digits and the binomial about 30 million, and the last
    # file's one basis would give 20,000 hyperplanes of 20,000 signs
    path = tmp_path / name
    path.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "omsal", "verify", "--in",
                           str(path)], capture_output=True, text=True,
                          cwd=str(Path(__file__).parent.parent), timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == err.format(path) + "\n"


def test_chirotope_over_the_cap_is_refused_from_its_header(capsys, tmp_path,
                                                           monkeypatch):
    # the file names 499,500 subsets; listing them cost 142 MB before the
    # loader could read n, so n is checked from the header before any is
    path = tmp_path / "wide.chi"
    path.write_text("chirotope r=2 n=1000\n" + "+" * comb(1000, 2) + "\n")
    monkeypatch.delenv("OM_SALVETTI_MAX_N", raising=False)

    def refuse(*args):
        raise AssertionError("subsets listed for a chirotope over the cap")

    monkeypatch.setattr(fileio, "colex_subsets", refuse)
    err = "n=1000 exceeds OM_SALVETTI_MAX_N=12"
    with pytest.raises(EnumerationLimitExceeded, match=f"^{err}$"):
        fileio.load_oriented_matroid(path)
    assert run(capsys, "verify", "--in", str(path)) == \
        (2, "", f"EnumerationLimitExceeded: {err}\n")


def test_cli_gen_reemits_a_thirteen_element_chirotope(capsys, tmp_path):
    # parsing a chirotope applies no cap on n; spanning it does
    f = tmp_path / "n13.chi"
    f.write_text("chirotope r=2 n=13\n" + "+" * 78 + "\n")
    code, out, _ = run(capsys, "gen", "--in", str(f), "--format", "chi")
    assert (code, out) == (0, f.read_text())


def _wide_chirotope(tmp_path):
    # 499,500 sign characters: a 0.5 MB file, far over the cap on n
    path = tmp_path / "wide.chi"
    path.write_text("chirotope r=2 n=1000\n" + "+" * comb(1000, 2) + "\n")
    return path


def test_cli_gen_reemits_a_chirotope_without_listing_subsets(capsys, tmp_path,
                                                             monkeypatch):
    # the text is the checked header and signs; listing every colex
    # subset twice took 3 s and 149 MB on the wide file
    inputs = {}
    for spec in ("nonpappus", "generic:5:3"):
        _, text, _ = run(capsys, "gen", "--fixture", spec, "--format", "chi")
        inputs[spec] = text
    inputs["wrapped"] = "chirotope r=2 n=3\n+\n+-\n"
    paths = []
    for name, text in inputs.items():
        paths.append(tmp_path / f"{name.replace(':', '_')}.chi")
        paths[-1].write_text(text)
    listed = [fileio.emit_chirotope(fileio.parse_chirotope(p)) for p in paths]
    zero = tmp_path / "zero.chi"
    zero.write_text("chirotope r=1 n=2\n00\n")
    with pytest.raises(DegenerateChirotope, match="^chirotope identically zero$"):
        fileio.parse_chirotope(zero)
    wide = _wide_chirotope(tmp_path)
    monkeypatch.delenv("OM_SALVETTI_MAX_N", raising=False)

    def refuse(*args):
        raise AssertionError("subsets listed to re-emit a chirotope")

    monkeypatch.setattr(fileio, "colex_subsets", refuse)
    for path, text in zip(paths, listed):
        assert run(capsys, "gen", "--in", str(path), "--format", "chi") == (0, text, "")
    assert run(capsys, "gen", "--in", str(zero), "--format", "chi") == \
        (2, "", "DegenerateChirotope: chirotope identically zero\n")
    assert run(capsys, "gen", "--in", str(wide), "--format", "chi") == \
        (0, wide.read_text(), "")
    # spanning the same file is still refused from its header
    assert run(capsys, "verify", "--in", str(wide)) == \
        (2, "", "EnumerationLimitExceeded: n=1000 exceeds OM_SALVETTI_MAX_N=12\n")


def test_cli_closed_stdout_exits_quietly(tmp_path):
    # the reader takes 40 bytes of a 0.5 MB line and closes the pipe: no
    # traceback, no "Exception ignored" line, and not exit 1 (a check failed)
    proc = subprocess.Popen([sys.executable, "-m", "omsal", "gen", "--in",
                             str(_wide_chirotope(tmp_path)), "--format", "chi"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=str(Path(__file__).parent.parent))
    head = proc.stdout.read(40)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head == b"chirotope r=2 n=1000\n" + b"+" * 19
    assert (proc.returncode, err) == (141, b"")


def test_cli_import_loads_no_dataclasses_or_json():
    # records are named tuples, and json is imported only for --json
    # output: a fresh `import omsal.cli` adds none of these modules
    code = ("import sys; before = set(sys.modules); import omsal.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} "
            "& (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=str(Path(__file__).parent.parent))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_cli_json_witness_shows_sign_vectors_as_text(capsys, tmp_path):
    # a SignVector is a tuple too; the payload shows its sign string
    bad = tmp_path / "v2.cov"
    bad.write_text("000\n+00\n-00\n0+0\n0-0\n")
    code, out, _ = run(capsys, "verify", "--json", "--in", str(bad))
    assert code == 1 and json.loads(out)["witness"] == ["+00", "0+0"]


@pytest.mark.parametrize("text", ["0 ++ ++\n0 -- --\n", "1 0+ ++\n0 ++ ++\n",
                                  "0 ++ ++\n0 -+ -+\n1 0+ ++\n0 2\n1 2\n"],
                         ids=["euler-2", "edge-without-faces", "one-top-cell"])
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


def test_cli_self_cover_in_cw_is_bad_input(tmp_path):
    bad = tmp_path / "loop.cw"
    bad.write_text("cell e dim 0\ncover e e\n")
    proc = subprocess.run([sys.executable, "-m", "omsal", "mh-check", "--in",
                           str(bad)], capture_output=True, text=True,
                          cwd=str(Path(__file__).parent.parent))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"ParseError: {bad}: cell e covers itself\n"
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("name, text", [
    ("loop.cov", "+0\n-0\n00\n"),
    ("loop.chi", "chirotope r=1 n=2\n+0\n"),
])
def test_cli_gr_compare_on_a_loop_is_bad_input(tmp_path, name, text):
    # element 2 is 0 in every covector; verify passes the input, but the
    # comparison theorem holds only without loops
    path = tmp_path / name
    path.write_text(text)
    for cmd, code in (("verify", 0), ("gr-compare", 2)):
        proc = subprocess.run([sys.executable, "-m", "omsal", cmd, "--in",
                               str(path)], capture_output=True, text=True,
                              cwd=str(Path(__file__).parent.parent))
        assert proc.returncode == code
    assert proc.stdout == "" and proc.stderr == "NotSimple: element 2 is a loop\n"


def test_cli_salvetti_of_rank_zero_is_a_point(capsys, tmp_path):
    # one covector, the zero one: the complex is a point, of Euler
    # characteristic 1
    cov = tmp_path / "point.cov"
    cov.write_text("0\n")
    assert run(capsys, "verify", "--in", str(cov))[0] == 0
    assert run(capsys, "salvetti", "--in", str(cov)) == (0, "f=(1) χ=1\n", "")
    assert run(capsys, "homology", "--in", str(cov)) == \
        (0, "H_0: Z\nbetti=(1)\n", "")


def test_cli_non_integer_cap_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("OM_SALVETTI_MAX_N", "abc")
    code, out, err = run(capsys, "salvetti", "--fixture", "boolean:3",
                         "--f-vector")
    assert code == 2 and out == ""
    assert err == ("EnumerationLimitExceeded: OM_SALVETTI_MAX_N='abc' "
                   "is not an integer\n")


def test_cli_verify_loads_and_verifies_once(capsys, tmp_path, monkeypatch):
    # a valid input is certified on its cocircuits and never reaches
    # verify_axioms; a failing one reaches it once, for the witnesses.
    # Each input is spanned once, by its loader, and never re-spanned.
    arr = tmp_path / "x.arr"
    arr.write_text(fileio.emit_arrangement(
        fixture_arrangement(parse_fixture_spec("generic:3:2"))))
    chi = tmp_path / "x.chi"
    chi.write_text("chirotope r=2 n=4\n+-++++\n")
    checks, spans, calls = [], [], []

    def counted(calls, real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    real_verify = matroid.verify_axioms
    monkeypatch.setattr(matroid, "_cocircuit_axioms_hold",
                        counted(checks, matroid._cocircuit_axioms_hold))
    monkeypatch.setattr(matroid, "_compositions", counted(spans, matroid._compositions))
    monkeypatch.setattr(matroid, "verify_axioms", counted(calls, real_verify))
    code, out, err = run(capsys, "verify", "--in", str(arr))
    assert code == 0 and out.endswith("result: pass\n")
    assert (len(checks), len(spans), len(calls)) == (1, 1, 0)

    checks.clear()
    spans.clear()
    code, out, err = run(capsys, "verify", "--in", str(chi))
    assert code == 1
    assert out == "V0 pass\nV1 pass\nV2 pass\nV3 FAIL (++++, ++-+, 3)\nresult: FAIL\n"
    assert (len(checks), len(spans), len(calls)) == (1, 1, 1)
    assert "\n".join(str(c) for c in real_verify(*calls[0]).checks) in out


def test_one_composition_pass_per_load(tmp_path, monkeypatch):
    # the face poset is the certificate: a .cov load composes each X o C
    # once, in the closure, and spans nothing; an .arr load spans once and
    # closes once; neither reaches verify_axioms
    spec = parse_fixture_spec("generic:5:3")
    cov, arr = tmp_path / "x.cov", tmp_path / "x.arr"
    cov.write_text(fileio.emit_covectors(fixtures.generate_fixture(spec)))
    arr.write_text(fileio.emit_arrangement(fixture_arrangement(spec)))
    counts = Counter()

    def counted(name):
        real = getattr(matroid, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(matroid, name, wrapper)

    for name in ("_compositions", "_face_poset", "verify_axioms"):
        counted(name)
    for path, spans in ((cov, 0), (arr, 1)):
        counts.clear()
        m = fileio.load_oriented_matroid(str(path))
        m.face_poset()
        assert counts == Counter(_compositions=spans, _face_poset=1), path.suffix


def test_cli_argparse_failures():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["paths", "--fixture", "boolean:2", "--from", "++"])
    assert exc.value.code == 2


# fixture kinds and parameters: small ones, and junk, values past the
# cap and int() spellings other than plain digits
SPEC_KINDS = ("boolean", "generic", "braid", "nonpappus", "file", "wat", "")
SPEC_PARAMS = ("1", "2", "3")
SPEC_NOISE = ("0", "-1", "x", "", " 2", "+2", "0_1", "1.5", "13", "99")
G32_TOPES = tuple(str(t) for t in fixtures.generate_fixture("generic:3:2").topes())


@st.composite
def argument_lists(draw):
    """verify with a fixture spec of zero to three parameters, or paths
    and topes --poset on generic:3:2 with topes of it or short sign texts
    (some of them junk); values attach with = so that argparse hands
    each one to the command, and one call in two asks for --json."""
    command = draw(st.sampled_from(["verify", "paths", "topes"]))
    if command == "verify":
        param = st.one_of(st.sampled_from(SPEC_PARAMS), st.sampled_from(SPEC_NOISE))
        parts = [draw(st.sampled_from(SPEC_KINDS))] + draw(st.lists(param, max_size=3))
        argv = ["verify", "--fixture=" + ":".join(parts)]
    else:
        tope = st.one_of(st.sampled_from(G32_TOPES), st.text(alphabet="+-0x", max_size=4))
        ends = ["--from=" + draw(tope), "--to=" + draw(tope)] if command == "paths" \
            else ["--poset", "--base=" + draw(tope)]
        argv = [command, "--fixture=generic:3:2"] + ends
    return argv + ["--json"] * draw(st.booleans())


def test_cli_argument_fuzz_exits_cleanly():
    codes = Counter()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(argument_lists())
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if "--json" in argv:
            assert json.loads(out.getvalue())["command"] == argv[0]
        elif code == 2:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
        codes[argv[0], code] += 1

    check()
    # each command gets answers as well as refusals
    assert set(codes) >= {(command, code) for command in ("paths", "topes", "verify")
                          for code in (0, 2)}


# lines that break a .cw text: an unknown cell, a self-cover, a cover
# against the dimensions that closes a cycle, a repeated cell, bad dims
# and a cell with no vertex below it
CW_NOISE = ("cover v0 zz", "cover v0 v0", "cover e0 v0", "cover f v0",
            "cell v0 dim 0", "cell w dim -1", "cell w dim x", "cell w dim 1.5",
            "cell w dim 2", "cover w v0")


@st.composite
def cw_texts(draw):
    """Short .cw texts: vertices, edges between them (a path or a cycle
    through all vertices, then any pairs, loops too) and at most one
    2-cell on some of the edges, with at most one noise line; now and
    then the lines come reversed, covers before their cells."""
    nv = draw(st.integers(1, 5))
    verts = [f"v{i}" for i in range(nv)]
    shape = draw(st.sampled_from(["cycle", "path", "none"]))
    edges = [] if shape == "none" else list(zip(verts, verts[1:]))
    if shape == "cycle" and nv > 2:
        edges.append((verts[-1], verts[0]))
    ends = st.integers(0, nv - 1).map(verts.__getitem__)
    edges += draw(st.lists(st.tuples(ends, ends), max_size=3))
    lines = [f"cell {v} dim 0" for v in verts]
    lines += [f"cell e{i} dim 1" for i in range(len(edges))]
    lines += [f"cover {v} e{i}" for i, pair in enumerate(edges) for v in pair]
    if edges and draw(st.booleans()):
        lines.append("cell f dim 2")
        bound = draw(st.integers(1, 2 ** len(edges) - 1))
        lines += [f"cover e{i} f" for i in range(len(edges)) if bound >> i & 1]
    lines += draw(st.lists(st.sampled_from(CW_NOISE), max_size=1))
    if draw(st.integers(0, 4)) == 0:
        lines.reverse()
    return "".join(line + "\n" for line in lines)


def test_cli_mh_check_cw_fuzz_exits_cleanly(tmp_path):
    path = tmp_path / "x.cw"
    codes = Counter()

    @settings(derandomize=True, max_examples=100, deadline=None,
              database=None)
    @given(cw_texts(), st.booleans())
    def check(text, as_json):
        path.write_text(text)
        argv = ["mh-check", "--in", str(path)] + ["--json"] * as_json
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if as_json:
            assert json.loads(out.getvalue())["command"] == "mh-check"
        codes[code] += 1

    check()
    # the texts reach every exit code, not only the parser's refusals
    assert set(codes) == {0, 1, 2}


# the cells and covers of two small Salvetti complexes
POSET_BASES = [salvetti_complex(fixtures.generate_fixture(spec))
               for spec in ("boolean:1", "boolean:2")]


@st.composite
def poset_texts(draw):
    """Short .poset texts: the cells of a small Salvetti complex and all
    or some of its covers, mostly with one noise line among the cells (a
    bad or negative dimension, a tope the covector does not conform to, a
    repeated cell) or the covers (a vertex under a top cell, skipping a
    dimension, or any index pair, some out of range); now and then the
    last line comes first, a cover before the cells."""
    cells, covers = draw(st.sampled_from(POSET_BASES))
    if draw(st.integers(0, 3)) == 0:
        covers = draw(st.lists(st.sampled_from(covers), unique=True))
    lines = [f"{c.dim} {c.covector} {c.tope}" for c in cells]
    lines += [f"{i} {j}" for i, j in covers]
    dims = [c.dim for c in cells]
    c = draw(st.sampled_from(cells))
    index = st.integers(0, len(cells) + 1)
    cell_noise = [f"{d} {c.covector} {c.tope}" for d in ("x", "-1", c.dim + 1, c.dim)]
    cell_noise.append(f"{c.dim} {c.covector} {-c.tope}")
    cover_noise = [f"{draw(index)} {draw(index)}", f"{dims.index(0)} {dims.index(max(dims))}"]
    if draw(st.integers(0, 3)):
        line = draw(st.sampled_from(cell_noise + cover_noise))
        at = (0, len(cells)) if line in cell_noise else (len(cells), len(lines))
        lines.insert(draw(st.integers(*at)), line)
    if covers and draw(st.integers(0, 7)) == 0:
        lines.insert(0, lines.pop())
    return "".join(line + "\n" for line in lines)


def test_cli_poset_fuzz_exits_cleanly(tmp_path):
    path = tmp_path / "x.poset"
    codes = Counter()

    @settings(derandomize=True, max_examples=100, deadline=None,
              database=None)
    @given(poset_texts(),
           st.sampled_from(["salvetti", "homology", "verify", "gr-compare"]),
           st.booleans())
    def check(text, command, as_json):
        path.write_text(text)
        argv = [command, "--in", str(path)] + ["--json"] * as_json
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if as_json:
            assert json.loads(out.getvalue())["command"] == command
        elif code == 2:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        codes[code] += 1

    check()
    # the texts reach a pass as well as the parser's refusals
    assert {0, 2} <= set(codes)


# header values past the small ones: ones whose binomials have thousands
# of digits, ones past any binomial that could be multiplied out, and junk
HEADER_NOISE = ("0", "-1", "x", "20000", "40000", "50000000", "100000000",
                "1" + "0" * 30)
ARR_ENTRIES = ("1", "-2", "3", "1/2", "-3/4", "0.5", ".25", "+1", "0")
ARR_NOISE = ("2/0", "1.", "1_0", "nan", "0x1", "9" * 5000, "1e400000000",
             "1e-400000000", "1e3")


def header(draw, *values):
    """The header values as strings; in one text of three, some of them
    are noise."""
    out = [str(v) for v in values]
    if draw(st.integers(0, 2)) == 0:
        for i in draw(st.lists(st.integers(0, len(out) - 1), min_size=1, unique=True)):
            out[i] = draw(st.sampled_from(HEADER_NOISE))
    return out


@st.composite
def arr_texts(draw):
    """.arr texts: a rank line, then up to six rows of one width whose
    entries are integers, decimals and p/q, the last one now and then
    an exponent or junk."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.sampled_from(ARR_ENTRIES), min_size=width,
                                  max_size=width), max_size=6))
    noise = draw(st.lists(st.sampled_from(ARR_NOISE), max_size=1))
    if rows and noise:
        rows[-1][-1] = noise[0]
    rank, = header(draw, width)
    return f"rank {rank}\n" + "".join(" ".join(row) + "\n" for row in rows)


@st.composite
def chi_texts(draw):
    """.chi texts: a header with r <= 4 and n <= 6, then one sign per
    r-subset, or in one text of three any short run of signs."""
    r, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    count = comb(n, r) if draw(st.integers(0, 2)) else draw(st.integers(0, 25))
    signs = draw(st.text(alphabet="+-0", min_size=count, max_size=count))
    r, n = header(draw, r, n)
    return f"chirotope r={r} n={n}\n{signs}\n"


COV_FIXTURES = ("boolean:1", "boolean:2", "boolean:3", "generic:3:2",
                "braid:3", "generic:4:3")
COV_JUNK = ("x", " ", "1", "*", "+-")


@st.composite
def cov_texts(draw):
    """.cov texts: a small fixture's covector set with one vector
    dropped, negated or added, or none of these, in any order; in one
    text of four a line has a junk character or a length of its own."""
    m = fixtures.generate_fixture(draw(st.sampled_from(COV_FIXTURES)))
    lines = [str(x) for x in m.sorted_covectors()]
    k = draw(st.integers(0, len(lines) - 1))
    change = draw(st.sampled_from(("keep", "drop", "negate", "add")))
    if change == "drop":
        del lines[k]
    elif change == "negate":
        lines[k] = lines[k].translate(str.maketrans("+-", "-+"))
    elif change == "add":
        lines.append(draw(st.text(alphabet="+-0", min_size=m.n, max_size=m.n)))
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:j] + draw(st.sampled_from(COV_JUNK)) + lines[i][j + 1:]
    return "".join(line + "\n" for line in draw(st.permutations(lines)))


def _load_agrees_with_the_oracle(text, m):
    """A loaded .cov text of at most 60 vectors is exactly a set that
    passes verify_axioms, and a refused one is exactly not."""
    try:
        vecs = {SignVector.from_string(line.strip()) for line in text.splitlines()
                if line.strip()}
    except ValueError:
        return m is None
    if len({x.n for x in vecs}) != 1:
        return m is None
    if len(vecs) > 60:
        return True
    return (m is not None) == verify_axioms(vecs).passes and \
        (m is None or m.covectors == vecs)


def test_loaders_fuzz_load_or_raise_om_errors(tmp_path):
    outcomes = Counter()

    @settings(derandomize=True, max_examples=250, deadline=None, database=None)
    @given(st.one_of(cov_texts().map(lambda t: ("x.cov", t)),
                     arr_texts().map(lambda t: ("x.arr", t)),
                     chi_texts().map(lambda t: ("x.chi", t))))
    # C(40000, 20000) has about 12,000 digits, too many for str()
    @example(("x.chi", "chirotope r=20000 n=40000\n+\n"))
    def check(named):
        name, text = named
        path = tmp_path / name
        path.write_text(text)
        try:
            m = fileio.load_oriented_matroid(path)
        except OMError:
            m = None
        outcomes[name, m is not None] += 1
        if name == "x.cov":
            # the mask-pair certificate against the axiom oracle
            assert _load_agrees_with_the_oracle(text, m), text

    check()
    # the texts of every format reach both outcomes
    assert set(outcomes) == {(name, ok) for name in ("x.arr", "x.chi", "x.cov")
                             for ok in (False, True)}
