"""Fixed CLI invocation suite for the determinism check.

Usage: python cli_driver.py <workdir>

Writes deterministic input files into workdir, then runs a fixed list
of command lines through the CLI entry point, framing each invocation
as `$ omsal ...` / stdout / optional [stderr] block / [exit N].  Two
runs of this script (under different hash seeds) must agree byte for
byte on everything they print, and the transcript must equal
data/cli_transcript.txt once the workdir path is replaced by `<work>`.
"""

import contextlib
import io
import sys
from pathlib import Path

from cw_complexes import cw_octagon_chords, cw_polygon, emit_cw

from omsal import fileio, fixtures
from omsal.cli import main
from omsal.matroid import Chirotope
from omsal.salvetti import salvetti_complex


def prepare_inputs(work: Path):
    (work / "bad.cov").write_text("++\n--\n+-\n-+\n")
    (work / "oct.cw").write_text(emit_cw(cw_octagon_chords(False)))
    (work / "pentagon.cw").write_text(emit_cw(cw_polygon(5)))
    (work / "g3.arr").write_text(
        fileio.emit_arrangement(fixtures.fixture_arrangement("generic:3:2")))
    (work / "b2.poset").write_text(
        fileio.emit_salvetti_poset(
            *salvetti_complex(fixtures.generate_fixture("boolean:2"))))
    # two chirotopes whose spans fail the axioms (V3)
    (work / "bad.chi").write_text("chirotope r=2 n=4\n+-++++\n")
    values = dict(fixtures.nonpappus_chirotope().values)
    values[(1, 2, 5)] = -values[(1, 2, 5)]
    (work / "np125.chi").write_text(
        fileio.emit_chirotope(Chirotope(3, 9, values)))


def commands(work: Path):
    fx = list(fixtures.ALL_FIXTURES)
    cmds = []
    cmds += [["verify", "--fixture", s] for s in fx]
    cmds += [
        ["verify", "--json", "--fixture", "generic:4:3"],
        ["verify", "--in", str(work / "bad.cov")],
        ["verify", "--in", str(work / "bad.chi")],
        ["verify", "--in", str(work / "np125.chi")],
        ["verify", "--in", str(work / "missing.cov")],
        ["verify", "--fixture", "boolean:99"],

        ["gen", "--fixture", "boolean:2"],
        ["gen", "--fixture", "braid:3"],
        ["gen", "--fixture", "generic:3:2", "--format", "arr"],
        ["gen", "--fixture", "generic:3:2", "--format", "chi"],
        ["gen", "--fixture", "generic:4:3", "--format", "chi"],
        ["gen", "--fixture", "nonpappus", "--format", "chi"],
        ["gen", "--fixture", "nonpappus", "--format", "arr"],
        ["gen", "--in", str(work / "g3.arr"), "--format", "arr"],

        ["salvetti", "--fixture", "boolean:3"],
        ["salvetti", "--fixture", "generic:3:2"],
        ["salvetti", "--fixture", "generic:4:3"],
        ["salvetti", "--fixture", "generic:5:3"],
        ["salvetti", "--fixture", "nonpappus"],
        ["salvetti", "--fixture", "generic:3:2", "--f-vector"],
        ["salvetti", "--fixture", "generic:3:2", "--euler"],
        ["salvetti", "--fixture", "generic:3:2", "--emit"],
        ["salvetti", "--fixture", "nonpappus", "--emit"],
        ["salvetti", "--in", str(work / "b2.poset")],
        ["salvetti", "--json", "--fixture", "boolean:2"],

        ["homology", "--fixture", "boolean:2"],
        ["homology", "--fixture", "boolean:3"],
        ["homology", "--fixture", "generic:3:2"],
        ["homology", "--fixture", "braid:3"],
        ["homology", "--fixture", "generic:4:3"],
        ["homology", "--fixture", "generic:5:3"],
        ["homology", "--json", "--fixture", "generic:3:2"],
    ]
    cmds += [["os-betti", "--fixture", s] for s in fx]
    cmds += [
        ["os-betti", "--json", "--fixture", "nonpappus"],

        ["gr-compare", "--fixture", "boolean:1"],
        ["gr-compare", "--fixture", "boolean:2"],
        ["gr-compare", "--fixture", "boolean:3"],
        ["gr-compare", "--fixture", "generic:3:2"],
        ["gr-compare", "--fixture", "braid:3"],
        ["gr-compare", "--fixture", "generic:4:3"],
        ["gr-compare", "--fixture", "generic:5:3"],
        ["gr-compare", "--json", "--fixture", "braid:3"],

        ["mh-check", "--fixture", "boolean:2"],
        ["mh-check", "--fixture", "generic:3:2"],
        ["mh-check", "--fixture", "generic:4:3"],
        ["mh-check", "--fixture", "generic:5:3", "--complex", "salvetti"],
        ["mh-check", "--fixture", "nonpappus", "--complex", "dual"],
        ["mh-check", "--in", str(work / "oct.cw")],
        ["mh-check", "--json", "--in", str(work / "oct.cw")],
        ["mh-check", "--in", str(work / "pentagon.cw")],
        ["mh-check", "--json", "--fixture", "boolean:3"],
    ]
    cmds += [["topes", "--fixture", s] for s in fx]
    cmds += [
        ["topes", "--fixture", "boolean:2", "--poset"],
        ["topes", "--fixture", "generic:4:3", "--poset", "--base", "++++"],
        ["topes", "--fixture", "nonpappus", "--poset"],
        ["topes", "--json", "--fixture", "generic:3:2"],

        ["paths", "--fixture", "boolean:3", "--from", "+++", "--to=---"],
        ["paths", "--fixture", "generic:3:2", "--from", "+++", "--to=---"],
        ["paths", "--fixture", "generic:3:2", "--from", "+++", "--to", "+++"],
        ["paths", "--fixture", "generic:4:3", "--from", "++++", "--to=----"],
        ["paths", "--fixture", "nonpappus",
         "--from", "+++++++++", "--to=---------"],
        ["paths", "--json", "--fixture", "generic:3:2",
         "--from", "+++", "--to=---"],
        ["paths", "--fixture", "generic:3:2", "--from", "+0+", "--to=---"],

        ["isomorphic", "--fixture", "braid:3", "--other", "generic:3:2"],
        ["isomorphic", "--json", "--fixture", "generic:3:2",
         "--other", "braid:3"],
        ["isomorphic", "--fixture", "boolean:2", "--other", "generic:3:2"],
        ["isomorphic", "--fixture", "nonpappus", "--other", "nonpappus"],
        ["isomorphic", "--fixture", "braid:3",
         "--other-in", str(work / "g3.arr")],
    ]
    return cmds


def run_suite(work: Path, sink):
    prepare_inputs(work)
    for argv in commands(work):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        sink.write("$ omsal " + " ".join(argv) + "\n")
        sink.write(buf.getvalue())
        if err.getvalue():
            sink.write("[stderr]\n")
            sink.write(err.getvalue())
        sink.write(f"[exit {code}]\n")


if __name__ == "__main__":
    run_suite(Path(sys.argv[1]), sys.stdout)
