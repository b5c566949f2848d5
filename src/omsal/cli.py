"""Command-line reports tying the toolkit together.

Every subcommand loads one subject (a --fixture spec or an --in file,
never both), runs its computation, and prints a deterministic
plain-text report; --json swaps in a machine-readable payload on a
single line.  An option the command would ignore is refused.  Exit
status: 0 when everything passed, 1 when a mathematical check failed,
2 when the input was unusable, 141 when the reader closed stdout.
"""

import argparse
import os
import sys
from pathlib import Path

from . import fileio, fixtures
from .errors import (
    AxiomFailure,
    ComparisonFailure,
    ConsistencyFailure,
    EquivalenceViolation,
    NotATope,
    OMError,
    ParseError,
    UnknownFixture,
)
from .homology import IntegerChainComplex, write_matrix_text
from .limits import check_dump_size
from .matroid import Chirotope, are_isomorphic
from .mh import dual_complex, mh_check, salvetti_cw
from .osalg import flats_from_covectors, gr_comparison, nbc_sets
from .paths import minimal_positive_paths, tope_distance, tope_poset
from .salvetti import build_salvetti_poset, f_vector_and_euler, salvetti_complex
from .signs import SignVector

CHECK_FAILED = 1
BAD_INPUT = 2
PIPE_CLOSED = 141  # 128 + SIGPIPE, as a shell reports a pipe closed early

# a "check failure" means the mathematics disagreed with itself; every
# other OMError (and filesystem trouble) is the caller's input
_CHECK_ERRORS = (AxiomFailure, ComparisonFailure, ConsistencyFailure,
                 EquivalenceViolation)


def _strs(obj):
    """Recursively stringify witness tuples, not records, for the JSON payload."""
    if type(obj) in (list, tuple):
        return [_strs(x) for x in obj]
    if obj is None or isinstance(obj, (bool, int)):
        return obj
    return str(obj)


def _one_subject(spec, path, flags=("--fixture", "--in")):
    """(spec, path) of one subject, --fixture and --in or isomorphic's
    --other and --other-in as flags names them; exactly one must be
    given, as the loaders would silently drop the other."""
    if spec is not None and path is not None:
        raise ParseError(f"{flags[0]} and {flags[1]} both given; pass one")
    if not (spec or path):
        raise ParseError(f"need {flags[0]} <spec> or {flags[1]} <path>")
    return spec, path


def _load(spec, path):
    """(oriented matroid, identity string) from an _one_subject pair."""
    if path:
        return fileio.load_oriented_matroid(path), path
    return fixtures.generate_fixture(spec), spec


def _load_subject(args):
    return _load(*_one_subject(args.fixture, args.infile))


def _tope_arg(text, m):
    if text == []:
        # argparse turns an attached value of exactly "--" (--to=--) into []
        text = "--"
    if not text:
        raise ParseError(f"bad sign string {text!r}: empty")
    try:
        t = SignVector.from_string(text)
    except ValueError as exc:
        raise ParseError(f"bad sign string {text!r}: {exc}") from None
    if not m.is_tope(t):
        raise NotATope(f"{text} is not a tope of the subject")
    return t


# -- subcommands --------------------------------------------------------------


def _cmd_verify(args):
    # every loader raises AxiomFailure on a set that fails the axioms, and
    # _fail_axioms prints that report, so the subject here has passed
    m, ident = _load_subject(args)
    report = m.verify()
    lines = [str(c) for c in report.checks]
    lines += [f"covectors={len(m.covectors)} rank={m.rank} topes={len(m.topes())}",
              "result: pass"]
    payload = {"subject": ident, "checks": {c.name: c.passed for c in report.checks},
               "witness": None, "covectors": len(m.covectors), "rank": m.rank,
               "topes": len(m.topes()), "result": "pass"}
    return 0, lines, payload


def _cmd_salvetti(args):
    if args.emit and (args.f_vector or args.euler):
        raise ParseError("--emit prints the poset; drop --f-vector and --euler")
    m, ident = _load_subject(args)
    cells, covers = salvetti_complex(m)
    fv, euler = f_vector_and_euler(cells)
    payload = {"subject": ident, "f_vector": list(fv), "euler": euler,
               "cells": sum(fv)}
    if args.emit:
        text = fileio.emit_salvetti_poset(cells, covers)
        payload["poset"] = text
        return 0, [text.rstrip("\n")], payload
    show_all = not (args.f_vector or args.euler)
    parts = []
    if args.f_vector or show_all:
        parts.append("f=(" + ",".join(str(v) for v in fv) + ")")
    if args.euler or show_all:
        parts.append(f"χ={euler}")
    return 0, [" ".join(parts)], payload


def _cmd_homology(args):
    # argparse turns an attached value of exactly "--" into []
    out_dir = "--" if args.dump_matrices == [] else args.dump_matrices
    if out_dir == "":
        raise ParseError("bad --dump-matrices directory '': empty")
    m, ident = _load_subject(args)
    if out_dir is not None:
        # the dump stays on the order complex, whose k-faces are the
        # chains of k + 1 cells (perfbench pins its shapes); one over the
        # cap is refused before any chain is listed or any file is opened
        poset = build_salvetti_poset(m)
        check_dump_size(poset.chain_counts())
        chain = IntegerChainComplex.from_faces(poset.chain_layers())
        os.makedirs(out_dir, exist_ok=True)
        for k in range(1, len(chain.dims)):
            write_matrix_text(
                chain.boundaries[k],
                os.path.join(out_dir, f"boundary_{k}.txt"),
                (chain.dims[k - 1], chain.dims[k]))
    cells, covers = salvetti_complex(m)
    groups = IntegerChainComplex.from_cw_covers(
        [c.dim for c in cells], covers).homology()
    lines = [f"H_{k}: {g}" for k, g in enumerate(groups)]
    betti = [g.betti for g in groups]
    lines.append("betti=(" + ",".join(map(str, betti)) + ")")
    payload = {"subject": ident, "betti": betti,
               "torsion": [list(g.torsion) for g in groups]}
    return 0, lines, payload


def _cmd_os_betti(args):
    m, ident = _load_subject(args)
    table = nbc_sets(flats_from_covectors(m))
    betti = table.counts()
    lines = ["os-betti=(" + ",".join(map(str, betti)) + ")"]
    lines += ["broken-circuit: {" + ",".join(map(str, sorted(b))) + "}"
              for b in table.broken_circuits]
    payload = {"subject": ident, "os_betti": list(betti),
               "broken_circuits": [sorted(b) for b in table.broken_circuits]}
    return 0, lines, payload


def _cmd_gr_compare(args):
    m, ident = _load_subject(args)
    cmp_ = gr_comparison(m)  # raises ComparisonFailure on any mismatch
    payload = {"subject": ident, "os": list(cmp_.os),
               "homology": list(cmp_.homology_betti),
               "torsion": list(cmp_.torsion), "matches": cmp_.matches}
    return 0, str(cmp_).splitlines(), payload


def _cmd_mh_check(args):
    spec, path = _one_subject(args.fixture, args.infile)
    if path and path.endswith(".cw"):
        if args.complex is not None:
            raise ParseError(f"--complex {args.complex} needs matroid input; "
                             f"{path} is one CW complex")
        subjects, ident = [("cw", fileio.parse_cw(Path(path)))], path
    else:
        m, ident = _load(spec, path)
        which = args.complex or "both"
        subjects = []
        if which in ("dual", "both"):
            subjects.append(("dual", dual_complex(m)))
        if which in ("salvetti", "both"):
            subjects.append(("salvetti", salvetti_cw(m)))
    code, lines, verdicts = 0, [], {}
    for name, q in subjects:
        report = mh_check(q)
        lines.append(f"{name}: {report}")
        verdicts[name] = {
            "qmh": report.qmh.passed,
            "lmh": report.lmh.passed,
            "mh": report.mh.passed,
            "witness": None if report.mh.passed else _strs(report.mh.witness),
        }
        if not report.mh.passed:
            code = CHECK_FAILED
    payload = {"subject": ident, "complexes": verdicts}
    return code, lines, payload


def _cmd_topes(args):
    if args.base is not None and not args.poset:
        raise ParseError("--base needs --poset")
    m, ident = _load_subject(args)
    ts = m.topes()
    if args.poset:
        base = ts[0] if args.base is None else _tope_arg(args.base, m)
        poset = tope_poset(m, base)
        elems = poset.elements
        pairs = sorted((str(elems[i]), str(elems[j]))
                       for i, j in poset.covers())
        lines = [f"base={base}"] + [f"{a} {b}" for a, b in pairs]
        payload = {"subject": ident, "base": str(base),
                   "covers": [list(p) for p in pairs]}
        return 0, lines, payload
    lines = [f"topes={len(ts)}"] + [str(t) for t in ts]
    payload = {"subject": ident, "count": len(ts),
               "topes": [str(t) for t in ts]}
    return 0, lines, payload


def _cmd_paths(args):
    m, ident = _load_subject(args)
    t = _tope_arg(args.src, m)
    s = _tope_arg(args.dst, m)
    d = tope_distance(m, t, s)
    found = minimal_positive_paths(m, t, s)
    labels = [[str(e.cell) for e in p.edges] for p in found]
    lines = [f"distance={d}", f"paths={len(found)}"]
    lines += [" ".join(lab) if lab else "(empty)" for lab in labels]
    payload = {"subject": ident, "from": str(t), "to": str(s),
               "distance": d, "count": len(found),
               "paths": labels}
    return 0, lines, payload


def _cmd_isomorphic(args):
    second = _one_subject(args.other, args.other_in, ("--other", "--other-in"))
    m1, ident = _load_subject(args)
    m2, other = _load(*second)
    ok, cert = are_isomorphic(m1, m2)
    if ok:
        perm, flips = cert
        lines = ["isomorphic: yes",
                 "perm=(" + ",".join(map(str, perm)) + ")",
                 "flips=(" + ",".join(map(str, sorted(flips))) + ")"]
    else:
        lines = ["isomorphic: no"]
    payload = {"subject": ident, "other": other, "isomorphic": ok,
               "perm": list(cert[0]) if ok else None,
               "flips": sorted(cert[1]) if ok else None}
    return (0 if ok else CHECK_FAILED), lines, payload


def _cmd_gen(args):
    spec, src = _one_subject(args.fixture, args.infile)
    if src:
        ident = src
        if args.format == "arr":
            if not src.endswith(".arr"):
                raise UnknownFixture(f"{src}: no arrangement form to emit")
            text = fileio.emit_arrangement(fileio.parse_arrangement(Path(src)))
        elif args.format == "chi":
            if not src.endswith(".chi"):
                raise UnknownFixture(f"{src}: no chirotope form to emit")
            text = fileio.reemit_chirotope(Path(src))
        else:
            text = fileio.emit_covectors(fileio.load_oriented_matroid(src))
    else:
        ident = spec
        spec = fixtures.parse_fixture_spec(spec)
        if args.format == "arr":
            text = fileio.emit_arrangement(fixtures.fixture_arrangement(spec))
        elif args.format == "chi":
            if spec.kind == "nonpappus":
                text = fileio.emit_chirotope(fixtures.nonpappus_chirotope())
            else:
                arr = fixtures.fixture_arrangement(spec)
                text = fileio.emit_chirotope(Chirotope.from_normals(arr))
        else:
            text = fileio.emit_covectors(fixtures.generate_fixture(spec))
    payload = {"subject": ident, "format": args.format, "text": text}
    return 0, [text.rstrip("\n")], payload


# -- parser and dispatch ------------------------------------------------------


def _build_parser():
    top = argparse.ArgumentParser(
        prog="omsal",
        description="oriented-matroid and Salvetti-complex reports")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="one-line machine payload instead of text")
    common.add_argument("--fixture", metavar="SPEC",
                        help="fixture spec, e.g. boolean:2 or generic:4:3")
    common.add_argument("--in", dest="infile", metavar="PATH",
                        help="input file (.arr/.cov/.chi/.poset; see each "
                             "command)")

    p = sub.add_parser("verify", parents=[common],
                       help="covector axioms V0-V3 with witnesses")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("salvetti", parents=[common],
                       help="Salvetti poset f-vector / Euler / emission")
    p.add_argument("--f-vector", action="store_true", dest="f_vector")
    p.add_argument("--euler", action="store_true")
    p.add_argument("--emit", action="store_true",
                   help="print the poset in .poset format")
    p.set_defaults(func=_cmd_salvetti)

    p = sub.add_parser("homology", parents=[common],
                       help="integer homology of the Salvetti complex, on its "
                            "cells")
    p.add_argument("--dump-matrices", metavar="DIR", dest="dump_matrices",
                   help="write the order complex's boundary matrices as "
                        "text into DIR")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("os-betti", parents=[common],
                       help="nbc counts and broken circuits")
    p.set_defaults(func=_cmd_os_betti)

    p = sub.add_parser("gr-compare", parents=[common],
                       help="Salvetti homology ranks vs nbc counts")
    p.set_defaults(func=_cmd_gr_compare)

    p = sub.add_parser("mh-check", parents=[common],
                       help="QMH/LMH/MH verification (dual, Salvetti, or .cw)")
    p.add_argument("--complex", choices=("dual", "salvetti", "both"),
                   help="matroid input only (default: both)")
    p.set_defaults(func=_cmd_mh_check)

    p = sub.add_parser("topes", parents=[common],
                       help="tope list, or a tope poset as a cover edge list")
    p.add_argument("--poset", action="store_true")
    p.add_argument("--base", metavar="TOPE",
                   help="base tope sign string (default: first tope)")
    p.set_defaults(func=_cmd_topes)

    p = sub.add_parser("paths", parents=[common],
                       help="minimal positive paths between two topes")
    p.add_argument("--from", dest="src", metavar="TOPE", required=True)
    p.add_argument("--to", dest="dst", metavar="TOPE", required=True)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("isomorphic", parents=[common],
                       help="relabeling + reorientation equivalence test")
    p.add_argument("--other", metavar="SPEC",
                   help="second subject as a fixture spec")
    p.add_argument("--other-in", dest="other_in", metavar="PATH",
                   help="second subject as an input file")
    p.set_defaults(func=_cmd_isomorphic)

    p = sub.add_parser("gen", parents=[common],
                       help="emit a subject in .arr/.cov/.chi format")
    p.add_argument("--format", choices=("arr", "cov", "chi"), default="cov")
    p.set_defaults(func=_cmd_gen)

    return top


def _print_json(obj):
    import json  # only --json output needs it
    print(json.dumps(obj, sort_keys=True))


def _fail_axioms(args, exc):
    rep = exc.report
    if args.json:
        _print_json({"command": args.command,
                     "checks": {c.name: c.passed for c in rep.checks},
                     "witness": _strs(rep.first_failure.witness),
                     "result": "fail"})
    else:
        for c in rep.checks:
            print(str(c))
        print("result: FAIL")
    return CHECK_FAILED


def _fail(args, exc, code):
    kind = "check-failure" if code == CHECK_FAILED else "input-error"
    if args.json:
        _print_json({"command": args.command, "error": str(exc), "kind": kind})
    else:
        stream = sys.stdout if code == CHECK_FAILED else sys.stderr
        print(f"{type(exc).__name__}: {exc}", file=stream)
    return code


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    args = _build_parser().parse_args(argv)
    try:
        code = _answer(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the flush at exit goes to devnull (signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_CLOSED
    return code


def _answer(args):
    try:
        code, lines, payload = args.func(args)
    except AxiomFailure as exc:
        return _fail_axioms(args, exc)
    except _CHECK_ERRORS as exc:
        return _fail(args, exc, CHECK_FAILED)
    except (OMError, OSError) as exc:
        return _fail(args, exc, BAD_INPUT)
    if args.json:
        payload["command"] = args.command
        _print_json(payload)
    else:
        for ln in lines:
            print(ln)
    return code


if __name__ == "__main__":
    sys.exit(main())
