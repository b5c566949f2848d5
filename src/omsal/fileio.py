"""Line-based ASCII formats for arrangements, covector sets, chirotopes,
cell posets and CW complexes.

All emitters produce deterministic byte output; all parsers report the
offending line on malformed input.  Blank lines and '#' comments are
skipped everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from pathlib import Path

from .errors import AxiomFailure, ConsistencyFailure, ParseError
from .matroid import (Chirotope, OrientedMatroid, RationalArrangement,
                      cocircuits_from_chirotope, from_arrangement,
                      span_from_cocircuits)
from .mh import CWPoset, cw_from_covers
from .posets import FinitePoset
from .salvetti import SalvettiCell, cell_leq, f_vector_and_euler
from .signs import SignVector, conforms


def _read_lines(source):
    """Non-empty, comment-stripped (lineno, text) pairs from a path or str."""
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        name = str(source)
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ParseError(f"{name}: {exc}") from None
    else:
        name = "<input>"
        text = str(source)
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    if not out:
        raise ParseError(f"{name}: no content")
    return name, out


def parse_arrangement(source) -> RationalArrangement:
    """Read `rank <l>` followed by one row of l exact rationals per normal."""
    name, lines = _read_lines(source)
    lineno, head = lines[0]
    toks = head.split()
    if len(toks) != 2 or toks[0] != "rank":
        raise ParseError(f"{name}:{lineno}: expected 'rank <l>', got {head!r}")
    try:
        l = int(toks[1])
    except ValueError:
        raise ParseError(f"{name}:{lineno}: bad rank {toks[1]!r}") from None
    rows = []
    for lineno, line in lines[1:]:
        toks = line.split()
        if len(toks) != l:
            raise ParseError(
                f"{name}:{lineno}: expected {l} entries, got {len(toks)}")
        try:
            rows.append(tuple(Fraction(t) for t in toks))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{name}:{lineno}: {exc}") from None
    if not rows:
        raise ParseError(f"{name}: no normals after the rank line")
    return RationalArrangement(l, rows)


def emit_arrangement(arr: RationalArrangement) -> str:
    lines = [f"rank {arr.l}"]
    lines += [" ".join(str(c) for c in row) for row in arr.normals]
    return "\n".join(lines) + "\n"


def parse_covectors(source) -> OrientedMatroid:
    """Read one sign string per line and verify the axioms on the set."""
    name, lines = _read_lines(source)
    vecs = []
    n = None
    for lineno, line in lines:
        try:
            x = SignVector.from_string(line)
        except ValueError as exc:
            raise ParseError(f"{name}:{lineno}: {exc}") from None
        if n is None:
            n = x.n
        elif x.n != n:
            raise ParseError(
                f"{name}:{lineno}: length {x.n} differs from {n}")
        vecs.append(x)
    m = OrientedMatroid(n, set(vecs))
    report = m.verify()
    if not report.passes:
        raise AxiomFailure(report)
    return m


def emit_covectors(m: OrientedMatroid) -> str:
    return "\n".join(str(x) for x in m.sorted_covectors()) + "\n"


def colex_subsets(n: int, r: int) -> list[tuple[int, ...]]:
    """r-subsets of 1..n sorted colexicographically (last element first)."""
    return sorted(combinations(range(1, n + 1), r),
                  key=lambda t: tuple(reversed(t)))


_CHAR_SIGN = {"+": 1, "-": -1, "0": 0}
_SIGN_CHAR = {1: "+", -1: "-", 0: "0"}


def parse_chirotope(source) -> Chirotope:
    """Read `chirotope r=<r> n=<n>` plus one sign char per colex r-subset."""
    name, lines = _read_lines(source)
    lineno, head = lines[0]
    toks = head.split()
    if (len(toks) != 3 or toks[0] != "chirotope"
            or not toks[1].startswith("r=") or not toks[2].startswith("n=")):
        raise ParseError(
            f"{name}:{lineno}: expected 'chirotope r=<r> n=<n>', got {head!r}")
    try:
        r = int(toks[1][2:])
        n = int(toks[2][2:])
    except ValueError:
        raise ParseError(f"{name}:{lineno}: bad r/n in {head!r}") from None
    if not 1 <= r <= n:
        raise ParseError(f"{name}:{lineno}: need 1 <= r <= n in {head!r}")
    chars = "".join(line for _, line in lines[1:])
    subsets = colex_subsets(n, r)
    if len(chars) != len(subsets):
        raise ParseError(
            f"{name}: {len(subsets)} sign characters required for r={r} "
            f"n={n}, got {len(chars)}")
    values = {}
    for sub, ch in zip(subsets, chars):
        if ch not in _CHAR_SIGN:
            raise ParseError(f"{name}: bad sign character {ch!r}")
        values[sub] = _CHAR_SIGN[ch]
    return Chirotope(r, n, values)


def emit_chirotope(c: Chirotope) -> str:
    chars = "".join(_SIGN_CHAR[c.chi(sub)] for sub in colex_subsets(c.n, c.r))
    return f"chirotope r={c.r} n={c.n}\n{chars}\n"


def parse_salvetti_poset(source) -> FinitePoset:
    """Read `<dim> <covector> <tope>` cell lines, then `<i> <j>` cover pairs.

    Cover pairs are 0-based indices into the cell list, face first.  Each
    cell's covector conforms to its tope and has dimension 0 exactly when
    it equals the tope; each cover pair is a face relation raising the
    dimension by one; each cell of dimension >= 1 covers at least two
    cells; and the f-vector passes `f_vector_and_euler`.
    """
    name, lines = _read_lines(source)
    cells, cell_lines = [], []
    covers, cover_lines = [], []
    for lineno, line in lines:
        toks = line.split()
        if len(toks) == 3:
            if covers:
                raise ParseError(
                    f"{name}:{lineno}: cell line after cover lines")
            try:
                dim = int(toks[0])
                cov = SignVector.from_string(toks[1])
                tope = SignVector.from_string(toks[2])
            except ValueError as exc:
                raise ParseError(f"{name}:{lineno}: {exc}") from None
            cells.append(SalvettiCell(cov, tope, dim))
            cell_lines.append(lineno)
        elif len(toks) == 2:
            try:
                a, b = int(toks[0]), int(toks[1])
            except ValueError:
                raise ParseError(
                    f"{name}:{lineno}: expected two cell indices") from None
            if not (0 <= a < len(cells) and 0 <= b < len(cells)):
                raise ParseError(f"{name}:{lineno}: cell index out of range")
            covers.append((a, b))
            cover_lines.append(lineno)
        else:
            raise ParseError(f"{name}:{lineno}: unrecognized line {line!r}")
    if not cells:
        raise ParseError(f"{name}: no cells")
    n = cells[0].covector.n
    seen = set()
    for c, lineno in zip(cells, cell_lines):
        if c.covector.n != n or c.tope.n != n:
            raise ParseError(f"{name}:{lineno}: sign vectors of length "
                             f"{c.covector.n} and {c.tope.n}, expected {n}")
        if c in seen:
            raise ParseError(f"{name}:{lineno}: duplicate cell {c}")
        seen.add(c)
        if not conforms(c.covector, c.tope):
            raise ParseError(
                f"{name}:{lineno}: covector {c.covector} is not a face "
                f"of the tope {c.tope}")
        if c.dim < 0 or (c.dim == 0) != (c.covector == c.tope):
            raise ParseError(f"{name}:{lineno}: cell {c} cannot have dimension {c.dim}")
    faces = [set() for _ in cells]
    for (a, b), lineno in zip(covers, cover_lines):
        if not cell_leq(cells[a], cells[b]) or cells[b].dim != cells[a].dim + 1:
            raise ParseError(
                f"{name}:{lineno}: {cells[a]} (dim {cells[a].dim}) is not a "
                f"facet of {cells[b]} (dim {cells[b].dim})")
        faces[b].add(a)
    for c, below, lineno in zip(cells, faces, cell_lines):
        if c.dim >= 1 and len(below) < 2:
            raise ParseError(f"{name}:{lineno}: cell {c} of dimension {c.dim} "
                             f"covers {len(below)} cells")
    poset = FinitePoset.from_covers(cells, covers)
    try:
        f_vector_and_euler(poset)
    except ConsistencyFailure as exc:
        raise ParseError(f"{name}: {exc}") from None
    return poset


def emit_salvetti_poset(poset: FinitePoset) -> str:
    lines = [f"{c.dim} {c.covector} {c.tope}" for c in poset.elements]
    lines += [f"{i} {j}" for i, j in sorted(poset.covers())]
    return "\n".join(lines) + "\n"


def parse_cw(source) -> CWPoset:
    """Read `cell <id> dim <d>` lines then `cover <face-id> <cell-id>` lines."""
    name, lines = _read_lines(source)
    cells = []
    covers = []
    seen = set()
    for lineno, line in lines:
        toks = line.split()
        if toks[0] == "cell" and len(toks) == 4 and toks[2] == "dim":
            if toks[1] in seen:
                raise ParseError(f"{name}:{lineno}: duplicate cell {toks[1]!r}")
            try:
                d = int(toks[3])
            except ValueError:
                raise ParseError(
                    f"{name}:{lineno}: bad dimension {toks[3]!r}") from None
            seen.add(toks[1])
            cells.append((toks[1], d))
        elif toks[0] == "cover" and len(toks) == 3:
            for t in toks[1:]:
                if t not in seen:
                    raise ParseError(f"{name}:{lineno}: unknown cell {t!r}")
            covers.append((toks[1], toks[2]))
        else:
            raise ParseError(f"{name}:{lineno}: unrecognized line {line!r}")
    return cw_from_covers(cells, covers)


def emit_cw(q: CWPoset) -> str:
    ids = [str(x) for x in q.poset.elements]
    for i in ids:
        if not i or any(ch.isspace() for ch in i):
            raise ConsistencyFailure(f"cell id {i!r} not writable")
    if len(set(ids)) != len(ids):
        raise ConsistencyFailure("cell ids collide under str()")
    lines = [f"cell {i} dim {d}" for i, d in zip(ids, q.dims)]
    lines += [f"cover {ids[a]} {ids[b]}" for a, b in sorted(q.poset.covers())]
    return "\n".join(lines) + "\n"


def load_oriented_matroid(path) -> OrientedMatroid:
    """Dispatch on extension: .cov, .arr (expanded), .chi (expanded)."""
    suffix = Path(path).suffix
    if suffix == ".cov":
        return parse_covectors(path)
    if suffix == ".arr":
        return from_arrangement(parse_arrangement(path))
    if suffix == ".chi":
        chi = parse_chirotope(path)
        return span_from_cocircuits(cocircuits_from_chirotope(chi))
    raise ParseError(f"{path}: unknown input format {suffix!r}")
