"""Line-based ASCII formats for arrangements, covector sets, chirotopes,
cell posets and CW complexes.

All emitters produce deterministic byte output; all parsers report the
offending line on malformed input.  A parser reads a Path as the file
it names and a str as the text itself.  Blank lines and '#' comments
are skipped everywhere.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from .errors import (ConsistencyFailure, DegenerateChirotope, Disconnected,
                     EnumerationLimitExceeded, NotAntisymmetric, ParseError)
from .limits import SALVETTI_CAP_ENV, check_cap, enumeration_cap
from .matroid import (Chirotope, OrientedMatroid, RationalArrangement,
                      cocircuits_from_chirotope, from_arrangement,
                      span_from_cocircuits)
from .mh import CWPoset, cw_from_covers
from .salvetti import SalvettiCell, salvetti_complex
from .signs import _CHARS, _SIGNS, SignVector


def _read_lines(source):
    """Non-empty, comment-stripped (lineno, text) pairs from a Path or str."""
    if isinstance(source, Path):
        name = str(source)
        try:
            text = source.read_text()
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


# an integer, a plain decimal or p/q; Fraction alone would also take
# exponents, and expand 1e400000000 digit by digit
_RATIONAL = r"[+-]?([0-9]+/[0-9]+|[0-9]*\.?[0-9]+)"


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
        for t in toks:
            if not re.fullmatch(_RATIONAL, t):
                raise ParseError(f"{name}:{lineno}: {t!r} is not an integer, "
                                 "a decimal or p/q")
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
    m.face_poset()  # raises AxiomFailure on a set that fails the axioms
    return m


def emit_covectors(m: OrientedMatroid) -> str:
    return "\n".join(str(x) for x in m.sorted_covectors()) + "\n"


def colex_subsets(n: int, r: int) -> list[tuple[int, ...]]:
    """r-subsets of 1..n sorted colexicographically (last element first)."""
    return sorted(combinations(range(1, n + 1), r),
                  key=lambda t: tuple(reversed(t)))


def parse_chirotope(source) -> Chirotope:
    """Read `chirotope r=<r> n=<n>` plus one sign char per colex r-subset."""
    r, n, chars = _read_chirotope(source)
    check_cap(n)  # before any subset is listed
    return Chirotope(r, n, dict(zip(colex_subsets(n, r), map(_SIGNS.get, chars))))


def _read_chirotope(source):
    """(r, n, sign characters) of a .chi text, checked up to listing its subsets."""
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
    # C(n, r) one factor at a time, before any subset is listed and only
    # up to sys.maxsize, past the length of any string
    need = 1
    for i in range(min(r, n - r)):
        need = need * (n - i) // (i + 1)
        if need > sys.maxsize:
            break
    if need != len(chars):
        shown = need if need <= sys.maxsize else f"more than {sys.maxsize}"
        raise ParseError(f"{name}: {shown} sign characters required for "
                         f"r={r} n={n}, got {len(chars)}")
    # each subset is listed with its r elements, and r near n makes a
    # short file name n subsets: r is held to the cap on spanning
    cap = enumeration_cap()
    if r > cap:
        raise EnumerationLimitExceeded(f"r={r} exceeds {SALVETTI_CAP_ENV}={cap}")
    bad = re.search("[^-+0]", chars)
    if bad:
        raise ParseError(f"{name}: bad sign character {bad[0]!r}")
    return r, n, chars


def reemit_chirotope(source) -> str:
    """emit_chirotope(parse_chirotope(source)) with no subset listed, so no n cap."""
    r, n, chars = _read_chirotope(source)
    if not chars.strip("0"):
        raise DegenerateChirotope("chirotope identically zero")
    return f"chirotope r={r} n={n}\n{chars}\n"


def emit_chirotope(c: Chirotope) -> str:
    chars = "".join(_CHARS[c.chi(sub)] for sub in colex_subsets(c.n, c.r))
    return f"chirotope r={c.r} n={c.n}\n{chars}\n"


def parse_salvetti_poset(source) -> OrientedMatroid:
    """The oriented matroid whose Salvetti complex a `.poset` text lists.

    The text is `<dim> <covector> <tope>` cell lines, then `<i> <j>`
    cover lines: 0-based indices into the cell list, face first.  The
    covectors must pass the axioms, and the cells and cover pairs must
    be exactly those of `salvetti_complex` of the oriented matroid they
    span, in any cell order, a repeated pair read once.  A refusal names
    the first failing axiom (without them there is no complex to
    compare), else the line of the first stray cell or cover, else the
    first missing cell or cover.
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
    n = cells[0].covector.n
    seen = set()
    for c, lineno in zip(cells, cell_lines):
        if c.covector.n != n or c.tope.n != n:
            raise ParseError(f"{name}:{lineno}: sign vectors of length "
                             f"{c.covector.n} and {c.tope.n}, expected {n}")
        if c in seen:
            raise ParseError(f"{name}:{lineno}: duplicate cell {c}")
        seen.add(c)
    m = OrientedMatroid(n, {c.covector for c in cells})
    report = m.verify()
    if not report.passes:
        raise ParseError(f"{name}: covector axiom {report.first_failure}")
    want, want_covers = salvetti_complex(m)
    index = {c: i for i, c in enumerate(want)}
    for c, lineno in zip(cells, cell_lines):
        if c not in index:
            raise ParseError(f"{name}:{lineno}: {c} of dimension {c.dim} "
                             "is not a Salvetti cell")
    pairs, got = set(want_covers), set()
    for (a, b), lineno in zip(covers, cover_lines):
        pair = index[cells[a]], index[cells[b]]
        if pair not in pairs:
            raise ParseError(f"{name}:{lineno}: {cells[a]} is not a facet "
                             f"of {cells[b]}")
        got.add(pair)
    if len(cells) < len(want):
        c = next(c for c in want if c not in seen)
        raise ParseError(f"{name}: missing cell {c} of dimension {c.dim}")
    if len(got) < len(pairs):
        a, b = next(p for p in want_covers if p not in got)
        raise ParseError(f"{name}: missing cover {want[a]} < {want[b]}")
    return m


def emit_salvetti_poset(cells, covers) -> str:
    lines = [f"{c.dim} {c.covector} {c.tope}" for c in cells]
    lines += [f"{i} {j}" for i, j in sorted(covers)]
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
    try:
        return cw_from_covers(cells, covers)
    except (ConsistencyFailure, Disconnected, NotAntisymmetric) as exc:
        raise ParseError(f"{name}: {exc}") from None


def load_oriented_matroid(path) -> OrientedMatroid:
    """Dispatch on extension: .cov, .poset, .arr (expanded), .chi (expanded)."""
    path = Path(path)
    suffix = path.suffix
    if suffix == ".cov":
        return parse_covectors(path)
    if suffix == ".poset":
        return parse_salvetti_poset(path)
    if suffix == ".arr":
        return from_arrangement(parse_arrangement(path))
    if suffix == ".chi":
        return span_from_cocircuits(cocircuits_from_chirotope(parse_chirotope(path)))
    raise ParseError(f"{path}: unknown input format {suffix!r}")
