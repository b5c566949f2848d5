"""Small CW complexes for the metric checks, and their .cw text.

cw_polygon, cw_octagon_chords, cw_octagon_pair and cw_two_squares build
the standalone CW inputs of the MH tests; emit_cw writes any CWPoset in
the format that omsal.fileio.parse_cw reads, for round trips and for the
.cw input of the CLI tests and the CLI transcript.
"""

from omsal.errors import ConsistencyFailure, UnknownFixture
from omsal.mh import CWPoset, cw_from_covers


def cw_polygon(k: int) -> CWPoset:
    """A single closed 2-cell with a k-gon boundary."""
    if k < 3:
        raise UnknownFixture("polygon needs at least 3 sides")
    cells = [(f"v{i}", 0) for i in range(1, k + 1)]
    cells += [(f"e{i}", 1) for i in range(1, k + 1)]
    cells.append(("top", 2))
    covers = []
    for i in range(1, k + 1):
        j = i % k + 1
        covers += [(f"v{i}", f"e{i}"), (f"v{j}", f"e{i}"), (f"e{i}", "top")]
    return cw_from_covers(cells, covers)


def cw_octagon_chords(trapezoid: bool) -> CWPoset:
    """An octagonal 2-cell, four free chords, optionally a trapezoidal
    2-cell glued onto three octagon edges and the chord c14.

    With the trapezoid the complex has additive farthest vertices
    globally but its two 2-cells disagree about the maps on shared
    edges; without it the per-cell maps agree with each other but not
    with the global ones (the chords shorten outside distances).
    """
    cells = [(f"v{i}", 0) for i in range(1, 9)]
    octagon = []
    for i in range(1, 9):
        j = i % 8 + 1
        octagon.append((f"e{i}{j}", i, j))
    chords = [("c14", 1, 4), ("c36", 3, 6), ("c58", 5, 8), ("c72", 7, 2)]
    cells += [(name, 1) for name, _, _ in octagon + chords]
    cells.append(("oct", 2))
    covers = []
    for name, a, b in octagon:
        covers += [(f"v{a}", name), (f"v{b}", name), (name, "oct")]
    for name, a, b in chords:
        covers += [(f"v{a}", name), (f"v{b}", name)]
    if trapezoid:
        cells.append(("trap", 2))
        covers += [(e, "trap") for e in ("e12", "e23", "e34", "c14")]
    return cw_from_covers(cells, covers)


def cw_octagon_pair() -> CWPoset:
    """Two copies of cw_octagon_chords(False) joined by an edge from v5
    to wv1.  The copy whose labels carry a 'w' has the first vertices
    but the last cells, so its failures are found after the other's
    while its (vertex, cell) keys are the smaller ones."""
    q = cw_octagon_chords(False)
    elements, dims = q.poset.elements, q.dims
    vertices = [x for x, d in zip(elements, dims) if d == 0]
    rest = [(x, d) for x, d in zip(elements, dims) if d > 0]
    cells = [("w" + x, 0) for x in vertices] + [(x, 0) for x in vertices]
    cells += rest + [("w" + x, d) for x, d in rest] + [("bridge", 1)]
    covers = [(elements[i], elements[j]) for i, j in q.poset.covers()]
    covers += [("w" + a, "w" + b) for a, b in covers]
    covers += [("v5", "bridge"), ("wv1", "bridge")]
    return cw_from_covers(cells, covers)


def cw_two_squares() -> CWPoset:
    """Two 2-cells on the four vertices of K4: sq bounded by the cycle
    a-b-c-d and bow by a-b-d-c.  Their closures have one vertex set but
    different edges, so their metrics differ: from a the far end of the
    shared edge cd is c inside sq and d inside bow."""
    cells = [(x, 0) for x in "abcd"]
    edges = ("ab", "bc", "cd", "ad", "ac", "bd")
    cells += [(e, 1) for e in edges] + [("sq", 2), ("bow", 2)]
    covers = [(x, e) for e in edges for x in e]
    covers += [(e, "sq") for e in ("ab", "bc", "cd", "ad")]
    covers += [(e, "bow") for e in ("ab", "bd", "cd", "ac")]
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
