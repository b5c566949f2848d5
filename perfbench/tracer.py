"""Spans around the package's public boundaries, recorded from outside.

`install()` wraps the functions and methods listed in TARGETS and
rebinds every `omsal.*` module attribute that refers to the original,
since `from x import y` copies the reference.  Each call records a span
(name, start, end, parent span) in memory plus the counters its hook
derives from arguments and result, outside the timed interval.
`Tracer.dump` writes them as JSON when the job ends.

Hot leaf functions (the `signs` operations, `salvetti.cell_leq`, the
`FinitePoset` mask accessors) stay unwrapped: a wrapper would cost more
than the call.  Their time counts toward the caller's self time.

`layer_metrics` turns the spans and counters of a set of jobs into the
per-layer metrics named in PER_LAYER.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _path_bytes(source):
    if isinstance(source, (str, os.PathLike)) and "\n" not in str(source):
        try:
            return os.path.getsize(source)
        except OSError:
            return 0
    return 0


def _sized(x):
    return len(x) if hasattr(x, "__len__") else 0


# (module, attribute or Class.method, span name, counter hook)
# A hook gets (tracer, args, result) and runs after the span has ended.
TARGETS = (
    ("fileio", "load_oriented_matroid", "fileio.load_oriented_matroid",
     lambda tr, a, r: tr.add("matroid.covectors", len(r.covectors))),
    *(("fileio", f"parse_{form}", "fileio.parse",
       lambda tr, a, r: tr.add("fileio.bytes_in", _path_bytes(a[0])))
      for form in ("arrangement", "covectors", "chirotope", "cw",
                   "salvetti_poset")),
    ("matroid", "from_arrangement", "matroid.from_arrangement", None),
    ("matroid", "cocircuits_from_chirotope",
     "matroid.cocircuits_from_chirotope", None),
    ("matroid", "span_from_cocircuits", "matroid.span_from_cocircuits",
     lambda tr, a, r: tr.add("matroid.cocircuits", _sized(a[0]))),
    ("matroid", "verify_axioms", "matroid.verify_axioms",
     lambda tr, a, r: tr.seen_before("matroid.verify_axioms.repeats", a[0])),
    ("matroid", "OrientedMatroid.face_poset", "matroid.face_poset", None),
    ("posets", "build_poset", "posets.build_poset",
     lambda tr, a, r: tr.add("posets.build_poset.pairs", len(r) ** 2)),
    ("posets", "order_complex", "posets.order_complex",
     lambda tr, a, r: tr.add("posets.order_complex.faces", len(r.faces()))),
    ("salvetti", "build_salvetti_poset", "salvetti.build_salvetti_poset",
     lambda tr, a, r: tr.add("salvetti.cells", len(r))),
    ("salvetti", "oriented_one_skeleton", "salvetti.oriented_one_skeleton",
     None),
    ("homology", "homology", "homology.homology", None),
    ("homology", "collapse", "homology.collapse",
     lambda tr, a, r: (tr.add("homology.collapse.faces_in",
                              sum(map(len, a[0]))),
                       tr.add("homology.collapse.faces_out",
                              sum(map(len, r))))),
    ("homology", "IntegerChainComplex.from_faces", "homology.from_faces",
     lambda tr, a, r: tr.add("homology.boundary_nnz",
                             sum(len(row) for b in r.boundaries
                                 for row in b.values()))),
    ("homology", "IntegerChainComplex.homology", "homology.snf", None),
    ("homology", "write_matrix_text", "homology.write_matrix_text",
     lambda tr, a, r: tr.add("homology.dump_bytes", _path_bytes(a[1]))),
    ("osalg", "flats_from_covectors", "osalg.flats_from_covectors", None),
    ("osalg", "nbc_sets", "osalg.nbc_sets", None),
    ("osalg", "gr_comparison", "osalg.gr_comparison", None),
    ("paths", "minimal_positive_paths", "paths.minimal_positive_paths",
     lambda tr, a, r: tr.add("paths.paths_enumerated", len(r))),
    ("paths", "skeleton_adjacency", "paths.skeleton_adjacency", None),
    ("mh", "mh_check", "mh.mh_check", None),
    ("mh", "salvetti_cw", "mh.salvetti_cw",
     lambda tr, a, r: tr.add("mh.cw_cells", len(r))),
    ("mh", "dual_complex", "mh.dual_complex",
     lambda tr, a, r: tr.add("mh.cw_cells", len(r))),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name index, start, end, parent span or -1]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._verified: set = set()

    def add(self, counter: str, value: int):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def seen_before(self, counter: str, vectors):
        key = frozenset(vectors)
        self.add(counter, key in self._verified)
        self._verified.add(key)

    def wrap(self, fn, name: str, hook):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span[1], span[2] = t0, t1
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, fh)


def install(package: str = "omsal") -> Tracer:
    """Wrap the TARGETS of the already imported package; return the tracer."""
    tracer = Tracer()
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == package
                                  or name.startswith(package + "."))]
    for mod_name, attr, name, hook in TARGETS:
        # a target the package no longer has is skipped; its metrics read 0
        mod = sys.modules.get(f"{package}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            raw = vars(getattr(mod, cls_name, object)).get(meth)
            if isinstance(raw, classmethod):
                setattr(getattr(mod, cls_name), meth,
                        classmethod(tracer.wrap(raw.__func__, name, hook)))
            elif callable(raw):
                setattr(getattr(mod, cls_name), meth,
                        tracer.wrap(raw, name, hook))
            continue
        original = getattr(mod, attr, None)
        if not callable(original):
            continue
        wrapped = tracer.wrap(original, name, hook)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return tracer


# -- aggregation, in run.py ----------------------------------------------------

# the per-layer metrics reported by a traced run, with their units
PER_LAYER = (
    ("fileio.load_oriented_matroid.self_s", "s"),
    ("fileio.parse.self_s", "s"),
    ("fileio.bytes_in", "bytes"),
    ("matroid.from_arrangement.self_s", "s"),
    ("matroid.cocircuits_from_chirotope.self_s", "s"),
    ("matroid.span_from_cocircuits.self_s", "s"),
    ("matroid.verify_axioms.self_s", "s"),
    ("matroid.verify_axioms.calls", "count"),
    ("matroid.verify_axioms.repeat_ratio", "ratio"),
    ("matroid.face_poset.self_s", "s"),
    ("matroid.covectors", "count"),
    ("matroid.cocircuits", "count"),
    ("posets.build_poset.self_s", "s"),
    ("posets.build_poset.calls", "count"),
    ("posets.build_poset.pairs", "count"),
    ("posets.order_complex.self_s", "s"),
    ("posets.order_complex.faces", "count"),
    ("salvetti.build_salvetti_poset.self_s", "s"),
    ("salvetti.build_salvetti_poset.calls", "count"),
    ("salvetti.cells", "count"),
    ("salvetti.oriented_one_skeleton.self_s", "s"),
    ("salvetti.oriented_one_skeleton.calls", "count"),
    ("homology.homology.self_s", "s"),
    ("homology.collapse.self_s", "s"),
    ("homology.collapse.removed_ratio", "ratio"),
    ("homology.from_faces.self_s", "s"),
    ("homology.snf.self_s", "s"),
    ("homology.boundary_nnz", "count"),
    ("homology.write_matrix_text.self_s", "s"),
    ("homology.dump_bytes", "bytes"),
    ("osalg.flats_from_covectors.self_s", "s"),
    ("osalg.nbc_sets.self_s", "s"),
    ("osalg.gr_comparison.self_s", "s"),
    ("paths.minimal_positive_paths.self_s", "s"),
    ("paths.minimal_positive_paths.calls", "count"),
    ("paths.paths_enumerated", "count"),
    ("paths.skeleton_adjacency.self_s", "s"),
    ("paths.skeleton_builds_per_query", "ratio"),
    ("mh.mh_check.self_s", "s"),
    ("mh.salvetti_cw.self_s", "s"),
    ("mh.dual_complex.self_s", "s"),
    ("mh.cw_cells", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def job_totals(trace: dict) -> dict:
    """Self seconds and calls per span name, plus the counters, of one job."""
    names, spans = trace["names"], trace["spans"]
    covered = [0.0] * len(spans)
    for nid, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    out = dict(trace["counters"])
    for (nid, t0, t1, _), child in zip(spans, covered):
        name = names[nid]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (t1 - t0 - child)
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals: dict) -> dict:
    """PER_LAYER values (except the overhead ratio) from summed job totals."""
    get = lambda key: totals.get(key, 0)
    derived = {
        "matroid.verify_axioms.repeat_ratio": _ratio(
            get("matroid.verify_axioms.repeats"),
            get("matroid.verify_axioms.calls")),
        "homology.collapse.removed_ratio": _ratio(
            get("homology.collapse.faces_in") - get("homology.collapse.faces_out"),
            get("homology.collapse.faces_in")),
        "paths.skeleton_builds_per_query": _ratio(
            get("salvetti.oriented_one_skeleton.calls"),
            get("paths.minimal_positive_paths.calls")),
    }
    return {name: derived.get(name, get(name))
            for name, _ in PER_LAYER if name != "trace.overhead_ratio"}
