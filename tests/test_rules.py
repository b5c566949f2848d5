"""The rules every change keeps: standard-library imports only, no
floats, the module layering, no stale names in the package exports, no
public name that only the tests read, one bit iterator, posets built
only from their covers, one place that asks an MH question, one
breadth-first search, one Smith elimination, one canonical sort, chains
listed only for the matrix dump, no unused imports, and the nbc and
homology routes of gr-compare kept apart, no cache at module level,
and every Hypothesis test derandomized."""

import ast
import sys
from collections import Counter
from pathlib import Path

import omsal

SRC = Path(__file__).parent.parent / "src" / "omsal"
TESTS = Path(__file__).parent


def _imported_modules(path):
    """Every module a source file imports, package-relative ones as omsal.x."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                mod = f"omsal.{mod}" if mod else "omsal"
            out.append(mod)
    return out


def test_stdlib_only_and_no_floats():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                roots = []
            bad += [f"{where}: import {r}" for r in roots
                    if r != "omsal" and r not in sys.stdlib_module_names]
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                bad.append(f"{where}: float literal {node.value!r}")
            if isinstance(node, ast.Name) and node.id == "float":
                bad.append(f"{where}: the name float")
    assert not bad


def test_every_export_resolves():
    assert not [name for name in omsal.__all__ if not hasattr(omsal, name)]


# A public class member whose spelling src also binds elsewhere (another
# member or field, a self attribute, a parameter or a local) counts as
# read only through the function named here, which must read it as an
# attribute: an unrelated name of the same spelling is no read.
SHARED_SPELLING_READERS = {
    "matroid:OrientedMatroid.rank": "salvetti:_salvetti_complex",
    "matroid:OrientedMatroid.topes": "paths:_adjacency",
    "matroid:RationalArrangement.n": "matroid:from_arrangement",
    "mh:_Skeleton.glob": "mh:_Analysis.__init__",
    "osalg:NbcTable.counts": "cli:_cmd_os_betti",
    "osalg:UnderlyingMatroid.rank": "osalg:circuits",
    "paths:PositivePath.topes": "paths:PositivePath.__str__",
    "posets:FinitePoset.covers": "mh:CWPoset._index_structure",
    "posets:FinitePoset.heights": "mh:dual_complex",
    "signs:SignVector.sign": "signs:SignVector.__str__",
    "signs:SignVector.zero": "matroid:verify_axioms",
}


# A public field of a NamedTuple record that src never reads as an
# attribute counts as read only as part of the answer of the exported
# function named here, which must build the record.
RETURNED_RECORD_FIELDS = {
    "mh:SkeletonDistances.global_d": "mh:skeleton_distances",
    "mh:SkeletonDistances.local_d": "mh:skeleton_distances",
    "paths:LatticeEquivalenceReport.simplicial": "paths:lattice_equivalence_check",
    "paths:LatticeEquivalenceReport.simplicial_witness": "paths:lattice_equivalence_check",
    "paths:LatticeEquivalenceReport.lattice_witness": "paths:lattice_equivalence_check",
}


def _attribute_reads(node):
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def _bindings_and_scopes(trees):
    """(spellings, scopes): a Counter of every name src binds as a class
    member or field, a self attribute, a parameter or a function local,
    and module:Dotted.name -> node of every function and class."""
    spellings = Counter()
    scopes = {}

    def visit(node, mod, scope):
        if scope and isinstance(node, ast.FunctionDef):
            spellings[node.name] += 1  # a member or a nested function
        if scope and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            spellings[node.id] += 1  # a class field or a local
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            spellings.update(a.arg for a in args.posonlyargs + args.args
                             + args.kwonlyargs + [args.vararg, args.kwarg] if a)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and getattr(node.value, "id", None) == "self":
            spellings[node.attr] += 1
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
            scopes[f"{mod}:{'.'.join(scope)}"] = node
        for child in ast.iter_child_nodes(node):
            visit(child, mod, scope)

    for mod, tree in trees.items():
        visit(tree, mod, ())
    return spellings, scopes


def _unread_public_names(trees, exported, readers, returned):
    """module:name of every public module-level function or class, and of
    every non-dunder name a module-level assignment binds, that is
    neither exported nor read (as a name or an attribute, in Load
    context) in any module, and module:Class.name of every public
    method, property or classmethod of a module-level class that no
    module reads as an attribute, exported or not.  A member whose
    spelling src binds anywhere else is read only if readers names a
    function that reads it as an attribute; a readers entry for no such
    member is listed as stale.  So is module:Record.field of every public
    field of a NamedTuple class whose spelling no module reads as an
    attribute, unless returned names an exported function that builds
    the record; a returned entry for no such field is listed as stale."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{mod}:{node.name}" for mod, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in exported and node.name not in read]
    unread += [f"{mod}:{target.id}" for mod, tree in trees.items()
               for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign)
                              else [node.target])
               if isinstance(target, ast.Name) and not target.id.startswith("__")
               and target.id not in exported and target.id not in read]
    attr_read = set().union(*map(_attribute_reads, trees.values()))
    spellings, scopes = _bindings_and_scopes(trees)
    shared = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                key = f"{mod}:{node.name}.{member.name}"
                if spellings[member.name] > 1:
                    shared.add(key)
                    reader = scopes.get(readers.get(key))
                    if reader is None or member.name not in _attribute_reads(reader):
                        unread.append(key)
                elif member.name not in attr_read:
                    unread.append(key)
    unread += [f"{key} (stale reader entry)" for key in readers if key not in shared]
    answered = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and "NamedTuple" in
                    {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}):
                continue
            for member in node.body:
                name = getattr(getattr(member, "target", None), "id", "_")
                if not isinstance(member, ast.AnnAssign) or name.startswith("_") \
                        or name in attr_read:
                    continue
                key = f"{mod}:{node.name}.{name}"
                builder = scopes.get(returned.get(key))
                if builder is not None and builder.name in exported and node.name in \
                        {getattr(c.func, "id", getattr(c.func, "attr", None))
                         for c in ast.walk(builder) if isinstance(c, ast.Call)}:
                    answered.add(key)
                else:
                    unread.append(key)
    unread += [f"{key} (stale returned entry)" for key in returned if key not in answered]
    return sorted(set(unread))


def test_no_public_name_only_tests_read():
    # __init__.py only imports names to export them
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    exported = set(omsal.__all__)
    assert not _unread_public_names(trees, exported, SHARED_SPELLING_READERS,
                                    RETURNED_RECORD_FIELDS)
    # an export covers a module-level name but none of a class's members;
    # an assigned name counts, private or not, unless it is a dunder, and
    # binding it again is no read
    assert _unread_public_names(
        {"a": ast.parse("def f():\n    return g().used()\ndef g():\n    pass\n"
                        "class C:\n    pass\ndef h():\n    pass\n"
                        "class D:\n    def used(self):\n        pass\n"
                        "    def unused(self):\n        pass\n"
                        "    def _own(self):\n        pass\n"
                        "_T = (1, 2)\nU: int = 3\nV = W = 4\n__all__ = []\n"
                        "_READ = 5\nX = _READ\nX = 6\n")},
        {"h", "D", "U"}, {}, {}) == ["a:C", "a:D.unused", "a:V", "a:W", "a:X", "a:_T", "a:f"]
    # a member counts as read only as an attribute; one whose spelling is
    # also a parameter, a local, a field or another member counts only
    # through the reader the table names, and only if that reader reads it
    assert _unread_public_names(
        {"a": ast.parse("class E:\n    def bare(self):\n        pass\n"
                        "    def size(self):\n        pass\n"
                        "    def kind(self):\n        pass\n"
                        "    def tag(self):\n        pass\n"
                        "    def mark(self):\n        pass\n"
                        "class F:\n    mark: int\n"
                        "    def read(self, e):\n        return e.mark()\n"
                        "def r(e, size):\n    kind = e.kind()\n"
                        "    return bare, e.size(), kind\n"
                        "def s(e):\n    tag = 1\n    return tag, e.bare, F().read\n")},
        {"E", "F", "r", "s"},
        {"a:E.kind": "a:r", "a:E.tag": "a:s", "a:E.mark": "a:F.read",
         "a:E.bare": "a:s"}, {}) == ["a:E.bare (stale reader entry)", "a:E.size", "a:E.tag"]
    # a record field that src never reads as an attribute is flagged, as
    # the removed DirectedEdge.source (always cell.tope) and NbcTable.order
    # (the caller's argument) would be
    for mod, cls, field in (("salvetti", "DirectedEdge", "source: SignVector"),
                            ("osalg", "NbcTable", "order: tuple")):
        text = (SRC / f"{mod}.py").read_text().replace(
            f"class {cls}(NamedTuple):\n", f"class {cls}(NamedTuple):\n    {field}\n")
        grown = dict(trees, **{mod: ast.parse(text)})
        assert _unread_public_names(grown, exported, SHARED_SPELLING_READERS,
                                    RETURNED_RECORD_FIELDS) == \
            [f"{mod}:{cls}.{field.split(':')[0]}"]
    # a returned entry holds only for an unread field of a record that
    # an exported function builds
    assert _unread_public_names(
        {"a": ast.parse("class R(typing.NamedTuple):\n    kept: int\n    seen: int\n"
                        "    lost: int\n    held: int\n    _own: int\n"
                        "class S(NamedTuple):\n    x: int\n"
                        "def f():\n    return R(1, 2, 3, 4, 5)\n"
                        "def g():\n    return S(1)\n"
                        "def h():\n    return f().seen\n"
                        "class P:\n    mark: int\n")},
        {"R", "S", "P", "f", "h"},
        {}, {"a:R.kept": "a:f", "a:R.seen": "a:f", "a:R.held": "a:g",
             "a:S.x": "a:g"}) == \
        ["a:R.held", "a:R.held (stale returned entry)", "a:R.lost",
         "a:R.seen (stale returned entry)", "a:S.x", "a:S.x (stale returned entry)",
         "a:g"]


def test_module_layering():
    # posets and signs are leaves: they need nothing from the package
    # but its errors
    allowed = {"posets.py": {"__future__", "omsal.errors"},
               "signs.py": {"__future__", "typing", "omsal.errors"}}
    for leaf, mods in allowed.items():
        assert set(_imported_modules(SRC / leaf)) <= mods, leaf
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    bad = [f"{path.name}: {mod}" for path in sorted(SRC.glob("*.py"))
           for mod in _imported_modules(path)
           if mod.split(".")[0] in test_modules]
    assert not bad


def _lowest_bit_uses(tree):
    """(function name, line) of every x & -x in a module, at any depth."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if (isinstance(b, ast.UnaryOp) and isinstance(b.op, ast.USub)
                        and ast.dump(b.operand) == ast.dump(a)):
                    out.append((func, node.lineno))
                    break
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_one_bit_iterator():
    # posets.iter_bits is the one place that strips the lowest set bit
    uses = {path.name: _lowest_bit_uses(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))}
    assert [func for func, _ in uses.pop("posets.py")] == ["iter_bits"]
    assert not {name: found for name, found in uses.items() if found}
    assert _lowest_bit_uses(ast.parse("def f(m):\n    return (m & -m).bit_length()\n")) \
        == [("f", 2)]


def _calls_of(tree, name):
    """Lines of every call to name, bare or as a module attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_posets_built_only_from_covers():
    # outside posets.py a FinitePoset comes from from_covers or dual()
    calls = {path.name: _calls_of(ast.parse(path.read_text()), "FinitePoset")
             for path in sorted(SRC.glob("*.py")) if path.name != "posets.py"}
    assert not {name: found for name, found in calls.items() if found}
    assert _calls_of(ast.parse(
        "p = FinitePoset.from_covers(e, c)\nq = posets.FinitePoset(e, u, d, a, b)\n"
        "r = FinitePoset(e, u, d, a, b)\n"), "FinitePoset") == [2, 3]


def test_chain_complexes_built_only_by_their_builders():
    # a complex in src/ comes from from_faces or from_cw_covers, which emit
    # the nonzero int entries and nonempty rows the constructor stores as
    # given
    calls = {path.name: _calls_of(ast.parse(path.read_text()), "IntegerChainComplex")
             for path in sorted(SRC.glob("*.py"))}
    assert not {name: found for name, found in calls.items() if found}
    assert _calls_of(ast.parse(
        "c = IntegerChainComplex.from_faces(f)\n"
        "d = homology.IntegerChainComplex(s, b)\n"
        "e = IntegerChainComplex(s, b)\n"), "IntegerChainComplex") == [2, 3]


def _enclosing_scopes_of_calls(tree, name, key=None):
    """The dotted class and function scope of every call to name, bare
    or as an attribute, in source order; with key, only the calls that
    pass key=<that bare name>."""
    out = []

    def visit(node, scope):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", getattr(node.func, "attr", None)) == name \
                and (key is None or any(kw.arg == "key" and getattr(kw.value, "id", None) == key
                                        for kw in node.keywords)):
            out.append(".".join(scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def test_one_place_asks_an_mh_question():
    # every route to a farthest column goes through the per-metric memo
    calls = {path.name: _enclosing_scopes_of_calls(ast.parse(path.read_text()),
                                                   "_omega_column")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == \
        {"mh.py": ["_Analysis.answer"]}
    assert _enclosing_scopes_of_calls(ast.parse(
        "class A:\n    def answer(self):\n        return _omega_column(1)\n"
        "def f(a):\n    return a.answer() or mh._omega_column(2)\n"),
        "_omega_column") == ["A.answer", "f"]


def test_one_bfs():
    # mh._bfs is the one breadth-first search: the only popleft call
    calls = {path.name: _enclosing_scopes_of_calls(ast.parse(path.read_text()),
                                                   "popleft")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == \
        {"mh.py": ["_bfs"]}
    assert _enclosing_scopes_of_calls(ast.parse(
        "def _bfs(dq):\n    return dq.popleft()\n"
        "class A:\n    def walk(self, dq):\n        dq.popleft()\n"),
        "popleft") == ["_bfs", "A.walk"]


def test_one_canonical_sort():
    # a matroid's vectors are put in sign-string order once, by
    # _sorted_covectors, and its cocircuits, topes and Salvetti cells
    # inherit that order; verify_axioms takes arbitrary input
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = {name: sorted(scope for call in ("sorted", "sort")
                          for scope in _enclosing_scopes_of_calls(tree, call, key="str"))
             for name, tree in trees.items()}
    assert {name: scopes for name, scopes in found.items() if scopes} == \
        {"matroid.py": ["_sorted_covectors", "verify_axioms"]}
    snippet = ast.parse("def f(v):\n    return sorted(v, key=str), sorted(v, key=len), sorted(v)\n"
                        "class C:\n    def g(self, v):\n        v.sort(key=str)\n")
    assert _enclosing_scopes_of_calls(snippet, "sorted", key="str") == ["f"]
    assert _enclosing_scopes_of_calls(snippet, "sort", key="str") == ["C.g"]


def test_one_elimination():
    # one Smith engine: homology() runs the unit sweep, the sweep alone
    # hands its leftovers to the dense stage
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for name, scopes in (("_sparse_eliminate", ["IntegerChainComplex.homology"]),
                         ("_dense_diagonalize", ["_sparse_eliminate"])):
        calls = {path: _enclosing_scopes_of_calls(tree, name)
                 for path, tree in trees.items()}
        assert {path: found for path, found in calls.items() if found} == \
            {"homology.py": scopes}
    assert _enclosing_scopes_of_calls(ast.parse(
        "class C:\n    def homology(self, r):\n        return _sparse_eliminate(r)\n"
        "def coreduce(r):\n    return homology._sparse_eliminate(r)\n"),
        "_sparse_eliminate") == ["C.homology", "coreduce"]


def test_one_cellular_assembly():
    # the Salvetti chain complex has one builder, and it is the one
    # from_cw_covers call of src/
    calls = {path.name: _enclosing_scopes_of_calls(ast.parse(path.read_text()),
                                                   "from_cw_covers")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == \
        {"salvetti.py": ["salvetti_chain_complex"]}
    assert _enclosing_scopes_of_calls(ast.parse(
        "def salvetti_chain_complex(m):\n"
        "    return IntegerChainComplex.from_cw_covers(g, c)\n"
        "def _cmd_homology(a):\n    return homology.IntegerChainComplex.from_cw_covers(g, c)\n"),
        "from_cw_covers") == ["salvetti_chain_complex", "_cmd_homology"]


def test_poset_files_read_only_as_subjects():
    # a .poset is loaded as the oriented matroid it lists, by the one
    # suffix dispatch, so no command reads it as a loose cell poset
    calls = {path.name: _enclosing_scopes_of_calls(ast.parse(path.read_text()),
                                                   "parse_salvetti_poset")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == \
        {"fileio.py": ["load_oriented_matroid"]}
    assert _enclosing_scopes_of_calls(ast.parse(
        "def load_oriented_matroid(p):\n    return parse_salvetti_poset(p)\n"
        "def _cmd_salvetti(a):\n    return fileio.parse_salvetti_poset(a.infile)\n"),
        "parse_salvetti_poset") == ["load_oriented_matroid", "_cmd_salvetti"]


def test_chains_listed_only_for_the_matrix_dump():
    # the exponential chain enumeration, and the count that sizes it,
    # serve the order-complex dump only
    for name in ("chain_layers", "chain_counts"):
        calls = {path.name: _enclosing_scopes_of_calls(ast.parse(path.read_text()),
                                                       name)
                 for path in sorted(SRC.glob("*.py"))}
        assert {path: found for path, found in calls.items() if found} == \
            {"homology.py": ["write_order_complex_dump"]}, name
    snippet = ast.parse(
        "def _cmd_homology(p):\n    return p.chain_layers()\n"
        "def nerve_check(p):\n    return len(p.chain_layers()[-1])\n"
        "class C:\n    def dump(self, p):\n        return p.chain_counts()\n")
    assert _enclosing_scopes_of_calls(snippet, "chain_layers") == \
        ["_cmd_homology", "nerve_check"]
    assert _enclosing_scopes_of_calls(snippet, "chain_counts") == ["C.dump"]


def _unused_imports(tree):
    """(name, line) of every imported name that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # __init__.py imports its names to export them
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert not {name: found for name, found in unused.items() if found}
    assert _unused_imports(ast.parse(
        "from __future__ import annotations\nimport os.path\n"
        "from .a import b, c as d\nd(os.sep)\n")) == [("b", 3)]


def _unstable_cache_keys(trees):
    """module:line of every .derived(...) argument that is not a bare name
    bound to a module-level def, in its own module or imported from one."""
    defs = {mod: {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            for mod, tree in trees.items()}
    bad = []
    for mod, tree in trees.items():
        bound = set(defs[mod])
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                bound |= {alias.asname or alias.name for alias in node.names
                          if alias.name in defs.get(node.module, ())}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "derived":
                bad += [f"{mod}:{node.lineno}"
                        for arg in node.args + [kw.value for kw in node.keywords]
                        if not (isinstance(arg, ast.Name) and arg.id in bound)]
    return bad


def _cache_writes(tree):
    """The enclosing scope of every write to a _derived attribute: a
    binding, an item assignment or deletion, or a mutating dict method."""
    out = []

    def visit(node, scope):
        target = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in \
                {"clear", "pop", "popitem", "setdefault", "update"}:
            target = node.func.value
        if getattr(target, "attr", None) == "_derived":
            out.append(".".join(scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def test_cache_keys_are_stable():
    # OrientedMatroid.derived keys its cache by the builder itself, so a
    # lambda or nested function would be a fresh key, and a silent
    # recomputation, on every call; the cache is created in __init__ and
    # written only by derived
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert not _unstable_cache_keys(trees)
    writes = {mod: _cache_writes(tree) for mod, tree in trees.items()}
    assert {mod: found for mod, found in writes.items() if found} == \
        {"matroid": ["OrientedMatroid.__init__", "OrientedMatroid.derived"]}
    snippet = {"a": ast.parse("from .b import g\ndef f(m):\n    return m\n"
                              "def use(m):\n    def h(m):\n        return 2\n"
                              "    return (m.derived(f), m.derived(g), m.derived(lambda m: 1),\n"
                              "            m.derived(h), m.derived(build=f))\n"),
               "b": ast.parse("def g(m):\n    return m\n")}
    assert _unstable_cache_keys(snippet) == ["a:7", "a:8"]
    assert _cache_writes(ast.parse(
        "def f(m):\n    m._derived[f] = 1\n    m._derived.pop(f)\n    del m._derived[f]\n"
        "    m._derived.update({})\n    m._derived = {}\n    return m._derived.get(f)\n"))\
        == ["f"] * 5


# The module-level mutable containers src may bind: constant lookup
# tables that nothing writes, and the memo of the named fixtures.  Any
# other state kept between calls lives in OrientedMatroid.derived, whose
# keys test_cache_keys_are_stable holds, so it is kept per matroid.
MODULE_CONTAINERS = {"fixtures:_cache", "signs:_CHARS", "signs:_SIGNS"}
_CONTAINER_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
                    "Counter", "deque", "ChainMap", "WeakKeyDictionary",
                    "WeakValueDictionary", "WeakSet"}


def _is_container(node):
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None)) in _CONTAINER_CALLS
    return isinstance(node, (ast.Dict, ast.List, ast.Set,
                             ast.DictComp, ast.ListComp, ast.SetComp))


def _module_containers(trees, allowed):
    """module:name of every mutable container that src binds outside a
    function (at module level or in a class body) and that allowed does
    not list, of every function memoized by functools.cache or lru_cache
    or holding a mutable default, and of every global statement; then
    each allowed entry that names no such binding, as stale."""
    found = []

    def visit(node, mod, scope, in_function):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and not in_function \
                and node.value is not None and _is_container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(f"{mod}:{scope}{t.id}" for t in targets if isinstance(t, ast.Name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            if any(_is_container(d) for d in args.defaults + args.kw_defaults if d):
                found.append(f"{mod}:{scope}{getattr(node, 'name', 'lambda')} (mutable default)")
            for deco in getattr(node, "decorator_list", ()):
                deco = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(deco, "id", getattr(deco, "attr", None)) in {"cache", "lru_cache"}:
                    found.append(f"{mod}:{scope}{node.name} (memoized)")
        if isinstance(node, ast.Global):
            found.extend(f"{mod}:{name} (global)" for name in node.names)
        if isinstance(node, ast.ClassDef) and not in_function:
            scope = scope + node.name + "."
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, mod, scope, in_function)

    for mod, tree in trees.items():
        visit(tree, mod, "", False)
    return sorted([name for name in found if name not in allowed]
                  + [f"{name} (stale entry)" for name in allowed if name not in found])


def test_no_module_level_cache():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert not _module_containers(trees, MODULE_CONTAINERS)
    # a dict cache at module level or on a class, a memoized function, a
    # mutable default and a global rebinding are each caught; a local
    # container and a tuple are not
    snippet = {"a": ast.parse(
        "_TABLE = {1: 2}\n_memo = {}\n_seen: set = set()\nNAMES = (1, 2)\n"
        "class C:\n    cache = defaultdict(list)\n    size = 3\n"
        "@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x\n"
        "@cache\ndef g(x):\n    return x\n"
        "def h(x, memo={}):\n    local = {}\n    return memo, local\n"
        "def k():\n    global _count\n    _count = 1\n")}
    assert _module_containers(snippet, {"a:_TABLE", "a:_gone"}) == \
        ["a:C.cache", "a:_count (global)", "a:_gone (stale entry)", "a:_memo",
         "a:_seen", "a:f (memoized)", "a:g (memoized)", "a:h (mutable default)"]


HOMOLOGY_ROUTE = {"face_poset", "salvetti_complex", "salvetti_chain_complex",
                  "IntegerChainComplex", "FinitePoset"}


def _homology_route_reads(tree):
    """(enclosing scope, name) of every read of a name on the homology
    route, bare or as an attribute, outside module-level imports."""
    out = []

    def visit(node, scope):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name in HOMOLOGY_ROUTE:
            out.append((".".join(scope), name))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def test_gr_compare_routes_stay_apart():
    # gr-compare checks nbc counts against Salvetti homology, so the nbc
    # route reads nothing of the face poset or the complex; only the
    # comparison itself reads both
    reads = _homology_route_reads(ast.parse((SRC / "osalg.py").read_text()))
    assert {scope for scope, _ in reads} == {"gr_comparison"}
    assert _homology_route_reads(ast.parse(
        "from .salvetti import salvetti_complex\n"
        "def gr_comparison(m):\n    return salvetti_complex(m)\n"
        "def _flat_ranks(m):\n    return m.face_poset().heights()\n"
        "class U:\n    def rank(self, p: FinitePoset):\n        return p\n")) == \
        [("gr_comparison", "salvetti_complex"), ("_flat_ranks", "face_poset"),
         ("U.rank", "FinitePoset")]


def _random_settings(trees):
    """file:line of every @settings(...) decorator, bare or as an
    attribute, that does not pass derandomize=True."""
    bad = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            for deco in getattr(node, "decorator_list", ()):
                func = getattr(deco, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) != "settings":
                    continue
                if not any(kw.arg == "derandomize" and getattr(kw.value, "value", None) is True
                           for kw in deco.keywords):
                    bad.append(f"{name}:{deco.lineno}")
    return bad


def test_hypothesis_tests_are_derandomized():
    # a derandomized test draws the same examples on every run and never
    # reads or writes the example database, so a tier-1 run is repeatable
    trees = {str(path.relative_to(TESTS)): ast.parse(path.read_text())
             for path in sorted(TESTS.rglob("*.py"))}
    assert not _random_settings(trees)
    snippet = ast.parse(
        "@settings(derandomize=True, max_examples=5)\ndef test_a(x):\n    pass\n"
        "@settings(max_examples=60, deadline=None)\ndef test_b(x):\n    pass\n"
        "@hypothesis.settings(derandomize=False)\ndef test_c(x):\n    pass\n"
        "class T:\n    @settings(database=None)\n    def test_d(self, x):\n        pass\n")
    assert _random_settings({"t.py": snippet}) == ["t.py:4", "t.py:7", "t.py:11"]
