"""The rules every change keeps: standard-library imports only, no
floats, the module layering, no stale names in the package exports, no
public name that only the tests read, one bit iterator, posets built
only from their covers, one place that asks an MH question, one
breadth-first search, one Smith elimination, one canonical sort, chains
listed only for the matrix dump, no unused imports, and the nbc and
homology routes of gr-compare kept apart."""

import ast
import sys
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


def _unread_public_names(trees, exported):
    """module:name of every public module-level function or class, and of
    every non-dunder name a module-level assignment binds, that is
    neither exported nor read (as a name or an attribute, in Load
    context) in any module, and module:Class.name of every public
    method, property or classmethod of a module-level class that no
    module reads, exported or not."""
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
    unread += [f"{mod}:{node.name}.{member.name}" for mod, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)
               for member in node.body if isinstance(member, ast.FunctionDef)
               and not member.name.startswith("_") and member.name not in read]
    return sorted(set(unread))


def test_no_public_name_only_tests_read():
    # __init__.py only imports names to export them
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert not _unread_public_names(trees, set(omsal.__all__))
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
        {"h", "D", "U"}) == ["a:C", "a:D.unused", "a:V", "a:W", "a:X", "a:_T", "a:f"]


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
            {"cli.py": ["_cmd_homology"]}, name
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


HOMOLOGY_ROUTE = {"face_poset", "salvetti_complex", "IntegerChainComplex", "FinitePoset"}


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
