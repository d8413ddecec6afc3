"""Source-level rules for the package.

Invariants raise typed ``TorusRigError``s rather than ``assert``, which
``python -O`` strips.  No object is built through ``__new__``, so every
``TorusComplex`` and ``DiscMap`` passes its constructor's checks, and
``reduction`` calls neither constructor: every child hole is built by
``retriangulate_holes``.  Every definition in the package has a user: code
that only tests call lives in ``tests/helpers.py``, and the public names
that nothing in the package calls are the ones the package docstring lists.  Every name a module
imports is used there, except the bindings the benchmark tracer wraps.
Every import is from the standard library or relative, as the empty
``dependencies`` of ``pyproject.toml`` promise (numpy, say, would also add
about 14 MB to a process's resident memory).  Only ``sparsity`` knows the
pebble board a ``Graph`` keeps, and a violation's witness comes from that
board, not from a second engine.  Every pebble moves through one search,
which always logs what it changes.  Each move of the graph calculus,
contraction and vertex split, has one body, which changes a working
adjacency in place.
"""

import ast
import collections
import importlib.util
import inspect
import pathlib
import re
import sys

import pytest

import torusrig
from torusrig.sparsity import SparsityVerdict

TESTS = pathlib.Path(__file__).resolve().parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"
SOURCES = sorted((TESTS.parent / "src" / "torusrig").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_object_built_through_new(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert not lines, f"{path.name}: __new__ at lines {lines}"


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes,
    as (AST node, owning class or None) pairs; dunder methods are called by
    the language, not by name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, None
        if isinstance(node, ast.ClassDef):
            yield from ((m, node) for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _names_used(tree) -> collections.Counter:
    """How often each identifier occurs as a bare name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _reads(tree, attributes) -> collections.Counter:
    """How often each identifier is read as an attribute, ``x.name``: at
    every call ``x.name(...)``, and at every other load unless the name is
    one of ``attributes``.  An assignment ``self.name = ...`` is no read."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return collections.Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and (id(node) in called or node.attr not in attributes))


def _acceptance_imports():
    tree = ast.parse((TESTS / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("torusrig")
            for alias in node.names}


def test_every_definition_has_a_user():
    # a definition is used when src/ names it outside its own body, exports
    # it, or the acceptance criteria import it; cli.main is the entry point.
    # A method counts as named only where src/ reads it as an attribute, so
    # a local variable of the same name does not hide an unused method.  A
    # method or a property is read where it is called, or loaded under a
    # name that no instance attribute of src/ (``self.name = ...``) has, so
    # that an attribute such as TorusWithHole.boundary_edges or .graph hides
    # no unused method or property of its name.
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    attributes = {node.attr for t in trees.values() for node in ast.walk(t)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    named = sum((_names_used(t) for t in trees.values()), collections.Counter())
    called = sum((_reads(t, attributes) for t in trees.values()), collections.Counter())

    def unread(node, owner) -> bool:
        if owner is None:
            return named[node.name] == _names_used(node)[node.name]
        return called[node.name] == _reads(node, attributes)[node.name]

    allowed = set(torusrig.__all__) | _acceptance_imports() | {"main"}
    unused = [f"{name}:{node.lineno} {owner.name + '.' if owner else ''}{node.name}"
              for name, tree in trees.items() if name != "__init__.py"
              for node, owner in _definitions(tree)
              if node.name not in allowed and unread(node, owner)]
    assert not unused, f"defined in src/ but used only by tests: {unused}"


# public names with no caller in src/, each kept for the reason the package
# docstring gives
TEST_ONLY_PUBLIC = {
    "contract", "cut_hole", "cut_holes", "divide", "double_banana",
    "find_critical_cycle_through", "fission", "is_in_T", "is_isomorphic",
    "is_uncontractible", "rigidity_matrix",
}


def test_public_names_without_a_caller_are_listed():
    named = sum((_names_used(ast.parse(p.read_text(), filename=str(p)))
                 for p in SOURCES if p.name != "__init__.py"),
                collections.Counter())
    assert {n for n in torusrig.__all__ if not named[n]} == TEST_ONLY_PUBLIC
    assert all(f"``{n}``" in torusrig.__doc__ for n in TEST_ONLY_PUBLIC)


def _traced_bindings(monkeypatch) -> dict:
    """{module: names} of the bindings ``perfbench/tracer.py`` wraps, which
    a module keeps so that the tracer finds them even if it never calls
    them.  The tracer is loaded read-only, as in test_tracer.py."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = collections.defaultdict(set)
    for _name, _home, attr, modules in tracer.LAYERS:
        for module in modules or ():
            bindings[module].add(attr)
    return bindings


def test_every_import_is_used(monkeypatch):
    exempt = _traced_bindings(monkeypatch)
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        named = _names_used(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name not in exempt[path.stem] and not named[name]]
    assert not unused, f"imported in src/ but never used: {unused}"


def _board_uses(node, scope=""):
    """Every ``_board`` attribute under ``node``, with the dotted names of
    the classes and functions it sits in."""
    if isinstance(node, ast.Attribute) and node.attr == "_board":
        yield scope, node
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from _board_uses(child, inner)


def test_only_sparsity_touches_a_board():
    # a graph's board is its one ``_board`` slot: no module but sparsity
    # reads or writes it, except for the None default of Graph.__init__,
    # and in sparsity only _pebble_sparse, check_3_6's memo, writes it.  No
    # trace is left of the earlier slots or of a link from a graph to the
    # graph it was derived from
    touched, gone = [], []
    for path in SOURCES:
        text = path.read_text()
        gone += [f"{path.name}:{n}" for n, line in enumerate(text.splitlines(), 1)
                 if re.search(r"\b_(origin|delta|orientation|pebbles)\b", line)]
        tree = ast.parse(text, filename=str(path))
        defaults = {id(t) for a in ast.walk(tree) if isinstance(a, ast.Assign)
                    and isinstance(a.value, ast.Constant) and a.value.value is None
                    for t in a.targets}
        for scope, node in _board_uses(tree):
            writes = isinstance(node.ctx, ast.Store)
            if path.name == "sparsity.py":
                allowed = not writes or scope == "_pebble_sparse"
            else:
                allowed = (path.name, scope) == ("graphs.py", "Graph.__init__") \
                    and id(node) in defaults
            if not allowed:
                touched.append(f"{path.name}:{node.lineno}")
    assert not touched, f"a board is read or written where it may not be at {touched}"
    assert not gone, f"a removed board slot or origin link is named at {gone}"


def test_reduction_builds_no_torus_or_disc():
    # every child hole, a contraction's, the leaf or a fission's, is built
    # by complexes.retriangulate_holes, never assembled in reduction
    path = TESTS.parent / "src" / "torusrig" / "reduction.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("TorusComplex", "DiscMap")]
    assert not lines, f"reduction.py builds a torus or a disc at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.append((node.lineno, node.module))
    outside = [f"{path.name}:{line} {name}" for line, name in modules
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"imports from outside the standard library: {outside}"


def test_one_engine_decides_and_witnesses():
    # a violation's witness is read off the failing pebble-game placement:
    # no flow scan and no callable or lazily computed witness is left in
    # the package, and the key-lemma search builds no G/e to find one
    scans, lazy, contractions = [], [], []
    for path in SOURCES:
        text = path.read_text()
        scans += [f"{path.name}:{n}" for n, line in enumerate(text.splitlines(), 1)
                  if "_flow_scan" in line]
        tree = ast.parse(text, filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                args = node.args + [k.value for k in node.keywords]
                if name == "callable" or name == "SparsityVerdict" and any(
                        isinstance(a, ast.Lambda) for a in args):
                    lazy.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "find_critical_cycle_through":
                contractions += [
                    f"{path.name}:{c.lineno}" for c in ast.walk(node)
                    if isinstance(c, ast.Call) and "contract_edge" in
                    (getattr(c.func, "id", None), getattr(c.func, "attr", None))]
    assert not scans, f"a flow scan is named in src/ at {scans}"
    assert not lazy, f"a witness is computed on demand at {lazy}"
    assert not contractions, f"the key-lemma search builds G/e at {contractions}"
    assert not isinstance(inspect.getattr_static(SparsityVerdict, "witness"), property)


def test_one_pebble_search():
    # fetch_pebble is one depth-first search whose path reversal always
    # logs, so every caller passes its pinned vertices and a log, and every
    # caller of _dead its spent vertices
    path = TESTS.parent / "src" / "torusrig" / "maxflow.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defaults = [f"{node.name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name in ("fetch_pebble", "_dead")
                and (node.args.defaults or any(node.args.kw_defaults))]
    switches = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and getattr(node.left, "id", None) == "log"
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and getattr(node.comparators[0], "value", 0) is None]
    assert not defaults, f"a pebble-search parameter has a default: {defaults}"
    assert not switches, f"maxflow.py branches on a missing log at lines {switches}"


def test_one_body_per_move():
    # graphs.py has one function per move, contraction and vertex split,
    # each changing a working adjacency in place, so no move that builds a
    # new graph comes back beside it; reduction.py, whose loop and replay
    # run those bodies, names neither old move
    src = TESTS.parent / "src" / "torusrig"
    tree = ast.parse((src / "graphs.py").read_text())
    moves = sorted(node.name for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and re.search("contract|split", node.name))
    assert moves == ["_contract_in_place", "_split_in_place"], moves
    text = (src / "reduction.py").read_text()
    named = [f"reduction.py:{n}" for n, line in enumerate(text.splitlines(), 1)
             if re.search(r"\b(contract_edge|split_vertex)\b", line)]
    assert not named, f"an old graph move is named at {named}"
