"""Static checks over the `minlag` sources: unused imports (there, in the
tests and in tools/), argument design, unreferenced private names, public
names without a consumer, one sparse factorization, one home for the
operator K + M diag(p), the systems the Newton loop solves, one eigen path,
one classification, one writer of outputs, a package `__init__` that binds
nothing, and what importing the CLI loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "minlag"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
TOOLS = sorted((SRC.parent.parent / "tools").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_unused_import():
    assert unused_imports("import os\nimport math as m\nm.pi\n") == [
        "os (line 1)"]


@pytest.mark.parametrize("path", MODULES + TESTS + TOOLS,
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _annotation_name(node):
    """Last name of an annotation: `surface.DiscreteSurface` gives
    DiscreteSurface."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def surface_and_cubic_functions(source: str) -> list:
    """Functions taking both a surface and a cubic differential.

    A surface parameter is annotated `DiscreteSurface` or named `surface`;
    a cubic parameter is annotated `CubicDifferential` or named `q`.  The
    cubic differential carries its surface, so no function needs both.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        kinds = {(_annotation_name(p.annotation), p.arg) for p in params}
        surface = any(t == "DiscreteSurface" or n == "surface"
                      for t, n in kinds)
        cubic = any(t == "CubicDifferential" or n == "q" for t, n in kinds)
        if surface and cubic:
            found.append(f"{node.name} (line {node.lineno})")
    return found


def test_detects_surface_and_cubic_parameters():
    source = (
        "def a(u, s: DiscreteSurface, q): pass\n"
        "def b(surface, cubic: cubic.CubicDifferential): pass\n"
        "def c(u, t, q: CubicDifferential): pass\n"
        "def d(s: surface.DiscreteSurface, f): pass\n"
        "class K:\n"
        "    def e(self, surface, q): pass\n")
    assert surface_and_cubic_functions(source) == [
        "a (line 1)", "b (line 2)", "e (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_surface_and_cubic(path):
    assert surface_and_cubic_functions(path.read_text()) == []


def functions_with_try(source: str) -> set:
    """Names of the top-level functions that contain a try statement;
    a try outside any function counts as "<module>"."""
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    found = set()
    for node in ast.parse(source).body:
        if any(isinstance(n, tries) for n in ast.walk(node)):
            found.add(node.name if isinstance(node, ast.FunctionDef)
                      else "<module>")
    return found


def test_detects_try_blocks():
    source = ("def a():\n    try:\n        pass\n    finally:\n        pass\n"
              "def b():\n    def c():\n        try:\n            pass\n"
              "        except OSError:\n            pass\n"
              "def d():\n    pass\n"
              "try:\n    import x\nexcept ImportError:\n    pass\n")
    assert functions_with_try(source) == {"a", "b", "<module>"}


def test_only_main_maps_exceptions_in_cli():
    # `load_config` turns unreadable or invalid JSON into ConfigError;
    # every other failure reaches `main`, the one exception -> exit code map
    assert functions_with_try((SRC / "cli.py").read_text()) == {
        "main", "load_config"}


def _top_level_statements(sources: dict) -> list:
    """(file name, statement, identifiers it mentions) for every top-level
    statement of `sources` (file name -> text)."""
    found = []
    for name, source in sources.items():
        for node in ast.parse(source).body:
            ids = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    ids.add(n.id)
                elif isinstance(n, ast.Attribute):
                    ids.add(n.attr)
                elif isinstance(n, ast.alias):
                    ids.add(n.name)
            found.append((name, node, ids))
    return found


def _unmentioned(statements: list, defined: list) -> list:
    """The (file, statement, name) of `defined` that no other statement
    mentions, as "file: name (line n)"."""
    return [f"{name}: {t} (line {node.lineno})" for name, node, t in defined
            if not any(t in ids for _, stmt, ids in statements
                       if stmt is not node)]


def unreferenced_private_names(sources: dict) -> list:
    """Module-level `_`-prefixed functions, classes and constants of
    `sources` (file name -> text) that no top-level statement of any source
    mentions, other than the one that defines them.  Dunder names are
    exempt."""
    statements = _top_level_statements(sources)
    defined = []        # (file, statement, name)
    for name, node, _ in statements:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            targets = []
        defined += [(name, node, t) for t in targets
                    if t.startswith("_") and not t.startswith("__")]
    return _unmentioned(statements, defined)


def test_detects_unreferenced_private_names():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "_UNUSED = 4\n"
                 "def _helper(x):\n    return _helper(x - 1) if x else _LIMIT\n"
                 "def _orphan():\n    return _orphan()\n"
                 "class _Kind:\n    pass\n"
                 "def _shared():\n    pass\n"
                 "def public():\n    return _helper(1), _Kind\n"),
        "b.py": "from .a import _shared\n",
    }
    assert unreferenced_private_names(sources) == [
        "a.py: _UNUSED (line 2)", "a.py: _orphan (line 5)"]


def test_no_unreferenced_private_names():
    # an orphaned helper left behind by a refactor shows up here
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def unconsumed_public_functions(sources: dict) -> list:
    """Module-level public functions of `sources` (file name -> text) that
    no top-level statement of any source mentions, other than the one that
    defines them."""
    statements = _top_level_statements(sources)
    return _unmentioned(statements, [
        (name, node, node.name) for name, node, _ in statements
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")])


def test_detects_unconsumed_public_functions():
    sources = {
        "a.py": ("def used():\n    pass\n"
                 "def orphan():\n    return orphan()\n"
                 "def _private():\n    pass\n"
                 "class K:\n    def method(self):\n        pass\n"
                 "LIMIT = 3\n"),
        "b.py": "from .a import used\n",
    }
    assert unconsumed_public_functions(sources) == ["a.py: orphan (line 3)"]


def test_every_public_function_has_a_consumer():
    # a function only tests reach is a formula written twice or a dead export
    sources = {p.name: p.read_text() for p in MODULES}
    # test-only references live in tests/reference.py
    assert unconsumed_public_functions(sources) == []


def _root_name(node):
    """`a` for an attribute chain `a.b.c`, else None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _attribute_mentions(node, external, cls=None, funcs=()) -> list:
    """(attribute, class or None, enclosing functions) for every attribute
    access under `node`; the class is the enclosing one for `self.name` and
    None for any other access.  Accesses on a chain rooted at a name in
    `external` (a library module, as in `np.add.at`) are skipped."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    elif isinstance(node, ast.FunctionDef):
        funcs += (node,)
    found = []
    if isinstance(node, ast.Attribute):
        root = _root_name(node.value)
        if root not in external:
            found.append((node.attr, cls if root == "self" else None, funcs))
    for child in ast.iter_child_nodes(node):
        found += _attribute_mentions(child, external, cls, funcs)
    return found


def unconsumed_public_members(sources: dict) -> list:
    """Public methods and properties of the module-level classes of
    `sources` (file name -> text) that no attribute access mentions, other
    than one inside the member itself.  `self.name` in a class counts only
    for that class's own member, not for a namesake in another class, and
    an access on a library module (`np.add.at`) for none."""
    members, mentions = [], []
    for name, source in sources.items():
        tree = ast.parse(source)
        members += [(name, cls.name, m) for cls in tree.body
                    if isinstance(cls, ast.ClassDef) for m in cls.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")]
        external = {a.asname or a.name.split(".")[0] for n in tree.body
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                    and not getattr(n, "level", 0) for a in n.names}
        mentions += _attribute_mentions(tree, external)
    return [f"{name}: {cls}.{m.name} (line {m.lineno})"
            for name, cls, m in members
            if not any(attr == m.name and owner in (None, cls)
                       and m not in funcs for attr, owner, funcs in mentions)]


def test_detects_unconsumed_public_members():
    sources = {
        "a.py": ("class K:\n"
                 "    def used(self):\n        return self.helper()\n"
                 "    def helper(self):\n        pass\n"
                 "    @property\n"
                 "    def orphan(self):\n        return self.orphan\n"
                 "    def _private(self):\n        pass\n"
                 "    def shadowed(self):\n        pass\n"
                 "    def at(self):\n        pass\n"
                 "class J:\n"
                 "    shadowed: int = 0\n"
                 "    def read(self):\n        return self.shadowed\n"),
        "b.py": ("import numpy as np\n"
                 "from .a import J, K\n"
                 "K().used()\nJ().read()\nnp.add.at(x, 0, 1)\n"),
    }
    assert unconsumed_public_members(sources) == [
        "a.py: K.orphan (line 7)", "a.py: K.shadowed (line 11)",
        "a.py: K.at (line 13)"]


def test_every_public_member_has_a_consumer():
    # a method or property only tests reach restates what they can compute
    sources = {p.name: p.read_text() for p in MODULES}
    assert unconsumed_public_members(sources) == []


def bound_names(source: str) -> list:
    """Names a module binds at its top level: imports, assignments,
    functions and classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            found += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
    return found


def test_detects_bound_names():
    source = ('"""Doc."""\n'
              "from .a import b, c as d\n"
              "import os.path\n"
              "x, y = 1, 2\n"
              "z: int = 3\n"
              "def f():\n    pass\n"
              "class K:\n    pass\n")
    assert bound_names(source) == ["b", "d", "os", "x", "y", "z", "f", "K"]


def test_package_init_binds_no_names():
    # callers import the modules: `from minlag import cli`,
    # `from minlag.pde import newton_solve`
    assert bound_names((SRC / "__init__.py").read_text()) == []


def calls(source: str, name: str) -> list:
    """(enclosing top-level function or None, call node) for every call of
    `name`, bare or as an attribute (`spla.splu`)."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        found += [(owner, node) for node in ast.walk(top)
                  if _called(node) == name]
    return found


def _called(node):
    """The name a call node calls, bare or as an attribute, else None."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def test_detects_calls():
    source = ("import scipy.sparse.linalg as spla\n"
              "def f(A):\n    return spla.splu(A)\n"
              "def g(A):\n    return [splu(A) for _ in range(2)]\n"
              "lu = splu(A)\n")
    assert [(o, n.lineno) for o, n in calls(source, "splu")] == [
        ("f", 3), ("g", 5), (None, 6)]


def eigsh_misuses(source: str) -> list:
    """Every `eigsh` call of `source` that does not get a standard problem
    from an operator the package built: its first argument is not a name
    bound to a `LinearOperator(...)` call in the same top-level function,
    or it passes `M`, `sigma` or `OPinv`, with which ARPACK would
    factorize on its own or multiply by M."""
    tops = {top.name: top for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef)}
    found = []
    for owner, node in calls(source, "eigsh"):
        operators = {t.id for a in ast.walk(tops.get(owner, node))
                     if isinstance(a, ast.Assign)
                     and _called(a.value) == "LinearOperator"
                     for t in a.targets if isinstance(t, ast.Name)}
        first = node.args[0] if node.args else None
        if not (isinstance(first, ast.Name) and first.id in operators):
            found.append(f"line {node.lineno}: no LinearOperator")
        found += [f"line {node.lineno}: {k.arg}" for k in node.keywords
                  if k.arg in ("M", "sigma", "OPinv")]
    return found


def test_detects_eigsh_misuses():
    source = ("def good(A, n):\n"
              "    op = spla.LinearOperator((n, n), matvec=A.solve)\n"
              "    return spla.eigsh(op, k=1, which='LA')\n"
              "def matrix(A):\n    return spla.eigsh(A, k=1)\n"
              "def generalized(A, n, m):\n"
              "    op = spla.LinearOperator((n, n), matvec=A.solve)\n"
              "    return spla.eigsh(op, k=1, M=m, sigma=0.0, OPinv=op)\n"
              "eigsh(B, k=1)\n")
    assert eigsh_misuses(source) == [
        "line 5: no LinearOperator", "line 8: M", "line 8: sigma",
        "line 8: OPinv", "line 9: no LinearOperator"]


def test_one_sparse_factorization():
    # `surface._splu` holds the package's one LU policy; every solve and the
    # shift-invert eigen path go through it, and the column order comes
    # from one ILU of K + M, in `DiscreteSurface._lu_layout`.  Both call
    # `spla.splu` or `spla.spilu`, never a name bound at import, so that
    # whoever patches scipy's sees every factorization
    for name, owner in (("splu", "_splu"),
                        ("spilu", "DiscreteSurface._lu_layout")):
        assert [(path.name, o) for path in MODULES
                for o in owned_mentions(path.read_text(),
                                        lambda n: _called(n) == name)] == [
            ("surface.py", owner)]
        call = calls((SRC / "surface.py").read_text(), name)[0][1]
        assert isinstance(call.func, ast.Attribute)
        assert _root_name(call.func) == "spla"
        # both read SuperLU's settings from one constant
        assert [ast.unparse(k.value) for k in call.keywords
                if k.arg is None] == ["_SUPERLU"]
    # no relaxed supernodes and one-column panels: at these sizes both cost
    # more than they save
    settings = [node.value for node in ast.parse(
        (SRC / "surface.py").read_text()).body if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["_SUPERLU"]]
    assert len(settings) == 1
    for arg in ("relax", "panel_size"):
        assert [ast.unparse(k.value) for k in settings[0].keywords
                if k.arg == arg] == ["1"]
    # the fold solve eliminates its border; no block matrix is assembled
    assert [path.name for path in MODULES
            if calls(path.read_text(), "bmat")] == []
    # ARPACK gets the scaled shift-invert operator as a standard problem, so
    # it can neither factorize on its own nor multiply by M
    sources = [path.read_text() for path in MODULES]
    assert [s for s in sources if calls(s, "eigsh")]
    assert [m for s in sources for m in eigsh_misuses(s)] == []


def owned_mentions(source: str, match) -> list:
    """The owner of every node of `source` for which `match(node)` holds:
    `function` for a top-level function, `Class.method` for a method of a
    top-level class, and `<module>` or `Class` for any other statement."""
    owned = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            owned += [(f"{top.name}.{node.name}"
                       if isinstance(node, ast.FunctionDef) else top.name,
                       node) for node in top.body]
        else:
            owned.append((top.name if isinstance(top, ast.FunctionDef)
                          else "<module>", top))
    return [owner for owner, top in owned for node in ast.walk(top)
            if match(node)]


def attribute_reads(source: str, attr: str) -> list:
    """Owners (`owned_mentions`) of every read of `.attr`; a store into it
    is not a read."""
    return owned_mentions(source, lambda n: isinstance(n, ast.Attribute)
                          and n.attr == attr and isinstance(n.ctx, ast.Load))


def test_detects_attribute_reads_and_their_owners():
    source = ("x = s.stiffness\n"
              "def f(s):\n    return s.stiffness @ s.stiffness\n"
              "class K:\n"
              "    def __post_init__(self):\n        self.stiffness = 1\n"
              "    def g(self):\n        def h():\n"
              "            return self.stiffness\n        return h\n"
              "    def k(self, A):\n        A.setdiag(0.0)\n")
    assert attribute_reads(source, "stiffness") == [
        "<module>", "f", "f", "K.g"]
    assert owned_mentions(source, lambda n: _called(n) == "setdiag") == [
        "K.k"]


def test_the_operator_has_one_home():
    # K + M diag(p) is factorized (`DiscreteSurface.factorize`, from the
    # permuted K of `_lu_layout`) or applied (`DiscreteSurface.apply`) only
    # by the surface; elsewhere K is read only as the Laplacian of
    # `pde.residual` and the Dirichlet energy of the mountain-pass
    # functional.  Only the ordering matrix K + M of `_lu_layout` and the
    # two-ring pattern of `frame._vertex_wirtinger` write a diagonal.
    reads = sorted({(path.name, owner) for path in MODULES
                    for owner in attribute_reads(path.read_text(),
                                                 "stiffness")})
    assert reads == [
        ("mpass.py", "functional_gradient"), ("mpass.py", "functional_value"),
        ("pde.py", "residual"), ("surface.py", "DiscreteSurface._lu_layout"),
        ("surface.py", "DiscreteSurface.apply")]
    setdiag = sorted({(path.name, owner) for path in MODULES
                      for owner in owned_mentions(
                          path.read_text(), lambda n: _called(n) == "setdiag")})
    assert setdiag == [("frame.py", "_vertex_wirtinger"),
                       ("surface.py", "DiscreteSurface._lu_layout")]


def test_newton_solves_two_systems():
    # the structure equation (`solve_u`, which the mountain-pass polish
    # calls too) and the Moore-Spence fold system are the only systems the
    # one Newton loop solves
    sites = sorted((path.name, owner) for path in MODULES
                   for owner, _ in calls(path.read_text(), "damped_newton"))
    assert sites == [("continuation.py", "solve_fold"), ("pde.py", "solve_u")]


def scipy_linalg_imports(source: str) -> list:
    """Lines that import `scipy.linalg` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "scipy.linalg" or n.startswith("scipy.linalg.")
               for n in names):
            found.append(node.lineno)
    return found


def test_detects_scipy_linalg_imports():
    source = ("import scipy.linalg as sla\n"
              "import scipy.sparse.linalg as spla\n"
              "from scipy import linalg\n"
              "from scipy.linalg import eigh\n"
              "from scipy.sparse import linalg\n")
    assert scipy_linalg_imports(source) == [1, 3, 4]


def test_one_eigen_path():
    # shift-invert ARPACK in `pde.smallest_eigenvalue` is the package's one
    # eigen solver: no dense `eigh` to fall back on, and no scipy.linalg
    assert [(path.name, owner) for path in MODULES
            for owner, _ in calls(path.read_text(), "eigh")] == []
    assert [(path.name, line) for path in MODULES
            for line in scipy_linalg_imports(path.read_text())] == []


def test_one_classification():
    # `pde.newton_solve` is the only place that classifies a solved point;
    # the mountain pass and the fold take their points from it
    sites = sorted((path.name, owner) for path in MODULES
                   for owner, _ in calls(path.read_text(), "SolutionPoint"))
    assert sites == [("pde.py", "newton_solve")]


def imported_modules(source: str) -> set:
    """Top-level names of the modules `source` imports, absolute imports
    only: `import json` and `from csv import writer` give json and csv."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def to_json_methods(source: str) -> list:
    """`Class.to_json (line n)` for every class that defines `to_json`."""
    return [f"{cls.name}.to_json (line {m.lineno})"
            for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef) for m in cls.body
            if isinstance(m, ast.FunctionDef) and m.name == "to_json"]


def test_detects_output_writers():
    source = ("import csv\n"
              "import json as js, os.path\n"
              "from json import dumps\n"
              "from . import cli\n"
              "class K:\n"
              "    def to_json(self):\n        pass\n"
              "    class J:\n"
              "        def to_json(self):\n            pass\n"
              "def to_json(x):\n    pass\n")
    assert imported_modules(source) == {"csv", "json", "os"}
    assert to_json_methods(source) == ["K.to_json (line 6)",
                                       "J.to_json (line 9)"]


def test_cli_is_the_one_writer_of_outputs():
    # every JSON payload and CSV table is built and written by a command of
    # minlag.cli; the other modules return results and format none
    assert [path.name for path in MODULES if {"csv", "json"}
            & imported_modules(path.read_text())] == ["cli.py"]
    assert [m for path in MODULES
            for m in to_json_methods(path.read_text())] == []


def test_cli_import_loads_no_unneeded_module():
    # scipy.interpolate and scipy.spatial (frame only) and the
    # scipy.optimize they pull in are loaded by the command that uses them,
    # not by every command; the octagon's classes need no graph search
    # (scipy.sparse.csgraph), and the config checks of minlag.cli need no
    # jsonschema
    code = ("import sys, minlag.cli; print(sorted({'.'.join(m.split('.')[:3]) "
            "for m in sys.modules if m.startswith(('scipy.interpolate', "
            "'scipy.optimize', 'scipy.spatial', 'scipy.sparse.csgraph', "
            "'jsonschema'))}))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
