"""Source checks that a linter would make, on the package's own modules."""

import ast
import pathlib

import satsched as ss

PKG = pathlib.Path(ss.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


def _unused_imports(source: str) -> list:
    # names a module imports but never reads; a name read anywhere, even
    # as the base of an attribute (np.zeros), counts as used
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_scan_finds_one():
    src = "import math\nimport numpy as np\nfrom os import path, sep\nnp.e\nsep\n"
    assert _unused_imports(src) == ["math", "path"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is exempt
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(PKG.glob("*.py"))
              if path.name != "__init__.py"}
    assert len(unused) >= 12
    assert {name: names for name, names in unused.items() if names} == {}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _unreferenced_privates(sources: dict) -> list:
    # module-level private functions and private methods that no module of
    # ``sources`` (module name -> source) names, as a bare name or as an
    # attribute; a def alone is no reference
    defined = []
    named = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name))
            elif isinstance(node, ast.ClassDef):
                defined.extend((module, f"{node.name}.{f.name}")
                               for f in node.body
                               if isinstance(f, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(f"{module}:{name}" for module, name in defined
                  if _is_private(name.rpartition(".")[2])
                  and name.rpartition(".")[2] not in named)


def test_unreferenced_private_scan_finds_one():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\ndef __dunder__(): pass\n"
             "class C:\n    def _m(self): pass\n    def _gone(self): pass\n"
             "    def __init__(self): self._m()\n",
        "b": "from a import _used\n_used()\n",
    }
    assert _unreferenced_privates(sources) == ["a:C._gone", "a:_dead"]


def test_no_private_function_goes_unread():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PKG.glob("*.py"))}
    assert len(sources) >= 13
    assert _unreferenced_privates(sources) == []


def _init_imports() -> list:
    # the names __init__.py binds with "from .module import ..."
    tree = ast.parse((PKG / "__init__.py").read_text(encoding="utf-8"))
    return [a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def test_all_lists_exactly_the_names_init_imports():
    imported = _init_imports()
    assert len(imported) == len(set(imported)) >= 80
    assert len(ss.__all__) == len(set(ss.__all__))
    assert sorted(ss.__all__) == sorted(imported)


def _grid_literals(source: str, n_grid: int) -> list:
    # integer literals that fix a planner-grid size or index: a literal
    # index at least 2 from either end of an array whose name mentions a
    # grid (GRID[1000], grid[-3], grid[:500]), or the grid length, or one
    # less, in a statement that names a grid or its lanes
    def literal(node):
        sign = 1
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node, sign = node.operand, -1
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return sign * node.value
        return None

    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript)
                and "grid" in ast.unparse(node.value).lower()):
            s = node.slice
            ends = (s.lower, s.upper) if isinstance(s, ast.Slice) else (s,)
            if any(v is not None and not -2 <= v <= 1
                   for v in map(literal, ends)):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.stmt) and not hasattr(node, "body"):
            text = ast.unparse(node)
            if text.startswith("GRID_POINTS_DEFAULT ="):  # the definition
                continue
            if "grid" in text.lower() or "lanes" in text.lower():
                found.extend((node.lineno, text) for c in ast.walk(node)
                             if isinstance(c, ast.Constant)
                             and literal(c) in (n_grid, n_grid - 1))
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_grid_literal_scan_finds_them():
    src = ("a = GRID[1000] + GRID[1] - GRID[0] + grid[-1]\n"
           "b = planner_grid_shapes[:500]\n"
           "assert lanes[0] <= 64\n"
           "assert np.linspace(0, 1, 64).size == grid.size\n"
           "CACHE = 64\n"
           "GRID_POINTS_DEFAULT = 64\n")
    assert _grid_literals(src, 64) == [
        "1: GRID[1000]", "2: planner_grid_shapes[:500]",
        "3: assert lanes[0] <= 64",
        "4: assert np.linspace(0, 1, 64).size == grid.size"]


def test_no_test_or_module_hard_codes_the_planner_grid():
    """Planner-grid sizes and indices derive from GRID_POINTS_DEFAULT, so
    a change of the grid size moves every test and module with it."""
    n_grid = ss.scheduler.GRID_POINTS_DEFAULT
    paths = sorted(PKG.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(paths) >= 25
    found = {path.name: _grid_literals(path.read_text(encoding="utf-8"),
                                       n_grid)
             for path in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _identity_checks(source: str) -> list:
    # getattr calls, and is / is not tests without a None side, outside
    # the one allowed test, ``model is ground_truth`` in select_and_price
    tree = ast.parse(source)
    allowed = [node for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               and fn.name == "select_and_price"
               for node in ast.walk(fn) if isinstance(node, ast.Compare)
               and ast.unparse(node) == "model is ground_truth"]
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Compare) and node not in allowed:
            sides = [node.left] + node.comparators
            if any(isinstance(op, (ast.Is, ast.IsNot))
                   and not any(isinstance(s, ast.Constant) and s.value is None
                               for s in pair)
                   for op, pair in zip(node.ops, zip(sides, sides[1:]))):
                found.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {text}" for line, text in sorted(found)]


def _defines(source: str, name: str) -> bool:
    return any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in ast.walk(ast.parse(source)))


def test_identity_check_scan_finds_them():
    src = ("def plan(model, x, grid):\n"
           "    a = getattr(model, 'grid_values', None)\n"
           "    if x is None or a is not None:\n"
           "        return x is grid\n"
           "    return grid is not model.grid\n"
           "def select_and_price(model, ground_truth):\n"
           "    return model is None or model is ground_truth\n"
           "def price(model, ground_truth):\n"
           "    return model is ground_truth\n"
           "class Model:\n"
           "    def _on_planner_grid(self, f_hz):\n"
           "        return None is f_hz\n")
    assert _identity_checks(src) == [
        "2: getattr(model, 'grid_values', None)", "4: x is grid",
        "5: grid is not model.grid", "9: model is ground_truth"]
    assert _defines(src, "_on_planner_grid")
    assert not _defines(src, "_on_grid")


def test_planners_take_grid_values_without_identity_checks():
    """A model's grid values reach the planners through its
    ``grid_values``: the scheduler probes no attribute by name and tests
    no object's identity but None's and, in select_and_price, whether the
    planner's model is the ground truth; no module recognises the planner
    grid by identity."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PKG.glob("*.py"))}
    assert len(sources) >= 13
    assert _identity_checks(sources["scheduler.py"]) == []
    assert [name for name, source in sources.items()
            if _defines(source, "_on_planner_grid")] == []
