"""Source checks that a linter would make, on the package's own modules."""

import ast
import pathlib

import satsched as ss

PKG = pathlib.Path(ss.__file__).resolve().parent


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
