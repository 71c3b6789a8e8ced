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
