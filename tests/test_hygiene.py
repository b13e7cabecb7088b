"""Source hygiene: no module imports a name it never uses, and the program runs on numpy alone."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no other node of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_unused_import_scan_flags_only_unread_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np.pi, d)\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 3)"]


def test_no_unused_imports():
    # __init__.py files import names to re-export them
    paths = [
        path
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert paths
    found = {str(p.relative_to(ROOT)): names for p in paths if (names := unused_imports(p.read_text()))}
    assert found == {}


RUNTIME_PACKAGES = set(sys.stdlib_module_names) | {"numpy", "gnqaudit"}


def foreign_imports(source: str) -> list[str]:
    """Top-level packages a module imports, anywhere in it, beyond RUNTIME_PACKAGES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{m} (line {node.lineno})" for m in modules if m.split(".")[0] not in RUNTIME_PACKAGES]
    return found


def test_foreign_import_scan_sees_imports_inside_functions():
    source = "import os, numpy.linalg\nfrom . import x\ndef f():\n    from scipy import stats\n    import jsonschema\n"
    assert foreign_imports(source) == ["scipy (line 4)", "jsonschema (line 5)"]


def test_numpy_is_the_only_runtime_dependency():
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert paths
    found = {str(p.relative_to(ROOT)): names for p in paths if (names := foreign_imports(p.read_text()))}
    assert found == {}
