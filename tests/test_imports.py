"""Every name a spinmaps module imports is used in that module, and scipy is
imported only where it is listed."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spinmaps"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_and_aliased_names():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .register import RegisterError, check_sites as _check\n"
        "def f(x: np.ndarray) -> None:\n"
        "    _check(x)\n"
    )
    assert unused_imports(source) == ["RegisterError (line 3)"]


# Every scipy import in the package, as (module, enclosing function or None,
# imported module).  cli.minimize imports scipy.optimize on the first frame fit,
# so that no ``spinmaps run`` pays for it.
SCIPY_SITES = {
    ("register", None, "scipy.linalg.lapack"),
    ("cli", "minimize", "scipy.optimize"),
}


def scipy_imports(source: str) -> set[tuple[str | None, str]]:
    sites = set()

    def visit(node: ast.AST, scope: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            sites.update((scope, name) for name in names if name.split(".")[0] == "scipy")
            visit(child, scope)

    visit(ast.parse(source), None)
    return sites


def test_scipy_is_imported_only_at_the_listed_sites():
    found = {(path.stem, scope, name) for path in SRC.glob("*.py")
             for scope, name in scipy_imports(path.read_text())}
    assert found == SCIPY_SITES


def test_detects_module_level_and_lazy_scipy_imports():
    source = (
        "import scipy.sparse\n"
        "from scipy import linalg\n"
        "from .register import zpotrf\n"
        "class A:\n"
        "    def fit(self):\n"
        "        from scipy.optimize import minimize\n"
    )
    assert scipy_imports(source) == {(None, "scipy.sparse"), (None, "scipy"), ("fit", "scipy.optimize")}
