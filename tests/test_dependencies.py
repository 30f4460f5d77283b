"""The package runs on the standard library alone: no runtime dependency, declared or imported."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oribij"


def _imported_packages(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_module_imports_only_the_standard_library_and_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    allowed = set(sys.stdlib_module_names) | {"oribij"}
    outside = {path.name: sorted(_imported_packages(path) - allowed) for path in modules}
    assert outside == {path.name: [] for path in modules}


def test_the_project_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\b.*$", project, re.M) == ["dependencies = []"]


def test_only_signatures_imports_fourier_motzkin():
    # the acyclicity certificate is its one call site left in the package
    importers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.rpartition(".")[2] == "fourier_motzkin" for name in names):
                importers.add(path.name)
    assert importers == {"signatures.py"}
