"""The library has no runtime dependency beyond the standard library."""

import ast
import sys

import pytest

from conftest import DATA_DIR

SOURCES = sorted((DATA_DIR.parent / "src" / "ltvcl").glob("*.py"))


def absolute_imports(tree: ast.Module) -> list[str]:
    """The top-level module of every absolute import in ``tree``; relative
    imports (within the package) are skipped."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_absolute_import_is_in_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [name for name in absolute_imports(tree) if name not in sys.stdlib_module_names]
    assert foreign == []
