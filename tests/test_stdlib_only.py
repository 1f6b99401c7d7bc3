"""The library has no runtime dependency beyond the standard library."""

import ast
import os
import subprocess
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


# modules a fresh ``import ltvcl.cli`` must not load: the package needs none
# of them, and ``dataclasses`` (with ``inspect``, ``ast`` and ``dis`` behind
# it) and ``typing`` each add milliseconds to every CLI call's start-up
HEAVY = ("dataclasses", "inspect", "typing")
IMPORT_SURFACE = (
    "import sys; before = set(sys.modules); import ltvcl.cli; "
    "print(' '.join(sorted(set(sys.modules) - before)))"
)


def test_importing_the_cli_loads_no_heavy_module():
    # the modules already loaded are taken inside the child, so a site hook
    # that preloads one of them does not fail the test
    src = str(DATA_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", IMPORT_SURFACE], env=env, check=True,
                          capture_output=True, text=True)
    loaded = done.stdout.split()
    assert "ltvcl.cli" in loaded
    assert [name for name in HEAVY if name in loaded] == []
