"""Nothing under ``src/synthdetect/`` imports ``oracles`` or any other module
of ``tests/``: the slow references and the reference head stay test-only.
The check reads each module's syntax tree, so it imports none of them."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "synthdetect"
TEST_MODULES = {path.stem for path in TESTS.glob("*.py")} | {"tests"}


def _test_imports(source: str) -> list[str]:
    """The absolute imports in ``source`` whose top-level name is a module of
    ``tests/`` (or ``tests`` itself)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] in TEST_MODULES]
    return found


def test_guard_sees_test_imports():
    source = ("import numpy as np\nimport oracles\nfrom helpers import fd_gradient\n"
              "from tests.oracles import LinearHead\nfrom . import tensor\n"
              "def f():\n    import imageio.png\n")
    assert _test_imports(source) == ["oracles", "helpers", "tests.oracles", "imageio.png"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_imports_nothing_from_tests(path):
    assert _test_imports(path.read_text()) == []
