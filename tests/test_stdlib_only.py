"""The package imports nothing beyond the standard library and itself, nor
do the CI checks, which the genus2 job runs without the test extra."""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "tautring"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for path in sources + [TESTS / "ci_checks.py", TESTS / "star_census.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                local = {"tautring"} if path.parent == PACKAGE else {"tautring", "star_census"}
                if top not in local and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} imports {name}")
    assert not foreign, foreign
