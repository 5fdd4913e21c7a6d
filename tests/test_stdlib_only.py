"""The package imports nothing beyond the standard library and itself, nor
do the CI checks, which the genus2 job runs without the test extra; and each
package module uses every name it imports."""

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


def test_package_modules_use_every_name_they_import():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} imports {name} unused"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused
