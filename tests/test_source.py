import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cyclic_derangements"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one vanishes
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_line_in_the_package_is_longer_than_99_characters():
    # a cap on line length keeps the line count from falling by joining lines
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 99
    ]
    assert long_lines == []


def test_the_package_imports_only_itself_and_the_standard_library():
    # the standard library is the only runtime dependency
    allowed = set(sys.stdlib_module_names) | {PACKAGE.name}
    outside = []
    for path in sorted(PACKAGE.parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.relative_to(PACKAGE.parent)}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert outside == []
