import ast
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
