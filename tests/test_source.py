"""Checks on the library source itself."""
import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "unicover"


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so no correctness check may rest on one.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SOURCE.glob("*.py")), f"no sources under {SOURCE}"
    assert not found, f"assert statements in the library: {found}"
