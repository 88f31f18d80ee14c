"""The package imports nothing outside the standard library and numpy."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "paddyspec"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "paddyspec"}


def test_absolute_imports_are_stdlib_or_numpy():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.relative_to(SRC)}:{node.lineno}: {module}"
                        for module in modules if module.split(".")[0] not in ALLOWED]
    assert not outside, outside
