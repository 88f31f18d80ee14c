"""The package imports nothing outside the standard library and numpy, and
every public function and class in it has a caller outside the tests."""
import ast
import dataclasses
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "paddyspec"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "paddyspec"}
# the fixture generator exists for tests and examples
CALLER_EXEMPT = {"synthetic.py"}


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


def _names_in(node):
    """Every identifier, attribute, imported name and string constant under node;
    strings count because the benchmark patches functions by name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_public_definitions_have_a_caller():
    """A public module-level function or class must be named by some other
    top-level statement in src/ or perfbench/, its own module included (the
    parser names the cli commands); the tests do not count."""
    # package __init__ files only re-export, which is not a use
    sources = [path for root in (SRC, REPO / "perfbench") for path in sorted(root.rglob("*.py"))
               if path.name != "__init__.py"]
    statements = [(path, stmt) for path in sources
                  for stmt in ast.parse(path.read_text(), filename=str(path)).body]
    used_by = [(stmt, _names_in(stmt)) for _, stmt in statements]
    uncalled = []
    for path, stmt in statements:
        if (path.is_relative_to(SRC) and path.name not in CALLER_EXEMPT
                and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and not any(stmt.name in names for other, names in used_by if other is not stmt)):
            uncalled.append(f"{path.relative_to(SRC)}:{stmt.lineno}: {stmt.name}")
    assert not uncalled, uncalled


def test_config_fields_are_read():
    """Every setting of the config dataclasses is read as an attribute in src/ or
    perfbench/ outside its own class's ``__post_init__``: a setting that only its
    validation reads changes nothing."""
    from paddyspec.config import PathsConfig, PipelineConfig
    from paddyspec.registration import RegistrationParams
    from paddyspec.training import TrainConfig

    classes = (PathsConfig, RegistrationParams, TrainConfig, PipelineConfig)
    reads: dict[str, set[str]] = {}  # attribute -> classes whose __post_init__ reads it

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.FunctionDef) and node.name != "__post_init__":
            owner = None
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.attr, set()).add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for root in (SRC, REPO / "perfbench"):
        for path in sorted(root.rglob("*.py")):
            visit(ast.parse(path.read_text(), filename=str(path)), None)
    unread = [f"{cls.__name__}.{f.name}" for cls in classes
              for f in dataclasses.fields(cls)
              if not reads.get(f.name, set()) - {cls.__name__}]
    assert not unread, unread
