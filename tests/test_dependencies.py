"""The package imports nothing outside the standard library and numpy, reads
no environment variable, checks no input file ahead of its reader, every
public function, class, method and property in it has a caller outside the
tests, every dataclass field in it is read there, and every defaulted
parameter in it is passed there."""
import ast
import dataclasses
import importlib
import inspect
import sys
from collections import Counter
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


# the program's settings come from its config file and flags only
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_environment_variable_is_read():
    """No module in src/ names ``os.environ``, ``os.getenv`` or imports them."""
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in ENV_READERS:
                readers.append(f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}: "
                               f"{name}")
    assert not readers, readers


# an input is checked where it is read; only a dry run, which reads nothing,
# checks its files up front, in one helper
PRE_CHECKS = {"is_file", "exists"}
PRE_CHECK_HELPER = ("cli.py", "_require_files")


def test_inputs_are_checked_where_they_are_read():
    """No ``.is_file()`` or ``.exists()`` call in src/ outside ``cli._require_files``."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        helper = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and (path.name, node.name) == PRE_CHECK_HELPER
                  for sub in ast.walk(node)}
        calls += [f"{path.relative_to(SRC)}:{node.lineno}: .{node.func.attr}()"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in PRE_CHECKS and id(node) not in helper]
    assert not calls, calls


def _program_sources():
    return [path for root in (SRC, REPO / "perfbench") for path in sorted(root.rglob("*.py"))]


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
    sources = [path for path in _program_sources() if path.name != "__init__.py"]
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


def _attributes_and_strings(node) -> Counter:
    return Counter(sub.attr if isinstance(sub, ast.Attribute) else sub.value
                   for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   or (isinstance(sub, ast.Constant) and isinstance(sub.value, str)))


def test_public_methods_have_a_caller():
    """A public method or property of a class in src/ must be named by an
    attribute or a string in src/ or perfbench/ outside its own ``def``; the
    tests do not count."""
    trees = [(path, ast.parse(path.read_text(), filename=str(path)))
             for path in _program_sources()]
    named = sum((_attributes_and_strings(tree) for _, tree in trees), Counter())
    uncalled = []
    for path, tree in trees:
        if not path.is_relative_to(SRC) or path.name in CALLER_EXEMPT:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                        and named[method.name] == _attributes_and_strings(method)[method.name]):
                    uncalled.append(f"{path.relative_to(SRC)}:{method.lineno}: "
                                    f"{cls.name}.{method.name}")
    assert not uncalled, uncalled


def _defaulted_parameters(func, offset):
    """(name, call-site position or None if keyword-only) of each parameter of
    ``func`` that has a default; ``offset`` is 1 for a bound ``self``/``cls``."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    found = [(arg.arg, index - offset) for index, arg in enumerate(positional)
             if index >= first]
    found += [(arg.arg, None) for arg, default in zip(func.args.kwonlyargs,
                                                        func.args.kw_defaults)
              if default is not None]
    return found


def _passes(call, name, position):
    """Whether ``call`` may pass parameter ``name`` at ``position``; a ``*``
    or ``**`` argument may pass anything it covers."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and any(isinstance(arg, ast.Starred) or index == position
                                        for index, arg in enumerate(call.args))


def test_defaulted_parameters_are_passed():
    """Every defaulted parameter of a public function or method in src/ is
    passed, by keyword or at its position, by some call in src/ or perfbench/
    to that name; a class's ``__init__`` is called through the class name or a
    module-level alias of it. A default that no caller overrides is a
    constant; the tests do not count as callers."""
    trees = [(path, ast.parse(path.read_text(), filename=str(path)))
             for path in _program_sources()]
    aliases: dict[str, set[str]] = {}  # class -> names it is also bound to
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in trees:
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
                    and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name)):
                aliases.setdefault(stmt.value.id, set()).add(stmt.targets[0].id)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                calls.setdefault(name, []).append(node)

    definitions = []  # (label, names it is called by, function, self offset)
    for path, tree in trees:
        if not path.is_relative_to(SRC) or path.name in CALLER_EXEMPT:
            continue
        where = path.relative_to(SRC)
        definitions += [(f"{where}:{stmt.lineno}: {stmt.name}", {stmt.name}, stmt, 0)
                        for stmt in tree.body
                        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in method.decorator_list)
                if method.name == "__init__":
                    names = {cls.name} | aliases.get(cls.name, set())
                elif not method.name.startswith("_"):
                    names = {method.name}
                else:
                    continue
                definitions.append((f"{where}:{method.lineno}: {cls.name}.{method.name}",
                                    names, method, 0 if static else 1))

    unpassed = [f"{label}({param}=)" for label, names, func, offset in definitions
                for param, position in _defaulted_parameters(func, offset)
                if not any(_passes(call, param, position)
                           for name in names for call in calls.get(name, []))]
    assert not unpassed, unpassed


def _dataclasses_in_src():
    """Every dataclass defined in a module of the package; the package
    __init__ files define none, they only re-export."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        name = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        module = importlib.import_module(name)
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == name and dataclasses.is_dataclass(cls)]
    return found


def test_dataclass_fields_are_read():
    """Every field of every dataclass in src/ is read as an attribute in src/ or
    perfbench/ outside its own class's ``__post_init__``: a field that nothing
    reads, or only its validation, changes nothing."""
    classes = _dataclasses_in_src()
    assert classes
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

    for path in _program_sources():
        visit(ast.parse(path.read_text(), filename=str(path)), None)
    unread = [f"{cls.__name__}.{f.name}" for cls in classes
              for f in dataclasses.fields(cls)
              if not reads.get(f.name, set()) - {cls.__name__}]
    assert not unread, unread
