"""What the package imports: no runtime dependencies, and oracles kept apart.

The library runs on the standard library alone, and `oracle` is ground truth
for the fast paths only while it shares no elimination, membership index or
chain evaluator with them.  The references in `tests/conftest.py` are held
apart the same way: they take only public names from the package.  And each
module of the package uses every name it imports.  All four aims are read off
the import statements.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multispace"
CONFTEST = Path(__file__).resolve().parent / "conftest.py"

# the package names `oracle` may take, per module; None takes any name, as
# the exception classes in `errors` carry no computation
ORACLE_MAY_TAKE = {
    "core": {"MultiVectorSpace", "OperationPolicy", "TaggedVector"},
    "subspace": {"AmbientId", "Subspace"},
    "errors": None,
}


def imports(path: Path):
    """(module, name) for every imported name.  A module of the package is
    named from inside it with a leading '.', so `from .core import X` and
    `from multispace.core import X` both give ('.core', 'X')."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            pairs = [(module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in pairs:
            if module.split(".")[0] == "multispace":
                module = "." + module.partition(".")[2]
            yield module, name


def test_runtime_imports_are_stdlib_or_relative():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    foreign = [
        (path.name, module)
        for path in paths
        for module, _ in imports(path)
        if not module.startswith(".")
        and module.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_oracle_takes_only_data_types_from_the_package():
    # a submodule imported itself (`from . import fp`) is named by `name`
    taken = [
        (module[1:] or name, name)
        for module, name in imports(PACKAGE / "oracle.py")
        if module.startswith(".")
    ]
    assert ("core", "TaggedVector") in taken
    assert [
        (module, name)
        for module, name in taken
        if module not in ORACLE_MAY_TAKE
        or ORACLE_MAY_TAKE[module] is not None and name not in ORACLE_MAY_TAKE[module]
    ] == []


def test_conftest_takes_no_private_names_from_the_package():
    # the private names are the fast paths (`_ChainSearch`, `_Membership`,
    # `_column_rref`, ...) that the references in conftest are compared with
    taken = [(module, name) for module, name in imports(CONFTEST) if module.startswith(".")]
    assert (".", "rref") in taken
    assert [
        (module, name)
        for module, name in taken
        if name.startswith("_") or any(part.startswith("_") for part in module.split("."))
    ] == []


def test_package_modules_use_every_name_they_import():
    # `__init__` imports to re-export, and `from __future__` is a compiler directive
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            (path.name, name)
            for module, name in imports(path)
            if module != "__future__" and name.split(".")[0] not in used
        ]
    assert unused == []
