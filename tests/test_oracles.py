"""The exhaustive reference routes stay out of the production modules,
and no module reaches into another through a private name."""

import ast
from pathlib import Path

import banachlab


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}".lstrip(".") for alias in node.names)


def test_only_the_package_and_the_cli_import_oracles():
    importers = set()
    for path in Path(banachlab.__file__).parent.glob("*.py"):
        names = _imported_names(ast.parse(path.read_text(encoding="utf-8")))
        if any(name == "oracles" or name.endswith(".oracles") for name in names):
            importers.add(path.name)
    assert importers == {"__init__.py", "cli.py"}


def test_no_module_imports_a_private_name():
    private = []
    for path in Path(banachlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []
