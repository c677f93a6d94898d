"""Every name a module imports at module level is read somewhere in that
module: in the library's modules (the package's `__init__`, which imports
to re-export, aside) and in the test modules."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (ROOT / "src" / "contextuality").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_every_module_level_import_is_read():
    found = {}
    for path in MODULES:
        unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}
