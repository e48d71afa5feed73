"""Package surface."""

import ast
from pathlib import Path

import zetalab


def test_every_export_resolves():
    missing = [name for name in zetalab.__all__ if not hasattr(zetalab, name)]
    assert not missing
    assert len(set(zetalab.__all__)) == len(zetalab.__all__)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so only the other modules are checked
    unused = []
    for path in sorted(Path(zetalab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused
