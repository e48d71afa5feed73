"""Package surface."""

import ast
import os
import subprocess
import sys
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


# the CLI calls that CI also runs with scipy blocked, and their exit codes
# (B4 breaks its bound below 1e5, so that scan exits 1)
_NO_SCIPY_SCRIPT = """
import sys
from zetalab.cli import dispatch
for argv, want in (
    (["check", "--all"], 0),
    (["scan", "B4", "--to", "100000"], 1),
    (["laplace", "lie", "--s", "1.5,2,3,5,10"], 0),
    (["eval", "lie", "1"], 0),
):
    code = dispatch(argv)
    assert code == want, (argv, code)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_the_cli_imports_no_scipy():
    src = str(Path(zetalab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
