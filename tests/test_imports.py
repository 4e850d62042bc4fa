"""Every module of the package, the demos and the tests reads each name it
imports."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(path):
    """Names path imports but never reads. A dotted ``import pkg.sub`` with
    no alias runs for its side effect (it loads pkg.sub) and is left out."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname or "." not in alias.name:
                    bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # A package __init__ imports to re-export, so it is left out.
    found = {str(path.relative_to(ROOT)): unused_imports(path)
             for folder in ("src", "demos", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py"}
    assert {k: v for k, v in found.items() if v} == {}
