"""Every name a demo imports from growthlab exists, so a renamed or deleted
library name cannot leave a demo broken unnoticed. The demos are parsed,
not run: running all of them takes about half a minute."""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos")
               .glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "growthlab":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names
                       if not hasattr(module, a.name)]
            assert not missing, (node.module, missing)
