"""Every name a module exports is used by the package itself.

A name in a module's ``__all__`` must be referenced, as a name or an
attribute, in some module of ``src/clustercache`` other than
``__init__.py``: public API that no computation path uses is dead code.
"""

import ast
from pathlib import Path

import clustercache

PACKAGE = Path(clustercache.__file__).parent


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def test_every_export_is_used():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name in _exports(tree) if name not in used]
    assert unused == []
