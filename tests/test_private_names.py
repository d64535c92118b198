"""Every private module-level function and class of the package, and every
private method of its module-level classes, is named somewhere in the
package outside its own definition.  A private name that only the tests
call is code kept as a test oracle; it belongs in ``tests/reference.py``,
so this check fails on it.  Names count as ``ast.Name`` and
``ast.Attribute`` nodes; an import alone does not."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "colorlie"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _named(node) -> Counter:
    """How often each identifier is named in the tree under node."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    """(qualified name, node) of the private definitions checked."""
    for node in tree.body:
        if isinstance(node, DEFS) and _private(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and _private(item.name):
                    yield f"{node.name}.{item.name}", item


def unused_private_names(src: Path = SRC) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    return [
        f"{module}: {qualname}"
        for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if named[node.name] - _named(node)[node.name] == 0
    ]


def test_every_private_definition_is_named_in_the_package():
    assert unused_private_names() == []


def test_a_private_name_named_only_in_its_own_body_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _loop(n):\n    return _loop(n - 1) if n else 0\n\n\n"
        "class C:\n    def _m(self):\n        return 1\n\n    def f(self):\n"
        "        return self._n()\n\n    def _n(self):\n        return 2\n"
    )
    (tmp_path / "b.py").write_text("from a import _loop\n")
    assert unused_private_names(tmp_path) == ["a.py: _loop", "a.py: C._m"]
