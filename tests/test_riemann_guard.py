"""One gate for a Koenigs map: ``Semigroup.__post_init__`` is the only
caller of ``domains.with_riemann_map``, which is the only caller of
``domains._riemann_verdict``, and no module names a second gate."""

import ast
from pathlib import Path

import diskflow

PACKAGE = Path(diskflow.__file__).parent


def callers(tree, name: str) -> list:
    """The qualified name (class.function, function or <module>) of the
    definition around each call of ``name`` or ``<expr>.name``."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if called == name:
                    out.append(scope or "<module>")
            walk(child, inner)

    walk(tree, "")
    return out


def mentions(tree, name: str) -> list:
    """Line numbers where ``name`` is defined, imported or read."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name)
            or (isinstance(node, (ast.Import, ast.ImportFrom))
                and any(a.name.split(".")[-1] == name for a in node.names))]


def _package_trees() -> dict:
    return {p.name: ast.parse(p.read_text())
            for p in sorted(PACKAGE.glob("*.py"))}


def test_guards_see_the_branch():
    tree = ast.parse(
        "from .domains import require_riemann_map\n"
        "class Semigroup:\n"
        "    def __post_init__(self):\n"
        "        with_riemann_map(self.omega, self.koenigs)\n"
        "def parse(doc):\n"
        "    return domains.with_riemann_map(omega, h)\n"
        "check = _riemann_verdict(omega, h)\n")
    assert callers(tree, "with_riemann_map") == ["Semigroup.__post_init__",
                                                 "parse"]
    assert callers(tree, "_riemann_verdict") == ["<module>"]
    assert mentions(tree, "require_riemann_map") == [1]


def test_one_gate():
    verdicts, setters = [], []
    for name, tree in _package_trees().items():
        verdicts += [(name, c) for c in callers(tree, "_riemann_verdict")]
        setters += [(name, c) for c in callers(tree, "with_riemann_map")]
        assert mentions(tree, "require_riemann_map") == [], name
    assert verdicts == [("domains.py", "with_riemann_map")]
    assert setters == [("semigroup.py", "Semigroup.__post_init__")]
