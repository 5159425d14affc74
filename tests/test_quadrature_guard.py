"""One quadrature per orbit piece: ``quadpack.quad`` is called only from
``analysis.arc_length``, once and outside any loop, and no module imports
``quad`` under another name.  QUADPACK's return code is the convergence
verdict, so no caller integrates a piece again to judge it."""

import ast
from pathlib import Path

from diskflow import quadpack

SRC = Path(quadpack.__file__).parent

_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def quad_uses(tree) -> list:
    """(enclosing function, in a loop, line) of each use of quadpack.quad,
    and (None, False, line) of each import of quad from quadpack."""
    out = []

    def visit(node, scope, looped):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and (
                    (child.module or "").split(".")[-1] == "quadpack"):
                out.extend((None, False, child.lineno)
                           for alias in child.names if alias.name == "quad")
            if (isinstance(child, ast.Attribute) and child.attr == "quad"
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "quadpack"):
                out.append((scope, looped, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"), False)
            else:
                visit(child, scope, looped or isinstance(child, _LOOPS))

    visit(tree, None, False)
    return out


def test_guard_sees_the_uses():
    tree = ast.parse(
        "from .quadpack import quad\n"
        "def f(g):\n"
        "    for k in range(3):\n"
        "        quadpack.quad(g, k, k + 1)\n"
        "    return [quadpack.quad(g, 0, t) for t in ts]\n"
        "def h(g):\n"
        "    q = quadpack.quad\n")
    assert quad_uses(tree) == [(None, False, 1), ("f", True, 4),
                               ("f", True, 5), ("h", False, 7)]


def test_arc_length_is_the_only_caller():
    uses = {path.name: quad_uses(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py")) if path.name != "quadpack.py"}
    found = {name: u for name, u in uses.items() if u}
    assert [(scope, looped) for scope, looped, _ in found.pop("analysis.py")] \
        == [("arc_length", False)]
    assert found == {}
