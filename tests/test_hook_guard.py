"""Every public member of ``Domain`` is read in the package.

An AST scan lists ``Domain``'s public methods, properties, fields and
class attributes, and looks in every module of ``src/diskflow`` for a read
``<expr>.name`` outside the definitions of ``name`` itself (a kind's
override, or a wrapper that delegates to the member, is not a reader).  A
hook that only a test or its own overrides read fails here.  The scan
matches by name, so a reader of a same-named member of another class
counts too.
"""

import ast
from pathlib import Path

import diskflow

PACKAGE = Path(diskflow.__file__).parent


def public_members(cls: ast.ClassDef) -> list:
    """The names a class body defines (functions, annotated fields and
    assigned attributes) that do not start with an underscore."""
    names = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def reads(tree, name: str) -> list:
    """Line numbers of each read ``<expr>.name`` outside every function
    named ``name``."""
    out = []

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and child.name == name:
                continue
            if isinstance(child, ast.Attribute) and child.attr == name \
                    and isinstance(child.ctx, ast.Load):
                out.append(child.lineno)
            walk(child)

    walk(tree)
    return out


def unread(cls: ast.ClassDef, trees) -> list:
    return [name for name in public_members(cls)
            if not any(reads(tree, name) for tree in trees)]


def _domain_class(tree) -> ast.ClassDef:
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "Domain"]
    return cls


def test_the_scan_sees_a_planted_member():
    tree = ast.parse(
        "class Domain:\n"
        "    exact: object = None\n"
        "    kind = 'abstract'\n"
        "    def contains(self, w): ...\n"
        "    def spiral_gap(self, w, mu): ...\n"
        "    def _distance(self, w): ...\n"
        "class Wrapped(Domain):\n"
        "    def spiral_gap(self, w, mu):\n"
        "        return self.inner.spiral_gap(w, mu)\n"
        "def use(dom):\n"
        "    return dom.contains(dom.exact) and dom.kind\n")
    cls = _domain_class(tree)
    assert public_members(cls) == ["exact", "kind", "contains", "spiral_gap"]
    assert reads(tree, "spiral_gap") == []
    assert unread(cls, [tree]) == ["spiral_gap"]


def test_every_domain_member_is_read():
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    cls = _domain_class(ast.parse((PACKAGE / "domains.py").read_text()))
    assert len(public_members(cls)) > 10
    assert unread(cls, trees) == []
