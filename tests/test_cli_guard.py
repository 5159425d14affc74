"""The CLI reaches every domain through a scenario or the catalog: it
imports nothing from ``diskflow.domains``, never tests a domain for
equality and hands the criterion no per-domain enclosure, so no command
branches on a concrete domain."""

import ast
import inspect
from pathlib import Path

from diskflow import domains

CLI = Path(domains.__file__).with_name("cli.py")

# what reads as a domain: the attributes that hold one, and every domain
# class and factory of diskflow.domains
DOMAIN_NAMES = {"omega", "domain"} | {
    name for name, obj in vars(domains).items()
    if (inspect.isclass(obj) and issubclass(obj, domains.Domain))
    or (inspect.isfunction(obj) and name.endswith("_domain"))}


def _names(node) -> set:
    """The names and attribute names that occur in an expression."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def domain_equalities(tree) -> list:
    """Line numbers of each == or != with a domain on either side."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and _names(node) & DOMAIN_NAMES]


def domains_imports(tree) -> list:
    """Line numbers of each import of diskflow.domains or from it."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "domains" or any(
                    alias.name == "domains" for alias in node.names):
                out.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "domains"
                   for alias in node.names):
                out.append(node.lineno)
    return out


def test_guards_see_the_branch():
    branch = ast.parse(
        "from .domains import example1_domain\n"
        "import diskflow.domains\n"
        "from . import domains\n"
        "x = track.omega == example1_domain(n)\n"
        "y = scenario.domain != other\n"
        "z = track.w0 == 0j\n")
    assert domains_imports(branch) == [1, 2, 3]
    assert domain_equalities(branch) == [4, 5]


def test_cli_imports_no_domain_and_compares_none():
    tree = ast.parse(CLI.read_text())
    assert domains_imports(tree) == []
    assert domain_equalities(tree) == []
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.keyword)
                and node.arg == "enclosure_factory"]
