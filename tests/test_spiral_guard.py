"""The spiral trace has one evaluator and one flow formula.

The spiral-length kernel (``analysis._spiral_window``, ``_crossings``,
``_flip`` and ``_spiral_length_in_disk``) and ``SpiralSpec`` run in scalar
code on ``cmath``; ``SpiralSpec.point`` is the elliptic Koenigs flow of
``semigroup.koenigs_flow``.  An AST scan of ``analysis.py`` fails on any
NumPy name in them, on a ``point`` that does not call ``koenigs_flow``,
and on a kernel that evaluates the complex exponential in more than one
place (its ``gap``), so neither an array path for the trace nor a second
copy of its formula comes back unnoticed.
"""

import ast
from pathlib import Path

import diskflow

KERNEL = ("_spiral_window", "_crossings", "_flip", "_spiral_length_in_disk")


def definitions():
    """analysis.py's top-level functions and classes, by name."""
    tree = ast.parse((Path(diskflow.__file__).parent / "analysis.py")
                     .read_text())
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def numpy_names(node):
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id in ("np", "numpy")]


def test_kernel_and_spec_use_no_numpy():
    defs = definitions()
    for name in KERNEL + ("SpiralSpec",):
        assert not numpy_names(defs[name]), name


def test_point_is_the_koenigs_flow():
    (point,) = [n for n in definitions()["SpiralSpec"].body
                if isinstance(n, ast.FunctionDef) and n.name == "point"]
    calls = [getattr(n.func, "id", getattr(n.func, "attr", None))
             for n in ast.walk(point) if isinstance(n, ast.Call)]
    assert calls == ["koenigs_flow"]



def test_kernel_evaluates_the_trace_once():
    # every complex exponential in the kernel is the trace; math.exp of a
    # real time (the tail and the piece lengths) is not
    defs = definitions()
    calls = [n for name in KERNEL for n in ast.walk(defs[name])
             if isinstance(n, ast.Call)
             and getattr(n.func, "id", getattr(n.func, "attr", None)) == "exp"
             and getattr(getattr(n.func, "value", None), "id", None) != "math"]
    assert len(calls) == 1
