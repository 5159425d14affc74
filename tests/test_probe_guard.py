"""Every Koenigs-plane tail is probed by one loop.

``analysis.probe_schedule`` holds the stop rule of every tail probe after
t = 0, and ``backward_tail_grid`` makes the one probe at t = 0.  An AST scan
of the package fails on any other call of ``analysis._probe``, so a new tail
consumer passes its times to the schedule instead of growing a loop of its
own.
"""

import ast
from pathlib import Path

import diskflow


def probe_calls():
    """(module, enclosing function, call) of every call of ``_probe``."""
    found = []
    for path in sorted(Path(diskflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) == "_probe"
                        or getattr(node.func, "attr", None) == "_probe"):
                    found.append((path.name, fn.name, node))
    return found


def test_probe_is_called_by_the_schedule_and_the_t0_probe_only():
    calls = probe_calls()
    assert sorted((m, f) for m, f, _ in calls) == [
        ("analysis.py", "backward_tail_grid"),
        ("analysis.py", "probe_schedule"),
    ]
    (t0,) = [c for _, f, c in calls if f == "backward_tail_grid"]
    assert isinstance(t0.args[-1], ast.Constant) and t0.args[-1].value == 0.0


def test_the_tail_grid_has_no_loop_of_its_own():
    tree = ast.parse((Path(diskflow.__file__).parent / "analysis.py")
                     .read_text())
    (grid,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
               and n.name == "backward_tail_grid"]
    assert not [n for n in ast.walk(grid) if isinstance(n, (ast.For, ast.While))]
