"""The array route calls no NumPy function that rounds apart from libm.

NumPy's own exp, log, arctan2, remainder, trigonometric functions and
complex abs round differently from CPython's math/cmath in the last bits
(on this project's reference host: arctan2 on 7.3% of inputs, log on 0.4%,
complex abs on 35%), and its remainder is floor-mod, not IEEE.  The array
route keeps the scalar bits only because it makes the math/cmath call per
entry, so an AST scan fails on any such NumPy name in its code.  A NumPy
call is allowed only where a bit test of at least 1e5 inputs pins it.
"""

import ast
from pathlib import Path

import numpy as np

import diskflow
from diskflow import catalog
from diskflow import confmap

# NumPy names that round apart from libm (or, for abs, apart from hypot on
# complex input, whose dtype an AST cannot see).
FORBIDDEN = {
    "log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "logaddexp",
    "arctan2", "angle", "remainder", "fmod", "mod", "divmod", "sin", "cos",
    "tan", "sinh", "cosh", "tanh", "arcsin", "arccos", "arctan", "arcsinh",
    "arccosh", "arctanh", "power", "float_power", "abs", "absolute", "emath",
    "lib",
}
# allowed NumPy calls with a rounding choice, and the bit test pinning each
PINNED = {
    "hypot": "tests/test_array_route.py::TestArithmeticReplaysCPython::"
             "test_abs_is_hypot",
}

# the array route: the whole of confmap, and these functions and classes
ROUTE = {
    "confmap.py": None,
    "domains.py": {"koenigs_flow", "contains", "contains_many"},
    "semigroup.py": {"phi_from_image", "_pullback_trace"},
    "analysis.py": {"lipschitz_quotient", "_PairPlan", "_pair_plan",
                    "forward_certificate", "shift_classify"},
    "audits.py": {"suite_backward"},
}


def numpy_uses(tree, names=None):
    """(line, name) of every NumPy attribute or imported name in FORBIDDEN,
    inside the functions and classes ``names`` (None: the whole tree)."""
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "numpy":
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in FORBIDDEN or node.module != "numpy"]
    roots = [tree] if names is None else [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names]
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in aliases and node.attr in FORBIDDEN:
                found.append((node.lineno, node.attr))
    return sorted(set(found))


def test_the_array_route_uses_no_numpy_transcendental():
    package = Path(diskflow.__file__).parent
    found = []
    for name, scope in ROUTE.items():
        tree = ast.parse((package / name).read_text())
        if scope is not None:
            defined = {n.name for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            assert scope <= defined, scope - defined
        found += [f"{name}:{line} np.{attr}"
                  for line, attr in numpy_uses(tree, scope)]
    assert found == []


def test_pinned_calls_have_their_bit_test():
    root = Path(diskflow.__file__).parents[2]
    for call, test in PINNED.items():
        path, cls, fn = test.split("::")
        assert call not in FORBIDDEN
        assert f"def {fn}(" in (root / path).read_text()
        assert f"np.{call}(" in Path(confmap.__file__).read_text()


def test_the_scan_sees_forbidden_names():
    tree = ast.parse(
        "import numpy as xp\nfrom numpy import exp\nfrom numpy.lib import scimath\n"
        "def route(x):\n    return xp.log(x) + xp.hypot(x, x) + xp.abs(x)\n"
        "def other(x):\n    return xp.arctan2(x, x)\n"
        "class Pairs:\n    f = xp.remainder\n")
    assert numpy_uses(tree, {"route", "Pairs"}) == [
        (2, "exp"), (3, "scimath"), (5, "abs"), (5, "log"), (9, "remainder")]
    assert (7, "arctan2") in numpy_uses(tree)


def test_pairs_hold_real_float_arrays(monkeypatch):
    # complex abs is allowed nowhere: the pairs never hold a complex array
    dtypes = set()
    init = confmap._ReIm.__init__

    def recorded(self, real, imag, f):
        dtypes.update({np.asarray(real).dtype, np.asarray(imag).dtype})
        init(self, real, imag, f)

    monkeypatch.setattr(confmap._ReIm, "__init__", recorded)
    sgs = [catalog.builtin_semigroup(n) for n in catalog.BUILTIN_NAMES]
    sgs.append(catalog.slit_tip_semigroup())
    for sg in sgs:
        z = catalog.builtin_start(sg.name) if sg.name in catalog.BUILTIN_NAMES \
            else 0.3 + 0.1j
        w0 = sg.koenigs_image(z)
        sg.phi_from_image(np.linspace(0.0, 50.0, 64), w0)
    assert dtypes == {np.dtype(np.float64)}
