"""The package never imports SciPy.

The quadrature behind ``arc_length(g_abs=...)`` and Hayman-Wu is the
package's QUADPACK port (``quadpack.quad``), and the ODE cross-check
(``semigroup.integrate_complex``) steps with its own DOP853, so no module
imports SciPy, at top level or inside a function, and no step of a run
loads it.  SciPy is a test-only reference.  The pytest process has imported
SciPy already (other test modules use it), so the checks below run in a
fresh interpreter on the package sources."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import diskflow
from diskflow import analysis, catalog
from diskflow.analysis import OrbitTrack, SpiralSpec
from diskflow.domains import example2_domain

SRC = Path(diskflow.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent


def run_child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports the package from its
    source tree and this module for its fixtures (which import only the
    package); the code's last stdout line is a JSON object."""
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{TESTS}")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mapless_criterion():
    track = OrbitTrack.from_omega(example2_domain(), 0j)
    return analysis.backward_criterion(track, t_max=64.0)


def ahlfors():
    return analysis.ahlfors_audit(SpiralSpec(1.0 + 0.5j, -0.5, 1.25),
                                  n_disks=25, seed=7)


def hayman_wu():
    return analysis.hayman_wu_audit(catalog.builtin_semigroup("strip"),
                                    catalog.builtin_start("strip"))


def cross_checked_orbit():
    sg = catalog.builtin_semigroup("spiral")
    return sg.forward_orbit(catalog.builtin_start("spiral"),
                            [0.5 * i for i in range(11)], cross_check=True)


COLD_START = """\
import json, sys
import diskflow, diskflow.cli
seen = {"import": "scipy" in sys.modules}
import test_cold_start as t
out = {}
out["criterion"] = repr(t.mapless_criterion())
seen["criterion"] = "scipy" in sys.modules
out["ahlfors"] = repr(t.ahlfors())
seen["ahlfors"] = "scipy" in sys.modules
out["hayman_wu"] = repr(t.hayman_wu())
seen["hayman_wu"] = "scipy" in sys.modules
print(json.dumps({"seen": seen, "out": out}))
"""


def test_no_step_loads_scipy():
    res = run_child(COLD_START)
    assert res["seen"] == {"import": False, "criterion": False,
                           "ahlfors": False, "hayman_wu": False}
    assert res["out"] == {"criterion": repr(mapless_criterion()),
                          "ahlfors": repr(ahlfors()),
                          "hayman_wu": repr(hayman_wu())}


def test_cross_checked_orbit_does_not_load_scipy_with_the_same_samples():
    res = run_child("""\
import json, sys
import test_cold_start as t
before = "scipy" in sys.modules
out = repr(t.cross_checked_orbit())
print(json.dumps({"before": before, "after": "scipy" in sys.modules,
                  "out": out}))
""")
    assert (res["before"], res["after"]) == (False, False)
    assert res["out"] == repr(cross_checked_orbit())


CONCURRENT_COLD_START = """\
import json, sys, threading
from concurrent.futures import ThreadPoolExecutor
from diskflow import catalog, semigroup
from test_semigroup import TestConcurrentTraces

names = sorted(catalog.BUILTIN_NAMES)
barrier = threading.Barrier(len(names), timeout=60)
first = threading.local()
integrate = semigroup.integrate_complex

def at_the_barrier(*args, **kwargs):
    # every thread's first integration starts at the same moment, so the
    # first steps of the six cross-checks run under contention
    if not getattr(first, "done", False):
        first.done = True
        barrier.wait()
    return integrate(*args, **kwargs)

semigroup.integrate_complex = at_the_barrier
before = "scipy" in sys.modules
sys.setswitchinterval(1e-5)
with ThreadPoolExecutor(max_workers=len(names)) as pool:
    threaded = [list(r) for r in pool.map(TestConcurrentTraces.trace, names,
                                           timeout=120)]
print(json.dumps({"before": before, "after": "scipy" in sys.modules,
                  "names": names, "threaded": threaded}))
"""


def test_threads_enter_the_first_integration_together():
    # README: orbits may be computed concurrently without locking, including
    # the first cross-check of a process, which imports nothing
    # (imported here, so pytest does not collect the class twice)
    from test_semigroup import TestConcurrentTraces

    res = run_child(CONCURRENT_COLD_START)
    assert (res["before"], res["after"]) == (False, False)
    assert res["names"] == sorted(catalog.BUILTIN_NAMES)
    assert res["threaded"] == [list(TestConcurrentTraces.trace(n))
                               for n in res["names"]]


def _imports_scipy(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        names = [alias.name for alias in node.names]
    return any(n == "scipy" or n.startswith("scipy.") for n in names)


def _scipy_imports(tree) -> list:
    """Line numbers of every SciPy import in the tree, at top level or
    nested in a block, class or function."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and _imports_scipy(node))


def test_no_module_imports_scipy():
    # the quadrature and the ODE stepper are the package's own, so no SciPy
    # path can come back beside them, at top level or inside a function
    root = Path(diskflow.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert {"analysis.py", "quadpack.py", "semigroup.py"} <= {
        p.name for p in paths}
    found = [f"{path.relative_to(root)}:{line}" for path in paths
             for line in _scipy_imports(ast.parse(path.read_text()))]
    assert found == []


def test_the_guard_sees_top_level_and_nested_imports():
    tree = ast.parse("import numpy\nfrom scipy.integrate import quad\n"
                     "if True:\n    import scipy\n"
                     "class A:\n    from scipy import special\n"
                     "def f():\n    from scipy.integrate import solve_ivp\n")
    assert _scipy_imports(tree) == [2, 4, 6, 8]
