"""Every bench operation still runs and passes its check.

``bench/workloads.py`` calls the package by name; a renamed or removed API
fails here instead of only under a bench run.  Each workload's operation
list is built at seed 1 and every operation runs once.  No timing is taken
and no deadline is set: the bench's interval timer, left with the default
handler, would end the test process.  The boundary-distance work of one
``mapless_criterion`` and one ``mapped_orbits`` pass is counted too, and the
generator calls of the ODE cross-checks in a ``mapped_orbits`` pass, so that
redundant edge, sample, refinement or solver work fails here and not only as
a slower bench run."""

import sys
from pathlib import Path

import pytest

from diskflow import domains, semigroup

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("name", ["mapped_orbits", "mapless_criterion",
                                  "spiral_ahlfors"])
def test_every_operation_passes_its_check(name):
    build, make_ops = _workloads().WORKLOADS[name]
    ops = make_ops(1, build())
    assert ops
    wrong = []
    for op in ops:
        passed, record = op.check(op.run())
        if not passed:
            wrong.append(f"{op.label}: {record}")
    assert wrong == []


# a mapless_criterion pass makes 177 channel boundary distances: when both
# edges were measured everywhere they took 354 dist_to_curve calls and 36,828
# scalar curve evaluations, and with the ternary refinement 14,688; a
# mapped_orbits pass took 14,960 with it.  Golden section takes 6,304 and
# 6,498.  Every scalar evaluation goes through the ``point`` function a
# caller hands to dist_to_curve, which the counter wraps.
@pytest.mark.parametrize("name,calls,scalar", [
    ("mapless_criterion", 188, 6304), ("mapped_orbits", 186, 6498)])
def test_a_pass_measures_each_channel_edge_once(monkeypatch, name, calls,
                                                scalar):
    build, make_ops = _workloads().WORKLOADS[name]
    ops = make_ops(1, build())
    count = {"calls": 0, "scalar": 0}
    dist_to_curve = domains.dist_to_curve

    def counted(w, point, *args, **kwargs):
        def scalar_counted(s):
            count["scalar"] += 1
            return point(s)
        count["calls"] += 1
        return dist_to_curve(w, scalar_counted, *args, **kwargs)
    monkeypatch.setattr(domains, "dist_to_curve", counted)
    for op in ops:
        op.run()
    assert count == {"calls": calls, "scalar": scalar}


# the six forward traces of a mapped_orbits pass are cross-checked against
# the ODE: SciPy's solve_ivp made 1,719 generator calls for them, and the
# package's stepper makes 1,701, its dense output running only on steps that
# hold a grid node inside
def test_a_pass_integrates_within_the_solve_ivp_budget(monkeypatch):
    build, make_ops = _workloads().WORKLOADS["mapped_orbits"]
    ops = [op for op in make_ops(1, build()) if op.kind == "forward_trace"]
    assert len(ops) == 6
    count = {"integrations": 0, "generator": 0}
    integrate_complex = semigroup.integrate_complex
    generator = semigroup.Semigroup.generator

    def counted_integration(*args):
        count["integrations"] += 1
        return integrate_complex(*args)

    def counted_generator(self, z, check=True):
        count["generator"] += 1
        return generator(self, z, check)
    monkeypatch.setattr(semigroup, "integrate_complex", counted_integration)
    monkeypatch.setattr(semigroup.Semigroup, "generator", counted_generator)
    for op in ops:
        op.run()
    assert count["integrations"] == 6
    assert count["generator"] <= 1719
