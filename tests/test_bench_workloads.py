"""Every bench operation still runs and passes its check.

``bench/workloads.py`` calls the package by name; a renamed or removed API
fails here instead of only under a bench run.  Each workload's operation
list is built at seed 1 and every operation runs once.  No timing is taken
and no deadline is set: the bench's interval timer, left with the default
handler, would end the test process."""

import sys
from pathlib import Path

import pytest

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
