"""Numeric loops stop when float spacing outgrows their tolerance.

Each case looped forever before the no-progress stops in
``semigroup.exit_time`` and ``domains.dist_to_curve``, or before
``semigroup.integrate_complex`` rejected a non-finite error estimate; the
deadline turns a regression into a failure instead of a hang."""

import json
import math

import pytest

from diskflow.analysis import OrbitTrack
from diskflow.cli import main
from diskflow.domains import dist_to_curve, example2_domain
from diskflow.errors import CrossValidationError
from diskflow.semigroup import exit_time, integrate_complex

from conftest import deadline


def test_exit_time_beyond_float_spacing_of_tolerance():
    # T ~ e^20: the spacing of floats near T is ~6e-8, far above 1e-10
    with deadline(10):
        h = OrbitTrack.from_omega(example2_domain(), 0.05j).horizon()
    assert h.method == "bisection"
    assert 4e8 < h.value < 6e8
    dom = example2_domain()
    assert dom.contains(complex(-h.value * (1 - 1e-9), 0.05))
    assert not dom.contains(complex(-h.value * (1 + 1e-9), 0.05))


def test_exit_time_resolves_to_adjacent_floats():
    edge = 1.0e9 + 0.3
    with deadline(10):
        h = exit_time(lambda t: t < edge, guaranteed=True)
    assert abs(h.value - edge) <= 2 * math.ulp(edge)


def test_channel_boundary_distance_far_left():
    # the ternary search brackets |s| ~ 1e7, where floats are ~2e-9 apart
    with deadline(10):
        d = example2_domain().boundary_distance(-1e7)
    assert 0.0 < d <= 1.0 / math.log(1e7)
    assert d == pytest.approx(1.0 / math.log(1e7), rel=1e-6)


def test_dist_to_curve_large_parameter():
    with deadline(10):
        d = dist_to_curve(complex(-3e8, 0.0), lambda x: x + 1j,
                          -3e8 - 10.0, -3e8 + 10.0)
    assert d == 1.0


def test_example2_cli_at_tmax_1e8(tmp_path, capsys):
    with deadline(30):
        code = main(["examples", "--id", "2", "--tmax", "1e8",
                     "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "example2_report.json").read_text())
    rows = report["delta_along_ray"]
    assert rows[-1]["t"] > 5e7
    assert all(a["delta"] >= b["delta"] for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("example_id,tmax", [
    ("1", "inf"), ("1", "1e15"), ("2", "1e15"), ("2", "1e300"), ("3", "inf")])
def test_examples_at_huge_tmax(example_id, tmax, tmp_path, capsys):
    # the probe schedule stops before t = inf and before delta reaches the
    # float spacing of |w|: once hung, or ended in "enclosure does not
    # contain both points" or an uncaught OverflowError
    with deadline(10):
        code = main(["examples", "--id", example_id, "--tmax", tmax,
                     "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(
        (tmp_path / f"example{example_id}_report.json").read_text())
    rows = report["delta_along_ray"]
    assert rows and all(math.isfinite(v) for row in rows
                        for v in row.values())
    samples = report["criterion"]["samples"]
    assert all(math.isfinite(s["t"]) and math.isfinite(s["ratio_lo"])
               for s in samples)
    assert samples[-1]["t"] < 1e14


@pytest.mark.parametrize("field,z0", [
    (lambda t, z: complex(math.nan, 0.0), 0.1 + 0j),
    (lambda t, z: 1e300 * z * z, 1e10 + 0j),     # z5 overflows: err = inf/inf
])
def test_ode_non_finite_error_estimate_collapses(field, z0):
    with deadline(10):
        with pytest.raises(CrossValidationError, match="collapsed"):
            integrate_complex(field, z0, [0.0, 1.0])
