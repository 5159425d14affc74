"""Numeric loops stop when float spacing outgrows their tolerance.

Each case looped forever before the no-progress stops in
``semigroup.exit_time`` and ``domains.dist_to_curve``, or before
``semigroup.integrate_complex`` rejected a non-finite error estimate; the
deadline turns a regression into a failure instead of a hang.  The runs
at t_max = inf go to a child process with a timeout and a memory cap, since
a tail walk that never ends may also grow without bound."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import diskflow
from diskflow.analysis import OrbitTrack
from diskflow.cli import main
from diskflow.domains import (Disk, SpiralSector, dist_to_curve,
                              domain_from_dict, example2_domain,
                              exp_channel_domain)
from diskflow.errors import CrossValidationError, EvaluationError
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
    # the refinement brackets |s| ~ 1e7, where floats are ~2e-9 apart
    with deadline(10):
        d = example2_domain().boundary_distance(-1e7)
    assert 0.0 < d <= 1.0 / math.log(1e7)
    assert d == pytest.approx(1.0 / math.log(1e7), rel=1e-6)


def test_dist_to_curve_large_parameter():
    with deadline(10):
        d = dist_to_curve(complex(-3e8, 0.0), lambda x: x + 1j,
                          lambda x: x + 1j, -3e8 - 10.0, -3e8 + 10.0)
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


def _run_child(args, timeout=60):
    """``python args`` on the package sources, killed after ``timeout``
    seconds (a failure) and capped at 2 GiB of address space; one BLAS
    thread keeps NumPy's own reservations small under the cap."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(diskflow.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout, preexec_fn=cap, env=env)


@pytest.mark.parametrize("example_id", ["1", "2", "3"])
def test_examples_cli_at_infinite_tmax(example_id, tmp_path):
    proc = _run_child(["-m", "diskflow", "examples", "--id", example_id,
                       "--tmax", "inf", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr


TAIL_COUNTS_AT_INF = """\
import json, math
from diskflow import analysis, catalog
strip = catalog.builtin_semigroup("strip")
tracks = [catalog.example_track(2), catalog.exp_channel_track(),
          analysis.OrbitTrack.from_semigroup(strip, catalog.builtin_start("strip"))]
print(json.dumps([
    [len(analysis.backward_criterion(tr, t_max=math.inf).samples),
     len(analysis.regularity_classify(tr, t_max=math.inf).steps),
     len(analysis.euclidean_sufficient_test(tr, t_max=math.inf).samples)]
    for tr in tracks]))
"""


def test_tail_walks_at_infinite_tmax_end_where_they_did():
    # criterion samples, regularity steps and Euclidean samples on example
    # 2, the exp channel and the strip: each walk ends at the first point
    # the distance bounds cannot resolve, never at t = inf
    proc = _run_child(["-c", TAIL_COUNTS_AT_INF])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[47, 46, 47], [6, 5, 6], [51, 50, 51]]


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


def _criterion_report(domain, start_w, tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"type": "nonelliptic", "koenigs": None,
                                  "domain": domain, "start_w": [start_w]}))
    with deadline(30):
        code = main(["criterion", "--config", str(config),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    return json.loads((tmp_path / "out" / "criterion_p000.json").read_text())


@pytest.mark.parametrize("domain,start_w", [
    # |w| overflows: the start is probed as unusable, and the half-plane
    # kernel, whose denominator overflows, leaves the sample to the density
    ({"kind": "halfplane", "orientation": "upper", "offset": 0.0},
     [1.5e308, 1.5e308]),
    # the strip's midpoint abscissa is formed from halves
    ({"kind": "strip", "half_width": 1.0, "center": 0.0}, [1.5e308, 0.5]),
])
def test_starts_at_the_edge_of_the_float_range(domain, start_w, tmp_path):
    # these once ended in an uncaught OverflowError (exit 1) or in a NaN
    # interval (exit 2)
    report = _criterion_report(domain, start_w, tmp_path)
    (sample,) = report["samples"]
    # the ratio at t = 0 is the density at the start
    w = complex(*start_w)
    expected = domain_from_dict(domain).hyperbolic_density(w)
    assert 0.0 < sample["ratio_lo"] <= sample["ratio_hi"]
    assert sample["ratio_hi"] == pytest.approx(expected, rel=1e-9)


def test_exp_channel_start_at_the_edge_of_the_float_range(tmp_path):
    # once an OverflowError (exit 1), then an EvaluationError (exit 3) from
    # the window's top edge sample, 1.8e308 above the axis; that sample only
    # lies farther than the others.  The half-strip enclosures around the
    # start then need their coordinate formed from halves (a NaN, exit 2).
    w = complex(1.5e308, 0.5)
    delta = exp_channel_domain().boundary_distance(w)
    report = _criterion_report({"kind": "channel", "profile": "exp"},
                               [w.real, w.imag], tmp_path)
    first = report["samples"][0]
    # at t = 0 the ratio is the density, which 1/(4 delta) and 1/delta bound
    assert first["t"] == 0.0
    assert 0.25 / delta <= first["ratio_lo"] * (1 + 1e-9)
    assert first["ratio_lo"] <= first["ratio_hi"] <= (1.0 / delta) * (1 + 1e-9)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("domain", [Disk(0j, 1.0),
                                    SpiralSector(mu=1, half_angle=1)],
                         ids=repr)
def test_membership_past_the_float_range_is_an_overflow(domain, strict):
    # |w| passes DBL_MAX with finite parts: abs(w - center) and
    # math.log(abs(w)) in the membership test once raised a raw
    # OverflowError, which _distance's overflow was already typed as
    with pytest.raises(EvaluationError, match="float range") as info:
        domain.boundary_distance(1.3e308 + 1.3e308j, strict=strict)
    assert info.value.overflow
