"""Backward horizons: one routine behind semigroups and Koenigs-plane tracks."""

import cmath
import json
import math

import numpy as np
import pytest

from diskflow import ParameterError
from diskflow.analysis import OrbitTrack
from diskflow.cli import main
from diskflow.domains import Disk, Domain, unit_disk
from diskflow.semigroup import ELLIPTIC, T_MAX_PROBE


class _Right(Domain):
    """{Re w > 0} with no analytic horizon hint."""

    kind = "right"

    def contains(self, w):
        return complex(w).real > 0.0


def test_elliptic_track_at_denjoy_wolff_point_rejected():
    track = OrbitTrack.from_omega(unit_disk(), 0j, ELLIPTIC, mu=1)
    with pytest.raises(ParameterError):
        track.horizon()


def test_track_and_semigroup_agree(builtins):
    z = 0.3 - 0.2j
    for sg in builtins.values():
        assert OrbitTrack.from_semigroup(sg, z).horizon() \
            == sg.backward_horizon(z)


def test_numeric_exit_without_hint():
    h = OrbitTrack.from_omega(_Right(), 2.5 + 1j).horizon()
    assert h.method == "bisection"
    assert h.value == pytest.approx(2.5, abs=1e-9)


# exit times of 0.1 exp(mu t) from the disk |w - 0.5| < 1: on the real axis
# at w = 1.5, so ln(15)/Re mu, and on the spiral at the first root of
# |0.1 exp((1 + i)s) - 0.5| = 1, s = 1.947779733811258
@pytest.mark.parametrize("mu,exit_time", [
    (1e-4, math.log(15.0) / 1e-4),
    (1e-4 + 1e-4j, 1.947779733811258e4)])
def test_off_centre_disk_elliptic_horizon_is_an_exit(mu, exit_time):
    # Re mu > 0: the trace leaves the bounded disk, beyond the cap at which
    # a search whose exit is not guaranteed would give up
    omega = Disk(0.5 + 0j, 1.0)
    h = OrbitTrack.from_omega(omega, 0.1 + 0j, ELLIPTIC, mu=mu).horizon()
    assert h.method == "bisection" and h.value > T_MAX_PROBE
    assert h.value == pytest.approx(exit_time, abs=1e-8)
    before = np.linspace(0.0, h.value, 10_001)[:-1]
    assert all(omega.contains(0.1 * cmath.exp(mu * t)) for t in before)


def test_criterion_cli_exits_2_at_denjoy_wolff_point(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "type": "elliptic", "mu": [1, 0], "koenigs": None,
        "domain": {"kind": "disk", "center": [0, 0], "radius": 1.0},
        "start_w": [[0, 0]]}))
    rc = main(["criterion", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "Denjoy-Wolff" in capsys.readouterr().err
