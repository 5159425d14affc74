"""Backward horizons: one routine behind semigroups and Koenigs-plane tracks."""

import json

import pytest

from diskflow import ParameterError
from diskflow.analysis import OrbitTrack
from diskflow.cli import main
from diskflow.domains import Domain, unit_disk
from diskflow.semigroup import ELLIPTIC


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
