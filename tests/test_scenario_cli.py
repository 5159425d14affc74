import json
import math
import re

import pytest

from diskflow import (Scenario, ScenarioError, catalog, example1_domain,
                      example2_domain)
from diskflow.analysis import OrbitTrack, backward_criterion
from diskflow.cli import main
from diskflow.confmap import MapExpr
from diskflow.domains import (Channel, HalfPlane, _riemann_verdict,
                              domain_from_dict, unit_disk)
from diskflow.errors import EvaluationError
from diskflow.semigroup import Semigroup


def write_config(tmp_path, payload, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


HALFPLANE_EXPLICIT = {
    "name": "halfplane-explicit",
    "type": "nonelliptic",
    "koenigs": {"chain": [{"op": "mobius", "a": [1, 0], "b": [1, 0],
                           "c": [-1, 0], "d": [1, 0]}]},
    "domain": {"kind": "halfplane", "orientation": "right", "offset": 0.0},
    "start_points": [[0, 0]],
    "forward_grid": {"kind": "explicit", "values": [0.0, 1.0, 2.0]},
}

EXAMPLE2 = {
    "name": "example2",
    "type": "nonelliptic",
    "koenigs": None,
    "domain": {"kind": "channel", "profile": "inv_log"},
    "start_w": [[0, 0]],
}

EXAMPLE1 = {
    "name": "example1",
    "type": "nonelliptic",
    "koenigs": None,
    "domain": json.loads(json.dumps(example1_domain(12).to_dict())),
    "start_w": [[0, 0]],
}

# slits L[-1, +-0.05]: Sigma_4 = {Re > -16, |Im| < 1/4} crosses them
NARROW_SLITS = {
    "name": "narrow-slits",
    "type": "nonelliptic",
    "koenigs": None,
    "domain": {"kind": "slitstrip", "half_width": 2.0,
               "slits": [{"x": -1.0, "y": 0.05},
                         {"x": -1.0, "y": -0.05}],
               "n_truncation": 3},
    "start_w": [[0, 0]],
}

ELLIPTIC_DISK = {
    "type": "elliptic",
    "mu": [1, 1],
    "koenigs": {"chain": [{"op": "affine", "a": [1, 0], "b": [0, 0]}]},
    "domain": {"kind": "disk", "center": [0, 0], "radius": 1.0},
    "start_points": [[0.5, 0]],
}


def _overflowing(koenigs, orientation, start, t_end):
    return {
        "type": "nonelliptic", "koenigs": {"chain": [koenigs]},
        "domain": {"kind": "halfplane", "orientation": orientation,
                   "offset": 0.0},
        "start_points": [start],
        "forward_grid": {"kind": "explicit", "values": [0.0, t_end]},
    }


OVERFLOWING = [
    # the inverse Moebius gives nan at a finite w(t): once a nan row
    # was written with exit 0.  Every sampled preimage of the half-plane
    # rounds onto the unit circle, which shows nothing: the scenario parses
    # and its domain keeps interval bounds
    ({"op": "mobius", "a": [0, 2e307], "b": [0, 2e307], "c": [-1, 0],
      "d": [1, 0]}, "upper", [0.5, 0.0], 1.6e308),
    # |w(t)| passes DBL_MAX though both parts are finite: once a closed form
    # outside the disk was accepted and the ODE cross-check failed on it
    # instead.  h(z) = 2e307 (1 + z)/(1 - z) maps the disk onto the right
    # half-plane, and h(25/29 + 10i/29) = 2e307 + 1e308 i
    ({"op": "mobius", "a": [2e307, 0], "b": [2e307, 0], "c": [-1, 0],
      "d": [1, 0]}, "right", [25 / 29, 10 / 29], 1.5e308),
]

# the same regression on a map that takes the disk onto a disk of radius
# 1e308, not onto the half-plane: its scenario exits 2 at parse, a
# semigroup built in code raises, and the overflow shows in the map alone
ONTO_A_DISK = ({"op": "affine", "a": [1e308, 0], "b": [0, 0]}, "right",
               [0.5, 0.85], 1.2e308)

_CAYLEY = {"op": "mobius", "a": [1, 0], "b": [1, 0], "c": [-1, 0],
           "d": [1, 0]}

# one scenario spelled two ways: integers for floats, defaults left out or
# a chain the parser fuses, against the spelling of its canonical form
SPELLINGS = {
    "mapless-strip": (
        {"type": "nonelliptic", "koenigs": None,
         "domain": {"kind": "strip", "half_width": 1}, "start_w": [[0, 0]]},
        {"type": "nonelliptic", "koenigs": None,
         "domain": {"kind": "strip", "half_width": 1.0, "center": 0.0},
         "start_w": [[0, 0]]}),
    "readme-halfplane": (
        {"type": "nonelliptic", "koenigs": {"chain": [_CAYLEY]},
         "domain": {"kind": "halfplane"}, "start_points": [[0, 0]],
         "forward_grid": {"kind": "linear", "t0": 0, "t1": 10, "n": 101}},
        {"type": "nonelliptic",
         "koenigs": {"chain": [{"op": "mobius", "a": [1.0, 0.0],
                                "b": [1.0, 0.0], "c": [-1.0, 0.0],
                                "d": [1.0, 0.0]}]},
         "domain": {"kind": "halfplane", "orientation": "right",
                    "offset": 0.0},
         "start_points": [[0.0, 0.0]],
         "forward_grid": {"kind": "linear", "t0": 0.0, "t1": 10.0,
                          "n": 101}}),
    # -0.0 once hashed apart from 0.0 (e1f81d09... against bf35ed7c...)
    "signed-zero-center": (
        {"type": "nonelliptic", "koenigs": None,
         "domain": {"kind": "strip", "half_width": 1.0, "center": -0.0},
         "start_w": [[0, 0]]},
        {"type": "nonelliptic", "koenigs": None,
         "domain": {"kind": "strip", "half_width": 1.0, "center": 0.0},
         "start_w": [[0, 0]]}),
    "signed-zero-start": (
        {**HALFPLANE_EXPLICIT, "start_points": [[-0.0, 0]]},
        HALFPLANE_EXPLICIT),
    "mapless-inv_log": (
        {"type": "nonelliptic", "koenigs": None,
         "domain": {"kind": "channel", "profile": "inv_log"},
         "start_w": [[0, 0]]},
        {"type": "nonelliptic", "koenigs": None,
         "domain": {"kind": "channel", "profile": "inv_log",
                    "profile_params": {"mouth_cap": 2.0}},
         "start_w": [[0, 0]]}),
    "unfused-chain": (
        {**HALFPLANE_EXPLICIT, "koenigs": {"chain": [
            _CAYLEY, {"op": "affine", "a": [1, 0], "b": [0, 0]}]}},
        HALFPLANE_EXPLICIT),
    # z -> 2z as a Moebius map with c = 0 and an affine one: the fused
    # pair is demoted to one affine map
    "demoted-mobius": (
        {**ELLIPTIC_DISK, "domain": {"kind": "disk", "center": [0, 0],
                                     "radius": 2.0},
         "koenigs": {"chain": [
             {"op": "mobius", "a": [4, 0], "b": [0, 0], "c": [0, 0],
              "d": [1, 0]},
             {"op": "affine", "a": [0.5, 0], "b": [0, 0]}]}},
        {**ELLIPTIC_DISK, "domain": {"kind": "disk", "center": [0, 0],
                                     "radius": 2.0},
         "koenigs": {"chain": [{"op": "affine", "a": [2, 0],
                                "b": [0, 0]}]}}),
    # the same map as a lone Moebius map with c = 0, which has no neighbour
    # to fuse with and is demoted all the same
    "lone-mobius": (
        {**ELLIPTIC_DISK, "domain": {"kind": "disk", "center": [0, 0],
                                     "radius": 2.0},
         "koenigs": {"chain": [
             {"op": "mobius", "a": [2, 0], "b": [0, 0], "c": [0, 0],
              "d": [1, 0]}]}},
        {**ELLIPTIC_DISK, "domain": {"kind": "disk", "center": [0, 0],
                                     "radius": 2.0},
         "koenigs": {"chain": [{"op": "affine", "a": [2, 0],
                                "b": [0, 0]}]}}),
}

# every scenario in this file that parses
EXPLICIT = {
    "halfplane-explicit": HALFPLANE_EXPLICIT,
    "halfplane-backward": {**HALFPLANE_EXPLICIT, "backward_grid": {
        "kind": "explicit", "values": [0.0, 0.5]}},
    "example1": EXAMPLE1,
    "example2": EXAMPLE2,
    "narrow-slits": NARROW_SLITS,
    "elliptic-disk": ELLIPTIC_DISK,
    "overflowing-mobius": _overflowing(*OVERFLOWING[0]),
    **{f"{name}-{i}": pair[i] for name, pair in SPELLINGS.items()
       for i in (0, 1)},
}


class TestScenarioParsing:
    def test_builtin_shorthand(self):
        sc = Scenario.parse({"builtin": "halfplane"})
        assert sc.kind == "nonelliptic"
        assert sc.start_points == (0j,)
        sg = sc.semigroup
        assert sg.name == "halfplane"

    @pytest.mark.parametrize("payload", EXPLICIT.values(), ids=EXPLICIT)
    def test_canonical_roundtrip(self, payload):
        # parse after to_dict is a fixed point, a fused chain and a demoted
        # Moebius map included
        sc = Scenario.parse(payload)
        again = Scenario.parse(json.loads(sc.canonical_json()))
        assert again == sc
        assert again.canonical_json() == sc.canonical_json()
        assert again.digest() == sc.digest()

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.parse({"builtin": "halfplane", "colour": "blue"})

    def test_unknown_grid_key_rejected(self):
        bad = dict(HALFPLANE_EXPLICIT)
        bad["forward_grid"] = {"kind": "linear", "t0": 0, "t1": 1, "n": 5,
                               "step": 0.1}
        with pytest.raises(ScenarioError):
            Scenario.parse(bad)

    def test_unknown_heuristic_key_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.parse({"builtin": "strip", "heuristic": {"rho": 2}})

    def test_builtin_overrides_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.parse({"builtin": "strip", "type": "nonelliptic"})

    def test_elliptic_needs_mu(self):
        bad = dict(HALFPLANE_EXPLICIT)
        bad["type"] = "elliptic"
        with pytest.raises(ScenarioError):
            Scenario.parse(bad)

    def test_nonelliptic_rejects_mu(self):
        bad = dict(HALFPLANE_EXPLICIT)
        bad["mu"] = [1, 0]
        with pytest.raises(ScenarioError):
            Scenario.parse(bad)

    def test_needs_start(self):
        bad = {k: v for k, v in HALFPLANE_EXPLICIT.items()
               if k != "start_points"}
        with pytest.raises(ScenarioError):
            Scenario.parse(bad)

    def test_start_w_track(self):
        sc = Scenario.parse(EXAMPLE2)
        tracks = sc.tracks()
        assert len(tracks) == 1
        assert tracks[0].semigroup is None

    def test_resolved_semigroup_matches_builtin(self):
        sc = Scenario.parse(HALFPLANE_EXPLICIT)
        sg = sc.semigroup
        assert sg.phi(1.0, 0j) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_explicit_elliptic_scenario(self):
        sc = Scenario.parse(ELLIPTIC_DISK)
        sg = sc.semigroup
        assert sg.mu == 1 + 1j
        import cmath
        assert sg.phi(1.0, 0.5 + 0j) == pytest.approx(
            0.5 * cmath.exp(-(1 + 1j)), abs=1e-12)

    def test_linear_grid_hits_endpoint_exactly(self):
        from diskflow.scenario import GridSpec
        g = GridSpec.parse({"kind": "linear", "t0": 0.0, "t1": 10.0, "n": 7},
                           "grid")
        ts = g.times()
        assert ts[0] == 0.0 and ts[-1] == 10.0 and len(ts) == 7


class TestTraceCommand:
    def test_halfplane_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HALFPLANE_EXPLICIT)
        rc = main(["trace", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        csv = (tmp_path / "out" / "trace_p000_forward.csv").read_text()
        lines = csv.strip().splitlines()
        assert lines[0] == "t,re,im,w_re,w_im,g_abs,delta_disk,delta_omega"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[1]) for r in rows] == pytest.approx(
            [0.0, 1.0 / 3.0, 0.5], abs=1e-12)
        # t = 0 row is exactly the starting point
        assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == 0.0
        manifest = json.loads(
            (tmp_path / "out" / "trace_manifest.json").read_text())
        assert manifest["meta"]["tool_version"]
        assert manifest["meta"]["scenario_hash"]

    def test_backward_grid_beyond_horizon_exits_2(self, tmp_path, capsys):
        payload = dict(HALFPLANE_EXPLICIT)
        payload["backward_grid"] = {"kind": "explicit",
                                    "values": [0.0, 0.5, 1.5]}
        cfg = write_config(tmp_path, payload)
        rc = main(["trace", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "T_z=1" in err.replace(" ", "")

    def test_backward_rows(self, tmp_path):
        payload = dict(HALFPLANE_EXPLICIT)
        payload["backward_grid"] = {"kind": "explicit", "values": [0.0, 0.5]}
        cfg = write_config(tmp_path, payload)
        assert main(["trace", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        csv = (tmp_path / "out" / "trace_p000_backward.csv").read_text()
        last = csv.strip().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["trace", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_mapless_scenario_cannot_trace(self, tmp_path):
        cfg = write_config(tmp_path, EXAMPLE2)
        assert main(["trace", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2


    @pytest.mark.parametrize("koenigs,domain,start,t_end", OVERFLOWING)
    def test_pullback_overflow_exits_3(self, koenigs, domain, start, t_end,
                                       tmp_path, capsys):
        cfg = write_config(tmp_path, _overflowing(koenigs, domain, start,
                                                  t_end))
        out = tmp_path / "out"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 3
        assert "overflow evaluating" in capsys.readouterr().err
        assert not out.exists()

    def test_a_map_onto_a_disk_exits_2(self, tmp_path, capsys):
        koenigs, domain, start, t_end = ONTO_A_DISK
        cfg = write_config(tmp_path, _overflowing(koenigs, domain, start,
                                                  t_end))
        assert main(["trace", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "koenigs does not map the unit disk onto the halfplane " \
            "domain" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        omega = HalfPlane(domain)
        h = MapExpr.from_dict({"chain": [koenigs]}, source=unit_disk(),
                              target=omega)
        with pytest.raises(ScenarioError, match="koenigs does not map"):
            Semigroup("nonelliptic", h, omega)
        with pytest.raises(EvaluationError, match="overflow evaluating"):
            h.invert(h.evaluate(complex(*start)) + t_end)

    def test_flow_overflow_exits_3(self, tmp_path, capsys):
        # exp(t) leaves the float range at t = 800: the flow's OverflowError
        # once escaped the pullback trace's scalar loop as a traceback
        # (exit 1, which the CLI keeps for audit failures)
        cfg = write_config(tmp_path, {
            "type": "elliptic", "mu": [1, 0],
            "domain": {"kind": "spiralsector", "mu": [1, 0],
                       "half_angle": 1.0},
            "koenigs": {"chain": [_CAYLEY, {"op": "power",
                                            "p": 2.0 / math.pi}]},
            "start_points": [[0.3, 0.1]],
            "backward_grid": {"kind": "explicit",
                              "values": [0, 1, 10, 100, 800]}})
        assert main(["trace", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        assert "numeric failure: overflow evaluating the Koenigs flow" in \
            capsys.readouterr().err
        # the forward CSV was once written before the backward orbit failed
        assert not (tmp_path / "out").exists()

    def test_ode_field_failure_names_the_cross_check(self, tmp_path, capsys):
        # near t = 1e14 the ODE state rounds onto the pole z = 1 (where it
        # fails is up to rounding: SciPy's solve_ivp overshot the pole and
        # overflowed past |z| ~ 1e222); the field's EvaluationError used to
        # reach the CLI without naming the ODE
        cfg = write_config(tmp_path, {
            "builtin": "halfplane",
            "forward_grid": {"kind": "explicit",
                             "values": [0.0, 1.0, 1.5e308, 1.79e308]},
        })
        assert main(["trace", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numeric failure: ODE step size collapsed: pole reached at" \
            in err
        assert "diagnostics: {'t': " in err


class TestCriterionCommand:
    def test_halfplane_fixture(self, tmp_path):
        cfg = write_config(tmp_path, {"builtin": "halfplane"})
        rc = main(["criterion", "--config", cfg,
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        rep = json.loads(
            (tmp_path / "out" / "criterion_p000.json").read_text())
        assert rep["verdict"] == "Certified"
        assert rep["bound"] == pytest.approx(0.5, abs=1e-9)
        assert rep["heuristic"]["window"] == 5
        csv = (tmp_path / "out" / "criterion_p000_samples.csv").read_text()
        assert csv.splitlines()[0] == "t,ratio_lo,ratio_hi,g_abs"

    def test_tail_shorter_than_the_window_is_inconclusive(self, tmp_path):
        # the probes give far fewer tail samples than a window of 10^6;
        # the criterion read Certified with bound 0.163268 on them
        cfg = write_config(tmp_path, {"builtin": "strip",
                                      "heuristic": {"window": 1000000}})
        assert main(["criterion", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        rep = json.loads(
            (tmp_path / "out" / "criterion_p000.json").read_text())
        n_tail = sum(s["t"] > 0 for s in rep["samples"])
        assert 2 <= n_tail < 1000000
        assert rep["verdict"] == "Inconclusive"
        assert rep["bound"] is None
        assert rep["notes"] == {
            "tail": f"{n_tail} tail samples, fewer than the window of 1000000"}

    def test_flow_overflow_exits_3(self, tmp_path, capsys):
        # the horizon's exit-time bracket doubles t until exp(t) leaves the
        # float range: once an OverflowError traceback (exit 1)
        cfg = write_config(tmp_path, {
            "type": "elliptic", "mu": [1, 0], "domain": {"kind": "halfplane"},
            "koenigs": None, "start_w": [[1, 0]]})
        out = tmp_path / "out"
        assert main(["criterion", "--config", cfg, "--out", str(out)]) == 3
        assert "numeric failure: overflow evaluating the Koenigs flow" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_a_later_start_that_fails_writes_nothing(self, tmp_path,
                                                     capsys):
        # on the strip the backward orbit w0 e^t from 1 + 0.5i leaves at a
        # finite time, and from 1 it runs along the axis until e^t leaves
        # the float range; the first start's report was once written
        cfg = write_config(tmp_path, {
            "type": "elliptic", "mu": [1, 0], "domain": {"kind": "strip"},
            "koenigs": None, "start_w": [[1, 0.5], [1, 0]]})
        out = tmp_path / "out"
        assert main(["criterion", "--config", cfg, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "numeric failure: overflow evaluating the Koenigs flow" in \
            captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_example2_fixture(self, tmp_path):
        cfg = write_config(tmp_path, EXAMPLE2)
        assert main(["criterion", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        rep = json.loads(
            (tmp_path / "out" / "criterion_p000.json").read_text())
        assert rep["verdict"] == "Certified"

    def test_example1_note_is_the_examples_report_only(self, tmp_path):
        # the criterion report carries no per-domain note; the examples
        # report keeps its top-level discrepancy note
        cfg = write_config(tmp_path, EXAMPLE1)
        assert main(["criterion", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        rep = json.loads(
            (tmp_path / "out" / "criterion_p000.json").read_text())
        assert rep["verdict"] in ("Certified", "Inconclusive")
        assert rep["notes"] == {}
        assert rep["truncation"] == 12
        assert main(["examples", "--id", "1", "--truncation", "12",
                     "--out", str(tmp_path / "ex")]) == 0
        ex = json.loads((tmp_path / "ex" / "example1_report.json").read_text())
        assert ex["discrepancy_note"] == catalog.EXAMPLE1_NOTE
        assert ex["criterion"]["notes"] == {}

    def test_narrow_slit_strip_ratio_lo_bound(self, tmp_path):
        # Sigma_4 crosses the slits, so it is no enclosure.  Every path
        # from 0 to -4 runs 3 units through the channel between the slits,
        # where lambda >= 1/(4 delta) >= 5, so k(0, -4) >= 15 and
        # ratio(4) <= lambda(-4) e^-30.
        cfg = write_config(tmp_path, NARROW_SLITS)
        assert main(["criterion", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        rep = json.loads(
            (tmp_path / "out" / "criterion_p000.json").read_text())
        assert rep["notes"] == {}
        at4 = next(s for s in rep["samples"] if s["t"] == 4.0)
        lam_hi = 1.0 / 0.05
        assert at4["ratio_lo"] <= lam_hi * math.exp(-30.0)


class TestExamplesCommand:
    def test_example1(self, tmp_path):
        rc = main(["examples", "--id", "1", "--truncation", "40",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        rep = json.loads(
            (tmp_path / "out" / "example1_report.json").read_text())
        assert rep["delta_at_origin"] == 2.0
        row8 = [r for r in rep["sigma_distances"] if r["t"] == 8.0][0]
        assert row8["displayed_expression"] == pytest.approx(1.9375, abs=1e-12)
        assert row8["exact"] == pytest.approx(16.0 * math.pi, abs=1e-6)
        assert all(c["violations"] == 0 for c in rep["sigma_containment"])
        assert rep["discrepancy_note"]
        assert "discrepancy" not in rep["criterion"]["notes"]
        summary = (tmp_path / "out" / "example1_summary.txt").read_text()
        assert "delta_Omega(0) = 2.0" in summary

    def test_example2(self, tmp_path):
        rc = main(["examples", "--id", "2", "--out", str(tmp_path / "out")])
        assert rc == 0
        rep = json.loads(
            (tmp_path / "out" / "example2_report.json").read_text())
        assert rep["regularity"] == "NonRegular"
        assert rep["euclidean_test"]["pass"] is True
        assert rep["criterion"]["verdict"] == "Certified"

    def test_example3(self, tmp_path):
        rc = main(["examples", "--id", "3", "--out", str(tmp_path / "out")])
        assert rc == 0
        rep = json.loads(
            (tmp_path / "out" / "example3_report.json").read_text())
        assert rep["regularity"] == "NonRegular"
        assert rep["criterion"]["verdict"] == "Certified"
        assert rep["contains_strip_S"]["violations"] == 0

    def test_bad_id_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["examples", "--id", "7", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tmax", ["nan", "-5", "0"])
    def test_a_tmax_that_is_not_positive_exits_2(self, tmax, tmp_path,
                                                 capsys):
        # nan once exited 0 with "tmax": NaN in the report, which is not
        # JSON, and both nan and -5 read NonRegular from zero probes
        out = tmp_path / "out"
        assert main(["examples", "--id", "2", "--tmax", tmax,
                     "--out", str(out)]) == 2
        assert "--tmax must be positive" in capsys.readouterr().err
        assert not out.exists()


def _criterion_block(tmp_path, payload, tag):
    """criterion_p000.json of ``payload`` without its meta."""
    out = tmp_path / tag
    assert main(["criterion", "--config",
                 write_config(tmp_path, payload, f"{tag}.json"),
                 "--out", str(out)]) == 0
    rep = json.loads((out / "criterion_p000.json").read_text())
    del rep["meta"]
    return rep


def _examples_block(tmp_path, example_id, *argv):
    out = tmp_path / f"examples{example_id}"
    assert main(["examples", "--id", str(example_id), *argv,
                 "--out", str(out)]) == 0
    rep = json.loads((out / f"example{example_id}_report.json").read_text())
    return rep["criterion"]


def _spelled_example(domain) -> dict:
    return {"type": "nonelliptic", "koenigs": None,
            "domain": json.loads(json.dumps(domain.to_dict())),
            "start_w": [[0, 0]]}


class TestOneCriterionPath:
    """``examples --id k`` writes the criterion block that ``criterion``
    writes on the builtin ``example<k>`` and on the spelled-out scenario of
    the same name: one path, with no note or enclosure of its own."""

    @pytest.mark.parametrize("example_id", catalog.EXAMPLE_IDS)
    def test_examples_criterion_is_the_builtins(self, tmp_path, example_id):
        name = f"example{example_id}"
        want = _examples_block(tmp_path, example_id)
        omega, w0 = catalog.mapless_builtin(name)
        assert w0 == 0j
        assert _criterion_block(tmp_path, {"builtin": name}, "builtin") == want
        spelled = {**_spelled_example(omega), "name": name}
        assert _criterion_block(tmp_path, spelled, "spelled") == want

    def test_example1_truncation_is_the_spelled_out_domain(self, tmp_path):
        want = _examples_block(tmp_path, 1, "--truncation", "12")
        spelled = {**_spelled_example(example1_domain(12)), "name": "example1"}
        assert _criterion_block(tmp_path, spelled, "spelled") == want
        assert want["truncation"] == 12

    def test_mapless_builtins_parse_without_a_map(self):
        for name in catalog.MAPLESS_NAMES:
            sc = Scenario.parse({"builtin": name})
            omega, w0 = catalog.mapless_builtin(name)
            assert (sc.semigroup, sc.start_points, sc.start_w) == \
                (None, (), (w0,))
            assert sc.domain == omega
            assert Scenario.parse(json.loads(sc.canonical_json())) == sc
            moved = Scenario.parse({"builtin": name, "start_w": [[0.5, 0]]})
            assert moved.start_w == (0.5 + 0j,)
            with pytest.raises(ScenarioError, match="need a Koenigs map"):
                Scenario.parse({"builtin": name, "start_points": [[0, 0]]})


class TestAuditCommand:
    def test_haymanwu_suite(self, tmp_path, capsys):
        rc = main(["audit", "--suite", "haymanwu",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS halfplane:hayman_wu" in out
        rep = json.loads(
            (tmp_path / "out" / "audit_haymanwu.json").read_text())
        assert rep["pass"] is True
        assert rep["counts"]["failed"] == 0

    def test_unknown_suite_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--suite", "nonsense", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_determinism_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["audit", "--suite", "metrics", "--seed", "7",
                     "--out", str(out1)]) == 0
        assert main(["audit", "--suite", "metrics", "--seed", "7",
                     "--out", str(out2)]) == 0
        b1 = (out1 / "audit_metrics.json").read_bytes()
        b2 = (out2 / "audit_metrics.json").read_bytes()
        assert b1 == b2

    def test_trace_determinism_bytes(self, tmp_path):
        cfg = write_config(tmp_path, HALFPLANE_EXPLICIT)
        for sub in ("a", "b"):
            assert main(["trace", "--config", cfg, "--seed", "11",
                         "--out", str(tmp_path / sub)]) == 0
        for name in ("trace_p000_forward.csv", "trace_manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_examples_determinism_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["examples", "--id", "1", "--seed", "5",
                         "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "example1_report.json").read_bytes() == \
            (tmp_path / "b" / "example1_report.json").read_bytes()

    def test_elliptic_builtin_trace(self, tmp_path):
        import math
        payload = {
            "builtin": "dilation",
            "forward_grid": {"kind": "explicit", "values": [0.0, 1.0]},
            "backward_grid": {"kind": "explicit", "values": [0.0, 0.5]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["trace", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        fwd = (tmp_path / "out" / "trace_p000_forward.csv").read_text()
        last = fwd.strip().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.5 / math.e, abs=1e-9)
        bwd = (tmp_path / "out" / "trace_p000_backward.csv").read_text()
        last = bwd.strip().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.5 * math.exp(0.5), abs=1e-6)


class TestMalformedSpecs:
    """A malformed domain or Koenigs spec is a validation error: exit 2 and
    one ``error:`` line, never a traceback."""

    MAPLESS = {"type": "nonelliptic", "start_w": [[1, 0]]}
    MAPPED = {"type": "nonelliptic", "start_points": [[0, 0]],
              "domain": {"kind": "halfplane"}}

    @staticmethod
    def _run(tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("domain,message", [
        ({"kind": "strip", "foo": 1}, "unknown key(s) ['foo']"),
        ({"kind": "strip", "half_width": "a"}, "must be a number"),
        ({"kind": "disk", "center": [0]}, "[re, im] pairs"),
        ({"kind": "slitstrip", "slits": [{"x": 1}]}, "missing key(s) ['y']"),
        ({"kind": "channel", "profile": "inv_log",
          "profile_params": {"mouthcap": 3}}, "unknown key(s) ['mouthcap']"),
        ({"kind": "channel", "profile": "exp",
          "profile_params": {"mouth_cap": 3}}, "unknown key(s) ['mouth_cap']"),
    ], ids=["unknown-key", "non-numeric", "short-pair", "slit-without-y",
            "misspelt-profile-param", "param-of-another-profile"])
    def test_domain_spec(self, tmp_path, capsys, domain, message):
        err = self._run(tmp_path, capsys, "criterion",
                        {**self.MAPLESS, "domain": domain})
        assert message in err

    @pytest.mark.parametrize("koenigs,message", [
        ({"chain": [{"op": "mobius", "a": [1]}]}, "missing key(s)"),
        ({"chain": [{"op": "mobius", "a": [1], "b": [0, 0], "c": [0, 0],
                     "d": [1, 0]}]}, "[re, im] pairs"),
        ({"chain": [{"op": "log", "centre": 0}]}, "unknown key(s) ['centre']"),
        ({"chain": [{"op": "power", "p": "x"}]}, "must be a number"),
        ({"chan": []}, "unknown key(s) ['chan']"),
    ], ids=["mobius-short", "mobius-short-pair", "misspelt-key",
            "non-numeric", "misspelt-chain"])
    def test_koenigs_spec(self, tmp_path, capsys, koenigs, message):
        err = self._run(tmp_path, capsys, "trace",
                        {**self.MAPPED, "koenigs": koenigs})
        assert message in err

    @pytest.mark.parametrize("builtin,override,key", [
        ("halfplane",
         {"forward_grid": {"kind": "linear", "t0": 0, "t1": "ten", "n": 5}},
         "forward_grid.t1"),
        ("halfplane",
         {"forward_grid": {"kind": "explicit", "values": [0.0, "1"]}},
         "forward_grid.values"),
        ("halfplane", {"heuristic": {"window": "5"}}, "heuristic.window"),
        # json reads NaN; it used to reach the pullback and exit 3 with
        # "numeric failure: overflow evaluating at (nan+0j)"
        ("strip",
         {"forward_grid": {"kind": "explicit", "values": [0, math.nan, 2]}},
         "forward_grid.values"),
    ], ids=["linear-grid", "explicit-grid", "heuristic", "nan-grid-value"])
    def test_non_numeric_grid_or_heuristic(self, tmp_path, capsys, builtin,
                                           override, key):
        err = self._run(tmp_path, capsys, "trace",
                        {"builtin": builtin, **override})
        assert f"{key} must be a number" in err

    @pytest.mark.parametrize("grid,key", [
        # json reads Infinity: the node reached the cross-check and exited 3
        # on a branch-cut message
        ({"kind": "explicit", "values": [0, 1, math.inf]}, "values"),
        # the times read [nan, inf, ...], reported as not increasing
        ({"kind": "linear", "t0": 0, "t1": math.inf, "n": 5}, "t1"),
        ({"kind": "linear", "t0": -math.inf, "t1": 1, "n": 5}, "t0"),
        # int(inf) raised a bare OverflowError (exit 1)
        ({"kind": "linear", "t0": 0, "t1": 1, "n": math.inf}, "n"),
        # an integer past the float range cannot become a time
        ({"kind": "linear", "t0": 0, "t1": 10 ** 400, "n": 5}, "t1"),
    ], ids=["values", "t1", "t0", "n", "huge-int"])
    @pytest.mark.parametrize("which", ["forward_grid", "backward_grid"])
    def test_infinite_grid_number(self, tmp_path, capsys, which, grid, key):
        err = self._run(tmp_path, capsys, "trace",
                        {"builtin": "strip", which: grid})
        assert f"{which}.{key} must be a finite number" in err


def _slit_strip(n_truncation):
    return {"type": "nonelliptic", "koenigs": None,
            "domain": {"kind": "slitstrip", "half_width": 1.0,
                       "slits": [{"x": -1.0, "y": 0.5}],
                       "n_truncation": n_truncation},
            "start_w": [[0, 0]]}


class TestEveryValueRead:
    """Each scenario value is read as the schema types it, or the command
    exits 2 on a message naming its key and writes nothing; each case once
    ran with a value other than the one written, or failed later."""

    CASES = {
        # a bare OverflowError traceback (exit 1)
        "window-inf": ({"builtin": "strip", "heuristic": {"window": math.inf}},
                       "heuristic.window"),
        # traced as 2 nodes
        "n-fraction": ({"builtin": "strip", "forward_grid": {
            "kind": "linear", "t0": 0, "t1": 1, "n": 2.5}}, "forward_grid.n"),
        # parsed to a 301-digit node count
        "n-1e300": ({"builtin": "strip", "forward_grid": {
            "kind": "linear", "t0": 0, "t1": 1, "n": 1e300}},
            "forward_grid.n"),
        # ran, and recorded, with window 2
        "window-fraction": ({"builtin": "strip", "heuristic": {"window": 2.7}},
                            "heuristic.window"),
        # the canonical form held "seed": true; the key is gone, since
        # nothing read it (the --seed option drives all sampling)
        "seed-bool": ({"builtin": "strip", "seed": True}, "seed"),
        # validated and hashed, but read by nothing
        "seed-unread": ({"builtin": "strip", "seed": 0}, "seed"),
        # a TypeError traceback (exit 1)
        "n_truncation-fraction": (_slit_strip(2.5), "slitstrip.n_truncation"),
        # exit 2, but on Example 1's messages
        "n_truncation-61": (_slit_strip(61), "slitstrip.n_truncation"),
        "n_truncation-0": (_slit_strip(0), "slitstrip.n_truncation"),
        # parsed and reported truncation 40 on a slit-free strip
        "n_truncation-no-slits": ({
            "type": "nonelliptic", "koenigs": None,
            "domain": {"kind": "slitstrip", "n_truncation": 40},
            "start_w": [[0, 0]]}, "slitstrip.n_truncation"),
        # Certified, exit 0
        "mouth_cap-inf": ({
            "type": "nonelliptic", "koenigs": None,
            "domain": {"kind": "channel", "profile": "inv_log",
                       "profile_params": {"mouth_cap": math.inf}},
            "start_w": [[0, 0]]}, "inv_log.profile_params.mouth_cap"),
        # exit 3, "branch point 0 reached"
        "power-inf": ({
            "type": "nonelliptic",
            "koenigs": {"chain": [_CAYLEY, {"op": "power", "p": math.inf}]},
            "domain": {"kind": "halfplane"}, "start_points": [[0, 0]]},
            "power.p"),
        # exit 2 on NaN messages that named no key
        "start_w-inf": ({
            "type": "nonelliptic", "koenigs": None,
            "domain": {"kind": "channel", "profile": "inv_log"},
            "start_w": [[-math.inf, 0]]}, "start_w"),
        "mu-inf": ({
            "type": "elliptic", "mu": [math.inf, 0],
            "koenigs": {"chain": [{"op": "affine", "a": [1, 0],
                                   "b": [0, 0]}]},
            "domain": {"kind": "disk", "center": [0, 0], "radius": 1.0},
            "start_points": [[0.5, 0]]}, "mu"),
        "half_width-inf": ({
            "type": "nonelliptic", "koenigs": None,
            "domain": {"kind": "strip", "half_width": math.inf},
            "start_w": [[0, 0]]}, "strip.half_width"),
        # an unhashable name reached a table lookup: a TypeError traceback
        "profile-list": ({
            "type": "nonelliptic", "koenigs": None,
            "domain": {"kind": "channel", "profile": ["exp"]},
            "start_w": [[0, 0]]}, "channel.profile"),
        "kind-list": ({
            "type": "nonelliptic", "koenigs": None,
            "domain": {"kind": ["strip"]}, "start_w": [[0, 0]]},
            "domain kind"),
        "op-list": ({
            "type": "nonelliptic", "koenigs": {"chain": [{"op": ["exp"]}]},
            "domain": {"kind": "halfplane"}, "start_points": [[0, 0]]},
            "map primitive"),
        # sin maps the disk onto a bounded part of the strip: Certified
        # (bound 8.99263e-176), exit 0
        "sin-onto-strip": ({
            "type": "nonelliptic", "koenigs": {"chain": [{"op": "sin"}]},
            "domain": {"kind": "strip", "half_width": 2.0},
            "start_points": [[0.5, 0]]}, "koenigs"),
    }

    @pytest.mark.parametrize("payload,key", CASES.values(), ids=CASES)
    def test_criterion_and_trace_exit_2(self, tmp_path, capsys, payload, key):
        mapped = payload.get("builtin") or payload.get("koenigs")
        cfg = write_config(tmp_path, payload)
        for command in ("criterion", "trace") if mapped else ("criterion",):
            rc = main([command, "--config", cfg,
                       "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert rc == 2, err
            assert key in err, err
            assert "Traceback" not in err
            assert not (tmp_path / "out").exists()

    def test_start_points_without_a_map_exit_at_parse(self):
        with pytest.raises(ScenarioError, match="need a Koenigs map"):
            Scenario.parse({"type": "nonelliptic", "koenigs": None,
                            "domain": {"kind": "halfplane"},
                            "start_points": [[0, 0]]})

    def test_scenario_keeps_its_semigroup_and_domain(self):
        sc = Scenario.parse(HALFPLANE_EXPLICIT)
        assert sc.domain is sc.semigroup.omega
        assert all(t.semigroup is sc.semigroup for t in sc.tracks())
        # built once; equality and the canonical form read what was built
        assert Scenario.parse(HALFPLANE_EXPLICIT) == sc


class TestCanonicalForm:
    """The canonical form and the hash are written from the parsed map and
    domain: each spelling pair once hashed differently."""

    @pytest.mark.parametrize("short,spelled", SPELLINGS.values(),
                             ids=SPELLINGS)
    def test_spellings_of_one_scenario_hash_equal(self, short, spelled):
        a, b = Scenario.parse(short), Scenario.parse(spelled)
        assert a == b
        assert a.canonical_json() == b.canonical_json()
        assert a.digest() == b.digest()

    def test_channel_keeps_its_parsed_parameters(self):
        dom = Channel(profile="inv_log")
        assert dom.profile_params == {"mouth_cap": 2.0}
        assert dom == example2_domain()
        assert Channel(profile="exp").profile_params == {}

    def test_builtins_compare_equal(self):
        # the channel's exact map has the domain as its source; equality
        # reads the region, so it does not recurse through the map
        for name in ("channel", "halfplane"):
            assert Scenario.parse({"builtin": name}) == \
                Scenario.parse({"builtin": name})


def _spelled_out(sg, **starts):
    """The scenario document that spells out a semigroup's Koenigs data."""
    return {"name": f"spelled-{sg.name}", "type": sg.kind,
            "koenigs": sg.koenigs.to_dict(), "domain": sg.omega.to_dict(),
            **starts}


class TestSpelledOutBuiltins:
    """A scenario that spells out a map-backed builtin's Koenigs data reads
    lambda and k through h^{-1}, as the builtin does; it used to fall back
    to interval bounds and read Inconclusive."""

    def test_channel_criterion_matches_the_builtin(self, tmp_path):
        reports = {}
        for name, payload in (
                ("builtin", {"builtin": "channel"}),
                ("spelled", _spelled_out(catalog.channel_semigroup(),
                                         start_points=[[0, 0]]))):
            out = tmp_path / name
            assert main(["criterion", "--config",
                         write_config(tmp_path, payload, f"{name}.json"),
                         "--out", str(out)]) == 0
            rep = json.loads((out / "criterion_p000.json").read_text())
            assert rep.pop("label") == payload.get("name", "channel")
            for key in ("scenario_name", "scenario_hash"):
                rep["meta"].pop(key)
            csv = (out / "criterion_p000_samples.csv").read_bytes()
            reports[name] = (rep, csv)
        assert reports["spelled"] == reports["builtin"]
        rep = reports["spelled"][0]
        assert (rep["verdict"], rep["bound"], len(rep["samples"])) == \
            ("Certified", 0.7853981633973243, 43)

    def test_slit_tip_start_w_track_matches_the_fixture(self):
        sc = Scenario.parse(_spelled_out(catalog.slit_tip_semigroup(),
                                         start_w=[[1, 0]]))
        got = backward_criterion(sc.tracks()[0])
        want = backward_criterion(catalog.slit_tip_track())
        assert got.verdict == want.verdict == "RefutedTrend"
        assert len(got.samples) == len(want.samples) == 45
        assert [(s.t, s.ratio) for s in got.samples] == \
            [(s.t, s.ratio) for s in want.samples]

    @pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
    def test_every_builtin_chain_maps_onto_its_domain(self, name):
        # the parse check that a chain maps the disk onto its domain
        # accepts every map-backed builtin spelled out
        sg = catalog.builtin_semigroup(name)
        doc = _spelled_out(sg, start_points=[[0, 0]])
        if sg.mu is not None:
            doc["mu"] = [sg.mu.real, sg.mu.imag]
        assert Scenario.parse(doc).semigroup.koenigs.to_dict() == \
            sg.koenigs.to_dict()

    @pytest.mark.parametrize("k", [1.0, 1e16, 1e100, 2e307])
    def test_a_scaled_riemann_map_parses(self, k):
        # k i(1 + z)/(1 - z) maps the disk onto the upper half-plane for
        # every k > 0.  From k ~ 1e15 on, the sampled preimages of the
        # half-plane round onto the unit circle, where a failed sample shows
        # nothing: the check reads inconclusive and the scenario parses
        chain = [{"op": "mobius", "a": [0, k], "b": [0, k], "c": [-1, 0],
                  "d": [1, 0]}]
        sc = Scenario.parse({
            "type": "nonelliptic", "koenigs": {"chain": chain},
            "domain": {"kind": "halfplane", "orientation": "upper"},
            "start_points": [[0.5, 0]]})
        assert _riemann_verdict(sc.domain, sc.semigroup.koenigs) is \
            (True if k == 1.0 else None)

    def test_a_chain_onto_another_region_keeps_the_bounds(self):
        # the strip's chain maps onto the whole strip, slit included: a
        # scenario that pairs them exits at parse, and a semigroup built in
        # code raises.  The slit strip without a map reads interval bounds,
        # as every slit strip did before semigroups installed their maps
        doc = _spelled_out(catalog.slit_tip_semigroup(), start_w=[[1, 0]])
        doc["koenigs"] = catalog.strip_semigroup().koenigs.to_dict()
        with pytest.raises(ScenarioError, match="koenigs does not map"):
            Scenario.parse(doc)
        omega = domain_from_dict(doc["domain"])
        with pytest.raises(ScenarioError, match="koenigs does not map"):
            Semigroup("nonelliptic", catalog.strip_semigroup().koenigs, omega)
        assert omega.exact_map is None
        rep = backward_criterion(OrbitTrack.from_omega(omega, 1 + 0j,
                                                       "nonelliptic"))
        assert rep.verdict == "Inconclusive"
        assert all(s.ratio.lo < s.ratio.hi for s in rep.samples[1:])


class TestGridKeys:
    """A grid key that the grid's kind does not read exits 2 and names the
    key; each was once dropped without a word."""

    CASES = {
        # traced the default 101-point grid on [0, 10]
        "linear-values": ({"kind": "linear", "values": [0, 1, 2]},
                          "linear grids do not read ['values']"),
        "explicit-n-t1": ({"kind": "explicit", "values": [0, 1, 2], "n": 5,
                           "t1": 99}, "explicit grids do not read ['t1', 'n']"),
    }

    @pytest.mark.parametrize("grid,message", CASES.values(), ids=CASES)
    @pytest.mark.parametrize("which", ["forward_grid", "backward_grid"])
    def test_foreign_grid_key_exits_2(self, tmp_path, capsys, which, grid,
                                      message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            Scenario.parse({"builtin": "strip", which: grid})
        cfg = write_config(tmp_path, {"builtin": "strip", which: grid})
        rc = main(["trace", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"{which}: {message}" in err
        assert not (tmp_path / "out").exists()
