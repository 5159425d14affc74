import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diskflow import (CrossValidationError, EvaluationError, HorizonError,
                      MapExpr, ParameterError, Scenario, ScenarioError,
                      Semigroup, catalog, domains, semigroup, unit_disk)
from diskflow.analysis import (OrbitTrack, backward_criterion,
                               hayman_wu_audit, shift_classify)
from diskflow.audits import _Masked
from diskflow.confmap import Affine, Exp, Log, Mobius, Sin, compose
from diskflow.domains import (Channel, HalfPlane, SlitStrip, SpiralSector,
                              Strip, koenigs_flow)
from diskflow.scenario import GridSpec
from diskflow.semigroup import ELLIPTIC, NONELLIPTIC, integrate_complex

from conftest import deadline, disk_points
from test_confmap import quadratic_map


class TestPhi:
    def test_halfplane_closed_form(self, builtins):
        # phi_t(0) = t/(t+2)
        sg = builtins["halfplane"]
        for t in (0.1, 1.0, 10.0, 100.0):
            assert abs(sg.phi(t, 0j) - t / (t + 2.0)) < 1e-9

    def test_strip_closed_form(self, builtins):
        sg = builtins["strip"]
        for t in (0.1, 1.0, 10.0, 100.0):
            assert abs(sg.phi(t, 0j) - math.tanh(math.pi * t / 4.0)) < 1e-9

    def test_elliptic_dilation(self, builtins):
        assert builtins["dilation"].phi(1.0, 0.5 + 0j) == pytest.approx(
            0.5 / math.e, abs=1e-12)

    def test_negative_time_rejected(self, builtins):
        with pytest.raises(ParameterError):
            builtins["halfplane"].phi(-1.0, 0j)


class TestGenerator:
    def test_halfplane(self, builtins):
        # G(z) = (1-z)^2/2
        assert builtins["halfplane"].generator(0j) == pytest.approx(0.5,
                                                                    abs=1e-13)

    def test_strip(self, builtins):
        assert builtins["strip"].generator(0j) == pytest.approx(
            math.pi / 4.0, abs=1e-13)

    def test_elliptic_spiral(self, builtins):
        # G(z) = -(1+i) z
        assert builtins["spiral"].generator(0.5 + 0j) == pytest.approx(
            -0.5 - 0.5j, abs=1e-13)

    def test_generator_at_w_consistent(self, builtins, rng):
        for sg in builtins.values():
            for z in disk_points(rng, 50, 0.7, 0.05):
                w = sg.koenigs_image(z)
                assert abs(sg.generator(z) - sg.generator_at_w(w)) < 1e-8


class TestForwardOrbit:
    def test_halfplane_grid(self, builtins):
        samples = builtins["halfplane"].forward_orbit(0j, [0.0, 1.0, 2.0])
        zs = [s.z for s in samples]
        assert zs[0] == 0j
        assert zs[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert zs[2] == pytest.approx(0.5, abs=1e-12)

    def test_elliptic_grid(self, builtins):
        samples = builtins["dilation"].forward_orbit(
            0.5 + 0j, [0.0, math.log(2.0)])
        assert samples[0].z == 0.5 + 0j
        assert samples[1].z == pytest.approx(0.25, abs=1e-12)

    def test_t0_sample_is_start(self, builtins, rng):
        for sg in builtins.values():
            z = 0.3 + 0.1j
            assert sg.forward_orbit(z, [0.0, 0.5])[0].z == z

    def test_grid_validation(self, builtins):
        sg = builtins["halfplane"]
        with pytest.raises(ParameterError):
            sg.forward_orbit(0j, [0.0, 2.0, 1.0])
        with pytest.raises(ParameterError):
            sg.forward_orbit(0j, [1.0, 2.0])
        with pytest.raises(ParameterError):
            sg.forward_orbit(0j, [])
        # a NaN time is not finite, and b > a is false for it
        for grid in ([0.0, math.nan, 1.0], [0.0, 1.0, math.nan]):
            with pytest.raises(ParameterError):
                sg.forward_orbit(0j, grid)
            with pytest.raises(ParameterError):
                sg.backward_orbit(0j, grid)
        with pytest.raises(ParameterError):
            sg.backward_orbit(0j, [math.nan])

    def test_infinite_grid_times(self, builtins):
        # an infinite time reached the pullback and the ODE cross-check
        sg = builtins["strip"]
        for grid in ([0.0, 1.0, math.inf], [0.0, math.inf]):
            with deadline(10), pytest.raises(ParameterError, match="finite"):
                sg.forward_orbit(0j, grid)
            with deadline(10), pytest.raises(ParameterError, match="finite"):
                sg.backward_orbit(0j, grid)

    @pytest.mark.parametrize("name", ["channel", "halfplane", "strip", "uhp"])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_times(self, builtins, name, t):
        # phi(inf, 0.5) returned the start point 0.5 on halfplane, strip
        # and channel: seeded Newton's tolerance is infinite at w = inf
        sg = builtins[name]
        w0 = sg.koenigs_image(0.5)
        with pytest.raises(ParameterError, match="finite"):
            sg.phi(t, 0.5)
        with pytest.raises(ParameterError, match="finite"):
            sg.phi_from_image(t, w0)
        with pytest.raises(ParameterError, match="finite"):
            sg.phi_from_image(np.array([0.0, 1.0, t]), w0)

    def test_sample_fields(self, builtins):
        s = builtins["halfplane"].forward_orbit(0j, [0.0, 1.0])[1]
        assert s.w == pytest.approx(2.0)
        assert s.delta_disk == pytest.approx(1.0 - abs(s.z) ** 2)
        assert s.delta_omega == pytest.approx(2.0)  # delta_RHP(2) = Re
        assert abs(s.g) == pytest.approx(2.0 / 9.0, abs=1e-12)  # (1-z)^2/2

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_dual_method_agreement(self, name, builtins):
        sg = builtins[name]
        grid = [0.25 * i for i in range(41)]
        samples = sg.forward_orbit(catalog.builtin_start(name), grid,
                                   cross_check=True)  # raises on >1e-6
        assert len(samples) == 41

    def test_cross_validation_detects_wrong_field(self, builtins):
        # sabotage: a semigroup whose domain claims a different map
        omega = HalfPlane("right", 0.0)
        wrong = MapExpr((Mobius(2, 2, -1, 1),), source=unit_disk(),
                        target=omega)  # 2(1+z)/(1-z): not the Koenigs map of
        sg = builtins["halfplane"]     # the flow integrated below

        class Hybrid(Semigroup):
            pass

        hybrid = Semigroup(NONELLIPTIC, wrong, omega)
        samples = hybrid.forward_orbit(0j, [0.0, 1.0, 2.0], cross_check=True)
        # consistent object passes; now check mismatch detection directly
        with pytest.raises(CrossValidationError):
            bad = [s for s in samples]
            shifted = [type(s)(s.t, sg.phi(s.t, 0j), s.w, s.g, s.delta_disk,
                               s.delta_omega) for s in bad]
            hybrid._cross_check(shifted, backward=False)


class TestBackward:
    def test_halfplane_horizon(self, builtins):
        h = builtins["halfplane"].backward_horizon(0j)
        assert h.value == 1.0 and h.method == "analytic"

    def test_elliptic_horizon(self, builtins):
        h = builtins["dilation"].backward_horizon(0.5 + 0j)
        assert h.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_example1_track_infinite(self):
        assert catalog.example_track(1, truncation=10).horizon().value == \
            math.inf

    def test_channel_horizon(self, builtins):
        h = builtins["channel"].backward_horizon(0j)
        assert h.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bisection_agrees_with_analytic(self):
        # mask the half-plane so only contains() is available
        masked = _Masked(HalfPlane("right", 0.0))
        track = OrbitTrack.from_omega(masked, 1.0, NONELLIPTIC)
        h = track.horizon()
        assert h.method == "bisection"
        assert h.value == pytest.approx(1.0, abs=1e-9)

    def test_probe_horizon_sentinel(self):
        masked = _Masked(Strip(1.0, 0.0))
        track = OrbitTrack.from_omega(masked, 0j, NONELLIPTIC)
        h = track.horizon()
        assert h.value == math.inf
        assert h.method == "probe"

    def test_elliptic_constant_orbit_excluded(self, builtins):
        with pytest.raises(ParameterError):
            builtins["dilation"].backward_horizon(0j)

    def test_backward_values(self, builtins):
        sg = builtins["halfplane"]
        samples = sg.backward_orbit(0j, [0.0, 0.5])
        assert samples[0].z == 0j
        assert samples[1].z == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_backward_elliptic(self, builtins):
        sg = builtins["dilation"]
        s = sg.backward_orbit(0.5 + 0j, [0.0, 0.5])[1]
        assert s.z == pytest.approx(0.5 * math.exp(0.5), abs=1e-6)

    def test_cross_check_runs_on_a_grid_that_starts_late(self, builtins,
                                                         monkeypatch):
        # the ODE runs from z at t = 0 through the grid's nodes; the samples
        # are the unchecked route's, with no sample at t = 0
        calls = []

        def counted(f, z0, grid):
            calls.append((z0, list(grid)))
            return integrate_complex(f, z0, grid)

        monkeypatch.setattr(semigroup, "integrate_complex", counted)
        sg = builtins["halfplane"]
        grid = [0.25, 0.5, 0.75]
        checked = sg.backward_orbit(0j, grid, cross_check=True)
        assert calls == [(0j, [0.0, 0.25, 0.5, 0.75])]
        assert checked == sg.backward_orbit(0j, grid, cross_check=False)
        assert [s.t for s in checked] == grid

    def test_grid_beyond_horizon(self, builtins):
        with pytest.raises(HorizonError) as exc:
            builtins["halfplane"].backward_orbit(0j, [0.0, 0.5, 1.5])
        assert exc.value.horizon == 1.0

    def test_exit_bisection_tolerance(self, builtins):
        masked = _Masked(HalfPlane("right", 0.0))
        track = OrbitTrack.from_omega(masked, 2.5, NONELLIPTIC)
        assert track.horizon().value == pytest.approx(2.5, abs=1e-9)


class TestFullOrbit:
    def test_halfplane_values(self, builtins):
        samples = builtins["halfplane"].full_orbit(0j, [-0.5, 0.0, 1.0])
        assert [s.t for s in samples] == [-0.5, 0.0, 1.0]
        assert samples[0].z == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert samples[1].z == 0j
        assert samples[2].z == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_elliptic_values(self, builtins):
        samples = builtins["dilation"].full_orbit(0.5 + 0j, [-0.5, 0.5])
        assert samples[0].z == pytest.approx(0.5 * math.exp(0.5), abs=1e-6)
        assert samples[1].z == pytest.approx(0.5 * math.exp(-0.5), abs=1e-6)

    def test_splice_continuity(self, builtins):
        for name, sg in builtins.items():
            z = catalog.builtin_start(name)
            eps = 1e-6
            fo = sg.full_orbit(z, [-eps, 0.0, eps], cross_check=False)
            assert abs(fo[1].z - fo[0].z) < 1e-5
            assert abs(fo[2].z - fo[1].z) < 1e-5


class TestSemigroupLaws:
    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_type_invariants(self, name, builtins):
        checks = builtins[name].validate(seed=5)
        for key, (passed, worst) in checks.items():
            assert passed, f"{key} worst={worst}"

    def test_koenigs_functional_equation(self, builtins, rng):
        for name, sg in builtins.items():
            for z in disk_points(rng, 20, 0.6, 0.05):
                for t in (0.3, 1.7):
                    w = sg.koenigs_image(sg.phi(t, z))
                    assert abs(w - sg.orbit_w(z, t)) < 1e-8

    def test_kind_validation(self):
        omega = HalfPlane("right", 0.0)
        h = MapExpr((Mobius(1, 1, -1, 1),), source=unit_disk(), target=omega)
        with pytest.raises(ParameterError):
            Semigroup("parabolic", h, omega)
        with pytest.raises(ParameterError):
            Semigroup("elliptic", h, omega)  # missing mu
        with pytest.raises(ParameterError):
            Semigroup("nonelliptic", h, omega, mu=1.0)


class TestDenjoyWolff:
    def test_anchors(self, builtins):
        assert abs(builtins["halfplane"].denjoy_wolff_estimate(0j).point
                   - 1.0) < 1e-6
        assert abs(builtins["strip"].denjoy_wolff_estimate(0j).point
                   - 1.0) < 1e-8
        assert abs(builtins["dilation"].denjoy_wolff_estimate().point) < 1e-10

    def test_reported_time(self, builtins):
        dw = builtins["strip"].denjoy_wolff_estimate(0j)
        assert dw.converged and dw.achieved_time < 1e3

    def test_stalled_probe_is_flagged(self, builtins):
        # the half-plane approach is ~1/T; a tiny probe ceiling cannot meet
        # the tolerance and must report rather than extrapolate
        dw = builtins["halfplane"].denjoy_wolff_estimate(0j, max_time=64.0)
        assert not dw.converged
        assert dw.last_diff > 1e-8

    def test_elliptic_tau(self, builtins):
        assert builtins["dilation"].tau == 0j


class TestFullOrbitHorizon:
    def test_grid_past_backward_horizon_rejected(self, builtins):
        with pytest.raises(HorizonError):
            builtins["halfplane"].full_orbit(0j, [-1.5, 0.0, 1.0])


class TestRiemannMap:
    """A semigroup on the unit disk checks that h maps the disk onto its
    domain, and installs h^{-1} as the Riemann map of a domain that has
    none of its own."""

    def test_disk_semigroup_installs_its_inverse(self, builtins):
        omega = Channel(profile="log_cos")
        h = MapExpr(builtins["channel"].koenigs.chain, source=unit_disk(),
                    target=omega)
        sg = Semigroup(NONELLIPTIC, h, omega)
        assert omega.exact is None  # a copy carries it
        assert sg.omega == omega
        assert sg.omega.exact_map is h.inverted()
        assert builtins["channel"].omega.exact_map is \
            builtins["channel"].koenigs.inverted()

    def test_a_domain_with_its_own_map_is_kept(self, builtins):
        omega = HalfPlane("right", 0.0)
        sg = Semigroup(NONELLIPTIC, builtins["halfplane"].koenigs, omega)
        assert sg.omega is omega and omega.exact is None

    def test_conjugate_keeps_the_disk_source_map(self, builtins):
        # h . f^{-1} has f(D) as source: it installs nothing, and omega
        # keeps the map that h^{-1} gave it
        sg = builtins["channel"]
        conj = sg.conjugate(quadratic_map())
        assert not conj.disk_source
        assert conj.omega is sg.omega
        assert conj.omega.exact_map is sg.koenigs.inverted()
        bare = Semigroup(NONELLIPTIC, conj.koenigs, Channel(profile="log_cos"))
        assert bare.omega.exact_map is None

    def test_a_winding_spiral_sector_reads_through_the_installed_map(self):
        # exp(mu u) on the strip |Im u| < 0.3: a sector that winds, so the
        # kind has no chain of its own
        mu = 1.0 + 1.0j
        omega = SpiralSector(mu=mu, half_angle=0.3)
        h = MapExpr((Mobius(1, 1, -1, 1), Log(0.0),
                     Affine(0.6 / math.pi * mu, 0.0), Exp()),
                    source=unit_disk(), target=omega)
        assert omega.hyperbolic_density(1.0 + 0j) is None
        sg = Semigroup(ELLIPTIC, h, omega, mu=mu)
        assert sg.omega.exact_map is h.inverted()
        # h(0) = 1, and h'(0) = -2 * 0.6 mu / pi
        assert sg.omega.hyperbolic_density(1.0 + 0j) == pytest.approx(
            math.pi / (1.2 * abs(mu)), rel=1e-12)

    @pytest.mark.parametrize("omega, chain_of", [
        (SlitStrip(half_width=1.0, slits=((-1.0, 0.0),)), "strip"),
        (Channel(profile="inv_log"), "channel"),
        (Channel(profile="exp"), "channel"),
        (SlitStrip(half_width=1.0, slits=((0.0, 0.5),)), "strip"),
    ])
    def test_a_chain_onto_another_region_raises(self, builtins, omega,
                                                chain_of):
        # the strip's chain maps onto the whole strip, which holds the slit;
        # the log_cos chain misses part of each other channel.  Built in
        # code, each once left the domain to interval bounds
        h = MapExpr(builtins[chain_of].koenigs.chain, source=unit_disk(),
                    target=omega)
        with pytest.raises(ScenarioError, match=f"koenigs does not map the "
                           f"unit disk onto the {omega.kind} domain"):
            Semigroup(NONELLIPTIC, h, omega)

    def test_a_map_onto_a_bounded_part_raises(self):
        # sin(D) is a bounded part of the strip: the semigroup once read
        # Certified (bound 8.99e-176) with an infinite backward horizon
        with pytest.raises(ScenarioError, match="onto the strip domain"):
            Semigroup(NONELLIPTIC, MapExpr((Sin(),), source=unit_disk()),
                      Strip(2.0))

    @pytest.fixture
    def verdicts(self, monkeypatch):
        """The outcomes of every _riemann_verdict call, in order."""
        calls = []
        verdict = domains._riemann_verdict

        def counted(dom, koenigs):
            calls.append(verdict(dom, koenigs))
            return calls[-1]
        monkeypatch.setattr(domains, "_riemann_verdict", counted)
        return calls

    @pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
    def test_a_builtin_is_checked_once(self, name, verdicts):
        catalog.builtin_semigroup(name)
        assert verdicts == [True]

    def test_an_inconclusive_scenario_is_checked_once(self, builtins,
                                                      verdicts):
        # the channel's chain behind a disk automorphism that moves 0 to
        # within 1e-12 of the unit circle: a Riemann map of the channel
        # whose sampled preimages round onto the circle.  A scenario once
        # ran the check at parse and again in Semigroup
        a = 1.0 - 1e-12
        chain = (Mobius(1, -a, -a, 1), *builtins["channel"].koenigs.chain)
        doc = {"type": "nonelliptic",
               "koenigs": MapExpr(chain, source=unit_disk()).to_dict(),
               "domain": {"kind": "channel", "profile": "log_cos"},
               "start_points": [[0, 0]]}
        verdicts.clear()
        sc = Scenario.parse(doc)
        assert verdicts == [None]
        assert sc.domain.exact_map is None

    def test_a_conjugate_is_not_checked(self, builtins, verdicts):
        sg = builtins["channel"]
        verdicts.clear()
        sg.conjugate(quadratic_map())
        assert verdicts == []

    @pytest.mark.parametrize("kind", [HalfPlane, Channel, SlitStrip])
    def test_no_constructor_takes_a_map(self, builtins, kind):
        with pytest.raises(TypeError):
            kind(exact=builtins["channel"].koenigs.inverted())


class TestConjugation:
    def test_halfplane_through_mobius(self, builtins):
        # f(z) = z/(1-z): zeta = 0, t = 1 -> f(1/3) = 0.5
        f = MapExpr((Mobius(1, 0, -1, 1),), source=unit_disk())
        conj = builtins["halfplane"].conjugate(f)
        assert conj.phi(1.0, 0j) == pytest.approx(0.5, abs=1e-12)

    def test_identity_conjugation(self, builtins):
        ident = MapExpr.identity(unit_disk())
        conj = builtins["halfplane"].conjugate(ident)
        for t in (0.5, 2.0):
            assert conj.phi(t, 0j) == pytest.approx(
                builtins["halfplane"].phi(t, 0j), abs=1e-12)

    def test_chain_rule_generator(self, builtins):
        # f(z) = z - z^2/2: G^D(0) = f'(0) G(0) = 0.5
        conj = builtins["halfplane"].conjugate(quadratic_map())
        assert conj.generator(0j) == pytest.approx(0.5, abs=1e-10)

    def test_orbit_sampler_handles_overflow(self, builtins):
        f = MapExpr((Mobius(1, 0, -1, 1),), source=unit_disk())
        conj = builtins["strip"].conjugate(f)
        z1, z1000 = conj.phi_from_image(np.array([1.0, 1000.0]),
                                        conj.koenigs_image(0j)).tolist()
        assert math.isfinite(z1.real) and math.isfinite(z1.imag)
        assert math.isnan(z1000.real)  # past the representable horizon

    def test_conjugate_is_a_semigroup(self, builtins):
        sg = builtins["strip"]
        conj = sg.conjugate(quadratic_map())
        assert type(conj) is Semigroup
        assert (conj.kind, conj.omega, conj.mu, conj.name) == \
            (sg.kind, sg.omega, sg.mu, sg.name)
        assert sg.disk_source and not conj.disk_source

    def test_cross_check_is_relative_off_the_disk(self, builtins):
        # on f(D) = {Re > -1/2} the orbit runs off to |z_t| ~ 4e6 by t = 10,
        # where the pullback and the ODE agree to a relative ~2e-9 but an
        # absolute ~7e-3
        strip = builtins["strip"]
        f = MapExpr((Mobius(1, 0, -1, 1),), source=unit_disk())
        sg = Semigroup("nonelliptic", compose(strip.koenigs, f.inverted()),
                       strip.omega)
        samples = sg.forward_orbit(0.1, [0.0, 1.0, 2.0, 5.0, 10.0])
        assert abs(samples[-1].z) > 1e6

    @pytest.mark.parametrize("zeta", [0j, 0.1 + 0.1j])
    def test_sandwich_is_not_checked_off_the_disk(self, builtins, zeta):
        conj = builtins["halfplane"].conjugate(quadratic_map())
        rep = backward_criterion(OrbitTrack.from_semigroup(conj, zeta))
        assert rep.z_modulus is None
        assert not rep.sandwich_checked and rep.sandwich_ok
        rep = backward_criterion(OrbitTrack.from_semigroup(
            builtins["halfplane"], zeta))
        assert rep.sandwich_checked and rep.sandwich_ok

    def test_denjoy_wolff_refuses_other_sources(self, builtins):
        # the estimate projects onto the unit circle; on the quadratic
        # conjugate the true point is f(1) = 1/2
        conj = builtins["halfplane"].conjugate(quadratic_map())
        with pytest.raises(ParameterError):
            conj.denjoy_wolff_estimate(0j)
        with pytest.raises(ParameterError):
            conj.tau
        with pytest.raises(ParameterError):
            shift_classify(builtins["uhp"].conjugate(quadratic_map()), 0j)
        # elliptic: h^{-1}(0) holds on every source
        dil = builtins["dilation"].conjugate(quadratic_map())
        assert dil.tau == dil.denjoy_wolff_estimate().point
        assert abs(dil.tau) < 1e-12

    def test_hayman_wu_refuses_other_sources(self, builtins):
        conj = builtins["halfplane"].conjugate(quadratic_map())
        with pytest.raises(ParameterError):
            hayman_wu_audit(conj, 0j)


def _chain_rule_generator(sg, f, zeta):
    """G^D(zeta) = f'(f^{-1}(zeta)) G(f^{-1}(zeta)): the generator of the
    conjugate by the chain rule through the base semigroup."""
    z = f.invert(zeta, check=False)
    return f.derivative(z) * sg.generator(z)


def _unchecked_phi(sg, f, t, zeta):
    """phi_t^D(zeta) by pullback through h . f^{-1} with neither the source
    nor the target checked."""
    h = compose(sg.koenigs, f.inverted())
    w0 = h.evaluate(zeta, check=False)
    return h.invert(koenigs_flow(sg.kind, sg.mu, w0, t), check=False)


class TestConjugationAgainstReferences:
    CASES = [(base, f) for base in ("halfplane", "strip")
             for f in ("quadratic", "mobius")]

    @staticmethod
    def _conjugation(builtins, base, f):
        fs = {"quadratic": quadratic_map(),
              "mobius": MapExpr((Mobius(1, 0, -1, 1),), source=unit_disk())}
        sg = builtins[base]
        rng = np.random.default_rng([41, len(base), len(f)])
        zetas = [fs[f].evaluate(z) for z in disk_points(rng, 8, 0.9)]
        return sg, fs[f], sg.conjugate(fs[f]), zetas

    @pytest.mark.parametrize("base,f", CASES)
    def test_generator_matches_the_chain_rule(self, builtins, base, f):
        sg, fmap, conj, zetas = self._conjugation(builtins, base, f)
        for zeta in zetas:
            ref = _chain_rule_generator(sg, fmap, zeta)
            assert abs(conj.generator(zeta) - ref) <= 1e-12 * abs(ref), zeta

    @pytest.mark.parametrize("base,f", CASES)
    def test_phi_matches_the_unchecked_step(self, builtins, base, f):
        sg, fmap, conj, zetas = self._conjugation(builtins, base, f)
        for zeta in zetas:
            for t in (0.0, 0.3, 1.0, 4.0, 25.0):
                assert repr(conj.phi(t, zeta)) == \
                    repr(_unchecked_phi(sg, fmap, t, zeta)), (zeta, t)


class TestOrbitSampleInvariants:
    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_koenigs_image_consistency(self, name, builtins):
        sg = builtins[name]
        z0 = catalog.builtin_start(name)
        for s in sg.forward_orbit(z0, [0.0, 0.5, 1.0, 2.0],
                                  cross_check=False):
            if s.delta_disk > 1e-8:
                assert abs(sg.koenigs_image(s.z) - s.w) < 1e-9
            assert abs(s.g - sg.generator_at_w(s.w)) < 1e-8


class TestIntegrator:
    def test_exponential_decay(self):
        got = integrate_complex(lambda t, z: -z, 1.0 + 0j, [0.0, 1.0, 2.0])
        assert got[1] == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert got[2] == pytest.approx(math.exp(-2.0), abs=1e-9)

    def test_rotation(self):
        got = integrate_complex(lambda t, z: 1j * z, 1.0 + 0j,
                                [0.0, math.pi])
        assert got[1] == pytest.approx(-1.0, abs=1e-8)

    def test_a_nan_time_is_a_parameter_error(self):
        with pytest.raises(ParameterError):
            integrate_complex(lambda t, z: -z, 1.0 + 0j, [0.0, math.nan, 2.0])

    def test_field_error_is_the_cross_checks_own_error(self):
        # a field that fails raised its own EvaluationError, which named
        # neither the ODE nor the check
        def field(t, z):
            if z.real > 2.0:
                raise EvaluationError(f"overflow evaluating at {z!r}",
                                      overflow=True)
            return 1.0 + 0j

        with pytest.raises(CrossValidationError) as info:
            integrate_complex(field, 0j, [0.0, 1.0, 5.0])
        err = info.value
        assert str(err).startswith(
            "ODE step size collapsed: overflow evaluating at")
        assert isinstance(err.__cause__, EvaluationError)
        assert err.diagnostics["t"] > 2.0
        assert err.diagnostics["z"].real > 2.0


class TestDop853:
    """The package's DOP853 stepper against SciPy's (SciPy is a test-only
    reference, from the ``test`` extra)."""

    @staticmethod
    def solve_ivp_nodes(f, z0, grid):
        # imported here: test_cold_start runs TestConcurrentTraces from this
        # module in an interpreter that must not have loaded SciPy
        from scipy.integrate import solve_ivp

        sol = solve_ivp(lambda t, y: [f(float(t), complex(y[0]))],
                        (grid[0], grid[-1]), [complex(z0)], method="DOP853",
                        dense_output=True, rtol=1e-9, atol=1e-9)
        assert sol.status == 0
        return [complex(z) for z in sol.sol(grid)[0]]

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    @pytest.mark.parametrize("grid", ["trace", "half-steps", "backward"])
    def test_nodes_agree_with_solve_ivp(self, name, grid):
        # the grids of `diskflow trace` (the bench's TRACE_GRID) and of
        # TestConcurrentTraces
        sg = catalog.builtin_semigroup(name)
        z0 = catalog.builtin_start(name)
        sign = 1.0
        if grid == "trace":
            ts = GridSpec("linear", 0.0, 10.0, 101).times()
        elif grid == "half-steps":
            ts = [0.5 * i for i in range(11)]
        else:
            sign = -1.0
            t_back = min(5.0, 0.5 * sg.backward_horizon(z0).value)
            ts = [0.1 * t_back * i for i in range(11)]
        f = lambda t, z: sign * sg.generator(z, check=False)
        got = integrate_complex(f, z0, ts)
        want = self.solve_ivp_nodes(f, z0, ts)
        assert len(got) == len(ts) and got[0] == z0
        assert max(abs(a - b) / max(1.0, abs(b))
                   for a, b in zip(got, want)) <= 1e-8

    def test_blow_up_collapses(self):
        # z' = z^2 from 1 is 1/(1 - t), which blows up at t = 1: the step
        # shrinks below 10 ulp(t) there
        below = "collapsed: step .* below 10 ulp"
        with deadline(10):
            with pytest.raises(CrossValidationError, match=below) as info:
                integrate_complex(lambda t, z: z * z, 1.0 + 0j, [0.0, 2.0])
        assert 1.0 - 1e-8 < info.value.diagnostics["t"] < 1.0 + 1e-8

    def test_the_step_cap_collapses(self):
        # a rotation by 1e6 radians per unit time needs about 2e6 steps
        with deadline(10):
            with pytest.raises(CrossValidationError,
                               match="collapsed: .* step attempts") as info:
                integrate_complex(lambda t, z: 1e6j * z, 1.0 + 0j, [0.0, 1.0])
        d = info.value.diagnostics
        assert d["accepted"] + d["rejected"] == semigroup._ODE_MAX_STEPS
        assert d["t"] < 1.0

    @pytest.mark.parametrize("grid", [[0.0, 1.0, math.inf],
                                      [-math.inf, 0.0, 1.0]])
    def test_an_infinite_time_is_a_parameter_error(self, grid):
        # solve_ivp stepped towards t = inf without end
        with deadline(10), pytest.raises(ParameterError, match="finite"):
            integrate_complex(lambda t, z: -z, 1.0 + 0j, grid)


class TestConcurrentTraces:
    @staticmethod
    def trace(name):
        # fresh semigroups, so the threads also race to build each map's
        # lazily kept inverse chain
        sg = catalog.builtin_semigroup(name)
        z0 = catalog.builtin_start(name)
        horizon = sg.backward_horizon(z0).value
        t_back = min(5.0, 0.5 * horizon)
        fwd = sg.forward_orbit(z0, [0.5 * i for i in range(11)],
                               cross_check=True)
        bwd = sg.backward_orbit(z0, [0.1 * t_back * i for i in range(11)],
                                cross_check=True)
        return repr(fwd), repr(bwd)

    def test_threads_match_a_sequential_run(self):
        # README: orbits may be computed concurrently without locking; the
        # ODE cross-check must be re-entrant for this to hold
        names = sorted(catalog.BUILTIN_NAMES)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(self.trace, n) for n in names]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [self.trace(n) for n in names]
