import cmath
import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from diskflow import (EvaluationError, ParameterError, SpiralSpec, analysis,
                     catalog, quadpack)
from diskflow.analysis import (CERTIFIED, FINITE_HORIZON, INCONCLUSIVE,
                               NON_REGULAR, REGULAR, REFUTED_TREND,
                               SHIFT_FINITE, SHIFT_NOT_APPLICABLE, Heuristic,
                               OrbitTrack, ahlfors_audit, arc_length,
                               backward_criterion, backward_tail_grid,
                               bilipschitz_probe, euclidean_sufficient_test,
                               forward_certificate, generator_tail,
                               hayman_wu_audit, lipschitz_quotient,
                               regularity_classify, shift_classify,
                               _spiral_length_in_disk)
from diskflow.confmap import MapExpr
from diskflow.domains import example1_domain

from conftest import disk_points, each_time


class TestArcLength:
    def test_halfplane_forward_infinite(self, builtins):
        # closed form: the orbit is the segment [0, 1), length 1
        sg = builtins["halfplane"]
        g = lambda t: abs(sg.generator_at_w(1.0 + t))
        res = arc_length(g_abs=g, t0=0.0, t1=math.inf)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert res.converged

    def test_halfplane_forward_to_ten(self, builtins):
        # |phi_10(0) - 0| along the straight segment: 10/12
        sg = builtins["halfplane"]
        g = lambda t: abs(sg.generator_at_w(1.0 + t))
        res = arc_length(g_abs=g, t0=0.0, t1=10.0)
        assert res.value == pytest.approx(10.0 / 12.0, abs=1e-9)

    def test_elliptic_spiral_length(self, builtins):
        # |G(gamma)| = sqrt(2) * 0.5 * e^{-t}; quadrature oracle
        sg = builtins["spiral"]
        w0 = 0.5
        g = lambda t: abs(sg.generator_at_w(w0 * cmath.exp(-(1 + 1j) * t)))
        oracle, _ = quad(lambda t: math.sqrt(2) * 0.5 * math.exp(-t), 0,
                         math.inf)
        res = arc_length(g_abs=g, t0=0.0, t1=math.inf)
        assert res.value == pytest.approx(oracle, abs=1e-8)
        assert res.value == pytest.approx(math.sqrt(2) * 0.5, abs=1e-8)


class TestHaymanWu:
    def test_halfplane_diameter(self, builtins):
        res = hayman_wu_audit(builtins["halfplane"], 0j)
        assert res["pass"]
        assert res["length"] == pytest.approx(2.0, abs=1e-6)

    def test_strip(self, builtins):
        res = hayman_wu_audit(builtins["strip"], 0j)
        assert res["pass"]
        assert res["length"] == pytest.approx(2.0, abs=1e-6)

    def test_channel_finite(self, builtins):
        res = hayman_wu_audit(builtins["channel"], 0j)
        assert res["pass"]
        assert 0 < res["length"] <= 4.0 * math.pi + 1e-6

    def test_a_piece_that_does_not_converge_fails(self, builtins,
                                                  monkeypatch):
        # QUADPACK calls the backward piece divergent (ier 5): its length
        # stays within the bound, but it no longer counts
        port = quadpack.quad

        def divergent_backward(f, a, b):
            value, abserr, ier = port(f, a, b)
            return value, abserr, ier if math.isinf(b) else 5

        monkeypatch.setattr(quadpack, "quad", divergent_backward)
        res = hayman_wu_audit(builtins["halfplane"], 0j)
        assert res["length"] == pytest.approx(2.0, abs=1e-6)
        assert res["forward"].converged and not res["backward"].converged
        assert not res["pass"]

    def test_uhp_quadrature_oracle(self, builtins):
        # |G| along the full orbit is 2/(4 + t^2); its integral over the
        # whole line is pi
        oracle, _ = quad(lambda t: 2.0 / (4.0 + t * t), -math.inf, math.inf)
        res = hayman_wu_audit(builtins["uhp"], 0j)
        assert res["length"] == pytest.approx(oracle, abs=1e-8)
        assert res["length"] == pytest.approx(math.pi, abs=1e-8)

    def test_elliptic_rejected(self, builtins):
        with pytest.raises(ParameterError):
            hayman_wu_audit(builtins["dilation"], 0.5 + 0j)


class TestLipschitzQuotient:
    def test_halfplane_orbit_sup(self):
        # gamma(t) = t/(2+t): sup of |gamma'| = 1/2 at t = 0
        q = lipschitz_quotient(each_time(lambda t: complex(t / (2.0 + t))),
                               0.0, 100.0)
        assert q.value == pytest.approx(0.5, abs=1e-6)

    def test_constant_curve(self):
        q = lipschitz_quotient(each_time(lambda t: 1j), 0.0, 10.0)
        assert q.value == 0.0

    def test_exponential_decay(self):
        # gamma(t) = 0.5 e^{-t}: sup = |gamma'(0)| = 0.5
        q = lipschitz_quotient(
            each_time(lambda t: complex(0.5 * math.exp(-t))), 0.0, 10.0)
        assert q.value == pytest.approx(0.5, abs=1e-6)

    def test_skips_overflowed_samples(self):
        def sampler(t):
            return None if t > 5.0 else complex(t)
        q = lipschitz_quotient(each_time(sampler), 0.0, 10.0)
        assert q.skipped > 0
        assert q.value == pytest.approx(1.0, abs=1e-6)

    def test_overflowing_difference_is_a_typed_overflow(self):
        # |gamma(b) - gamma(a)| past the float range maps to exit 3
        with pytest.raises(EvaluationError) as err:
            lipschitz_quotient(
                lambda ts: np.where(ts > 5.0, complex(1.5e308, 1.5e308), 0j),
                0.0, 10.0)
        assert err.value.overflow

    def test_one_sampler_call_on_the_plan_times(self):
        calls = []

        def sample(ts):
            calls.append(ts)
            return ts.astype(complex)

        q = lipschitz_quotient(sample, 0.0, 10.0)
        assert len(calls) == 1 and calls[0].dtype == np.float64
        assert calls[0] is analysis._pair_plan(0.0, 10.0).times
        assert q.value == pytest.approx(1.0) and q.skipped == 0

    @pytest.mark.parametrize("t1", [1e-8, 4e-8])
    def test_an_interval_without_a_pair_is_a_parameter_error(self, t1):
        # the near-duplicate filter, 0.5e-7 max(1, |t|), merged every time
        # into one, which read Quotient(0.0, 0, 0) for a curve of speed 1
        with pytest.raises(ParameterError, match="no pair"):
            lipschitz_quotient(lambda ts: ts + 0j, 0.0, t1)
        # the shortest span with a pair
        q = lipschitz_quotient(lambda ts: ts + 0j, 0.0, 5e-8)
        assert (q.value, q.pairs) == (1.0, 1)

    @pytest.mark.parametrize("t0,t1", [(0.0, math.inf), (-math.inf, 0.0),
                                       (0.0, math.nan)])
    def test_an_end_that_is_not_finite_is_a_parameter_error(self, t0, t1):
        # t1 = inf sampled NaN times and read 1.0 from one pair, with 119
        # samples skipped
        with pytest.raises(ParameterError):
            lipschitz_quotient(lambda ts: ts + 0j, t0, t1)


class TestForwardCertificate:
    def test_halfplane_anchor(self, builtins):
        cert = forward_certificate(builtins["halfplane"], 0j)
        assert cert.constant == pytest.approx(1.0, abs=1e-12)
        assert cert.measured == pytest.approx(0.5, abs=1e-6)
        assert cert.passed

    def test_strip_anchor(self, builtins):
        cert = forward_certificate(builtins["strip"], 0j)
        assert cert.constant == pytest.approx(1.0, abs=1e-12)
        assert cert.measured == pytest.approx(math.pi / 4.0, abs=1e-6)
        assert cert.passed

    def test_example1_constant(self):
        # delta_Omega(0) = 2 gives the certificate 1/2
        assert 1.0 / example1_domain(10).boundary_distance(0j) == 0.5

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_random_starts(self, name, builtins, rng):
        sg = builtins[name]
        for z in disk_points(rng, 25, 0.8, 0.05):
            assert forward_certificate(sg, z).passed


def _tail(sg, z):
    return generator_tail(backward_criterion(OrbitTrack.from_semigroup(sg, z)))


class TestGeneratorTail:
    def test_halfplane(self, builtins):
        tail = _tail(builtins["halfplane"], 0j)
        assert tail.sup_tail == pytest.approx(2.0, abs=1e-6)
        assert not tail.diverging

    def test_dilation(self, builtins):
        tail = _tail(builtins["dilation"], 0.5 + 0j)
        assert tail.sup_tail == pytest.approx(1.0, abs=1e-6)
        assert not tail.diverging

    def test_strip_decays(self, builtins):
        tail = _tail(builtins["strip"], 0j)
        assert tail.trend in ("decreasing", "flat")
        assert tail.sup_tail < math.pi / 4.0

    def test_slit_tip_diverges(self):
        tail = generator_tail(backward_criterion(catalog.slit_tip_track()))
        assert tail.diverging

    def test_the_report_heuristic_sets_the_tail(self, builtins):
        # the tail once read the default window and thresholds, whatever
        # heuristic the report was made with
        track = OrbitTrack.from_semigroup(builtins["uhp"], 0j)
        rep = backward_criterion(track, heuristic=Heuristic(window=3))
        g = [s.g_abs for s in rep.samples]
        assert generator_tail(rep).sup_tail == max(g[-3:]) < max(g[-5:])
        tip = backward_criterion(catalog.slit_tip_track(),
                                 heuristic=Heuristic(abs_threshold=1e300))
        assert not generator_tail(tip).diverging

    def test_a_mapless_report_has_no_tail(self):
        with pytest.raises(ParameterError, match="map-backed"):
            generator_tail(backward_criterion(catalog.example_track(2),
                                              t_max=4.0))


class TestBackwardCriterion:
    def test_halfplane_constant_half(self, builtins):
        rep = backward_criterion(OrbitTrack.from_semigroup(
            builtins["halfplane"], 0j))
        for s in rep.samples:
            assert s.ratio.lo == pytest.approx(0.5, abs=1e-9)
            assert s.ratio.hi == pytest.approx(0.5, abs=1e-9)
        assert rep.verdict == CERTIFIED
        assert rep.bound == pytest.approx(0.5, abs=1e-9)

    def test_dilation_anchor(self, builtins):
        rep = backward_criterion(OrbitTrack.from_semigroup(
            builtins["dilation"], 0.5 + 0j))
        assert rep.samples[0].ratio.lo == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert rep.verdict == CERTIFIED

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_sandwich_invariant(self, name, builtins):
        rep = backward_criterion(OrbitTrack.from_semigroup(
            builtins[name], catalog.builtin_start(name)))
        assert rep.sandwich_checked
        assert rep.sandwich_ok, f"worst slack {rep.sandwich_worst}"

    def test_example2_certified(self):
        rep = backward_criterion(catalog.example_track(2))
        assert rep.verdict == CERTIFIED

    def test_example3_certified(self):
        rep = backward_criterion(catalog.example_track(3))
        assert rep.verdict == CERTIFIED

    def test_slit_tip_refuted(self):
        rep = backward_criterion(catalog.slit_tip_track())
        assert rep.verdict == REFUTED_TREND
        assert rep.sandwich_ok

    def test_report_serialization(self, builtins):
        rep = backward_criterion(OrbitTrack.from_semigroup(
            builtins["halfplane"], 0j))
        d = rep.to_dict()
        assert d["verdict"] == CERTIFIED
        assert d["heuristic"]["window"] == 5
        assert d["heuristic"]["growth_factor"] == 1.2
        assert d["heuristic"]["abs_threshold"] == 1e3
        assert d["samples"][0]["ratio_lo"] == pytest.approx(0.5)

    def test_truncation_recorded(self):
        rep = backward_criterion(catalog.example_track(1, truncation=12))
        assert rep.truncation == 12

    def test_heuristic_override(self, builtins):
        # an absurdly small threshold forces Inconclusive
        rep = backward_criterion(
            OrbitTrack.from_semigroup(builtins["halfplane"], 0j),
            heuristic=Heuristic(abs_threshold=0.1))
        assert rep.verdict == INCONCLUSIVE

    def test_criterion_matches_generator_tail(self, builtins):
        for name in catalog.BUILTIN_NAMES:
            sg = builtins[name]
            z = catalog.builtin_start(name)
            rep = backward_criterion(OrbitTrack.from_semigroup(sg, z))
            tail = generator_tail(rep)
            assert (rep.verdict == CERTIFIED) == (not tail.diverging)

    @pytest.mark.parametrize("name", ["halfplane", "strip", "uhp",
                                      "dilation", "spiral"])
    def test_disk_side_ratio_identity(self, name, builtins):
        # conformal-invariance oracle, entirely on the disk side:
        # ratio(t) = lambda_D(gamma~) |G(gamma~)| exp(-2 k_D(z, gamma~))
        # (elliptic ratios divide the |mu h(z)| e^{Re mu t} weight back out
        # of |G| = |mu w| |(h^{-1})'(w)|)
        from diskflow import disk_density, disk_distance

        sg = builtins[name]
        z = catalog.builtin_start(name)
        track = OrbitTrack.from_semigroup(sg, z)
        T = track.horizon().value
        for t in (0.25 * min(T, 4.0), 0.6 * min(T, 4.0)):
            w = track.w(t)
            zt = sg.koenigs.invert(w)
            g = abs(sg.generator_at_w(w))
            if sg.kind == "elliptic":
                g /= abs(sg.mu * w)
                weight = math.exp(sg.mu.real * t)
            else:
                weight = 1.0
            oracle = disk_density(zt) * g * math.exp(
                -2.0 * disk_distance(z, zt)) * weight
            from diskflow.analysis import criterion_ratio
            ratio = criterion_ratio(track, t)
            assert ratio.degenerate
            assert ratio.lo == pytest.approx(oracle, rel=1e-9)


class TestRegularity:
    def test_strip_regular_quarter_pi(self, builtins):
        res = regularity_classify(OrbitTrack.from_semigroup(
            builtins["strip"], 0j))
        assert res.classification == REGULAR
        for _, k in res.steps:
            assert k.lo == pytest.approx(math.pi / 4.0, abs=1e-9)

    def test_uhp_regular(self, builtins):
        assert regularity_classify(OrbitTrack.from_semigroup(
            builtins["uhp"], 0j)).classification == REGULAR

    def test_halfplane_finite_horizon(self, builtins):
        assert regularity_classify(OrbitTrack.from_semigroup(
            builtins["halfplane"], 0j)).classification == FINITE_HORIZON

    @pytest.mark.parametrize("k", [2, 3])
    def test_examples_nonregular(self, k):
        assert regularity_classify(
            catalog.example_track(k)).classification == NON_REGULAR

    def test_example1_nonregular(self):
        assert regularity_classify(
            catalog.example_track(1)).classification == NON_REGULAR


class TestEuclideanTest:
    def test_example2_passes(self):
        res = euclidean_sufficient_test(catalog.example_track(2))
        assert res.passed
        assert res.liminf_estimate > 1e-3

    def test_strip_passes(self, builtins):
        res = euclidean_sufficient_test(OrbitTrack.from_semigroup(
            builtins["strip"], 0j))
        assert res.passed

    def test_exp_channel_fails(self):
        res = euclidean_sufficient_test(catalog.exp_channel_track())
        assert not res.passed

    def test_finite_horizon_precondition(self, builtins):
        with pytest.raises(ParameterError):
            euclidean_sufficient_test(OrbitTrack.from_semigroup(
                builtins["halfplane"], 0j))

    def test_elliptic_precondition(self, builtins):
        with pytest.raises(ParameterError):
            euclidean_sufficient_test(OrbitTrack.from_semigroup(
                builtins["dilation"], 0.5 + 0j))


class TestShift:
    def test_uhp_finite_with_unit_quotient(self, builtins):
        res = shift_classify(builtins["uhp"], 0j)
        assert res.classification == SHIFT_FINITE
        assert res.quotient == pytest.approx(1.0, abs=1e-6)
        # Re C(gamma(t)) = Im h(z) = 1, constant
        assert res.sup_re == pytest.approx(1.0, abs=1e-6)

    def test_strip_not_applicable(self, builtins):
        assert shift_classify(builtins["strip"], 0j).classification == \
            SHIFT_NOT_APPLICABLE

    def test_elliptic_not_applicable(self, builtins):
        assert shift_classify(builtins["dilation"], 0.5 + 0j).classification \
            == SHIFT_NOT_APPLICABLE

    # sha256 (first 16 hex digits) of repr(ShiftResult) from the code that
    # re-evaluated h(z) at every probe and quotient time
    REPRS = {
        "uhp": ["36b3c47b9b601f33", "f1f5f9c781757831", "38b32b579c16b703",
                "f140badf82533b16", "c51f8989bc929c8a"],
        "halfplane": ["b924afaf6ee61752"] * 5,
    }

    @pytest.mark.parametrize("name", sorted(REPRS))
    def test_results_keep_their_bits(self, name, builtins):
        rng = np.random.default_rng(23)
        starts = [0j] + disk_points(rng, 4, 0.9)
        digests = [hashlib.sha256(repr(shift_classify(builtins[name], z))
                                  .encode()).hexdigest()[:16] for z in starts]
        assert digests == self.REPRS[name]

    def test_koenigs_image_evaluated_once_past_the_estimate(self, builtins,
                                                             monkeypatch):
        sg = builtins["uhp"]
        z = 0.2 - 0.3j
        calls = []
        evaluate = MapExpr.evaluate

        def counted(self, *args, **kwargs):
            calls.append(self)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(MapExpr, "evaluate", counted)
        sg.denjoy_wolff_estimate(z)
        estimate = len(calls)
        calls.clear()
        shift_classify(sg, z)
        assert len(calls) == estimate + 1


class TestAhlfors:
    def test_bound_formulas(self):
        assert ahlfors_audit(SpiralSpec(1.0, -1.0, 1.0), 10).bound == \
            pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert ahlfors_audit(SpiralSpec(0.5, 2.0, -3.0), 10).bound == \
            pytest.approx(math.sqrt(13.0), abs=1e-12)

    def test_measured_below_bound(self):
        res = ahlfors_audit(SpiralSpec(1.0, -1.0, 1.0), n_disks=400, seed=5)
        assert res.passed
        assert res.measured_sup <= res.bound * 1.001

    def test_ray_case(self):
        res = ahlfors_audit(SpiralSpec(1.0, -1.0, 0.0), n_disks=200, seed=6)
        assert res.passed
        assert res.measured_sup <= 2.0 * 1.001

    def test_circle_trivial(self):
        res = ahlfors_audit(SpiralSpec(1.0, 0.0, 1.0), n_disks=100, seed=7)
        assert res.trivial and res.passed

    def test_length_in_disk_oracle(self):
        # quadrature oracle for one configuration
        spec = SpiralSpec(1.0, -1.0, 1.0)
        c, r = 0.4 + 0.1j, 0.35
        speed = spec.speed_factor()
        oracle, _ = quad(
            lambda t: speed * math.exp(-t)
            * (abs(spec.point(t) - c) < r), 0.0, 40.0, limit=400)
        got = _spiral_length_in_disk(spec, c, r)
        assert got == pytest.approx(oracle, abs=2e-3)

    def test_disk_past_the_float_range_of_the_base_point(self):
        # r / |w0| = 1e-330 underflowed to 0 and log(0) raised a bare
        # ValueError; the trace now restarts where |gamma| reaches the disk,
        # and the whole tail inside |w| < 1e-30 is sqrt(2) 1e-30 long
        spec = SpiralSpec(1e300, -1.0, 1.0)
        got = _spiral_length_in_disk(spec, 0j, 1e-30)
        assert got == pytest.approx(math.sqrt(2.0) * 1e-30, rel=1e-12)
        # off centre: the tail inside |w| < r - |c| lies in the disk, and the
        # disk inside |w| < r + |c|
        got = _spiral_length_in_disk(spec, 1e-31 + 0j, 1e-30)
        assert math.sqrt(2.0) * 9e-31 <= got <= math.sqrt(2.0) * 1.1e-30
        # only the tail start underflows: (r + |c|) / |w0| ~ 2e-310 is
        # subnormal, (r - |c|) / |w0| ~ 1e-325 rounds to 0
        c = complex(1e-10 * (1.0 - 1e-15))
        got = _spiral_length_in_disk(spec, c, 1e-10)
        assert math.sqrt(2.0) * (1e-10 - c.real) <= got <= \
            math.sqrt(2.0) * (1e-10 + c.real)
        # outward, from far inside to a far disk: the ray crosses a diameter
        ray = SpiralSpec(1e-300, 1.0, 0.0)
        assert _spiral_length_in_disk(ray, 1e10 + 0j, 1.0) == \
            pytest.approx(2.0, rel=1e-6)

    def test_exit_past_the_float_range_is_typed(self):
        # the outward trace starts inside and leaves only at 1e310 |w0|,
        # past what its pieces can represent
        with pytest.raises(ParameterError, match="float range"):
            _spiral_length_in_disk(SpiralSpec(1e-300, 1.0, 1.0), 0j, 1e10)

    def test_zero_base_rejected(self):
        with pytest.raises(ParameterError):
            SpiralSpec(0.0, -1.0, 1.0)

    def test_single_point_trace_rejected(self):
        # alpha = beta = 0 is the constant trace; it once measured 2 pi in
        # every disk around w0
        with pytest.raises(ParameterError):
            SpiralSpec(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("w0,alpha,beta", [
        (1.0, math.nan, 1.0), (1.0, -1.0, math.nan), (1.0, math.inf, 1.0),
        (1.0, -1.0, -math.inf), (complex(math.nan, 0.0), -1.0, 1.0),
        (complex(0.0, math.inf), -1.0, 1.0)])
    def test_non_finite_rejected(self, w0, alpha, beta):
        with pytest.raises(ParameterError):
            SpiralSpec(w0, alpha, beta)

    @pytest.mark.parametrize("n_disks", [0, -3])
    def test_no_disks_rejected(self, n_disks):
        with pytest.raises(ParameterError):
            ahlfors_audit(SpiralSpec(1.0, -1.0, 1.0), n_disks)


class TestBilipschitz:
    def test_halfplane_forward_not_bilipschitz(self, builtins):
        sg = builtins["halfplane"]
        samples = sg.forward_orbit(0j, [float(i) for i in range(101)],
                                   cross_check=False)
        probe = bilipschitz_probe(samples)
        assert probe.verdict == "not_bilipschitz"
        assert probe.inf_g == pytest.approx(2.0 / 102.0 ** 2, abs=1e-9)

    def test_halfplane_backward_bilipschitz(self, builtins):
        sg = builtins["halfplane"]
        grid = [0.9 * i / 30 for i in range(31)]
        samples = sg.backward_orbit(0j, grid, cross_check=False)
        probe = bilipschitz_probe(samples)
        assert probe.verdict == "bilipschitz_on_range"
        assert probe.inf_g == pytest.approx(0.5, abs=1e-9)
        assert probe.epsilon == probe.inf_g

    def test_generator_nonvanishing_on_compact(self, builtins):
        # G does not vanish inside the disk: compact forward pieces keep
        # a positive floor
        sg = builtins["strip"]
        samples = sg.forward_orbit(0j, [0.1 * i for i in range(11)],
                                   cross_check=False)
        assert min(s.g_abs for s in samples) > 0.0


class TestSpiralSectorTrack:
    def test_matching_mu_criterion_runs(self):
        # the backward spiral stays inside the invariant sector forever;
        # the grid must stop before the trace modulus overflows
        from diskflow.domains import SpiralSector
        from diskflow.semigroup import ELLIPTIC

        dom = SpiralSector(mu=1.0, half_angle=math.pi / 4)
        track = OrbitTrack.from_omega(dom, 1.0 + 0j, ELLIPTIC, mu=1.0)
        assert track.horizon().value == math.inf
        rep = backward_criterion(track)
        assert rep.samples
        assert rep.verdict in (CERTIFIED, "Inconclusive")


class TestTailGrids:
    def test_finite_horizon_accumulation(self, builtins):
        track = OrbitTrack.from_semigroup(builtins["halfplane"], 0j)
        ts = [t for t, _ in backward_tail_grid(track)]
        assert ts[0] == 0.0
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert 1.0 - ts[-1] < 1e-11  # accumulates at T_z = 1

    def test_infinite_horizon_doubling(self):
        ts = [t for t, _ in backward_tail_grid(catalog.example_track(2))]
        assert ts[:4] == [0.0, 1.0, 2.0, 4.0]
        assert ts[-1] <= 1.0e4

    def test_cutoff_respected(self, builtins):
        track = OrbitTrack.from_semigroup(builtins["dilation"], 0.5 + 0j)
        grid = backward_tail_grid(track)
        omega = builtins["dilation"].omega
        assert all(omega.boundary_distance(track.w(t)) == delta >= 1e-13
                   for t, delta in grid)


class TestConjugationTrends:
    def test_bounded_target_quotients_bounded(self, builtins, rng):
        # Prop 6.2(b) desk check: bounded image domain, non-elliptic base
        from test_confmap import quadratic_map

        sg = builtins["halfplane"]
        f = quadratic_map()
        conj = sg.conjugate(f)
        for z in disk_points(rng, 20, 0.7):
            zeta = f.evaluate(z)
            w0 = conj.koenigs_image(zeta)
            q = lipschitz_quotient(
                lambda ts: conj.phi_from_image(ts, w0), 0.0, 50.0)
            w0 = sg.koenigs_image(z)
            bound = 4.0 * 1.5 / sg.omega.boundary_distance(w0)
            assert q.value <= bound * 1.05

    def test_halfplane_target_quotients_grow(self, builtins):
        # Remark 6.3(ii): hyperbolic base conjugated into a half-plane
        from diskflow.confmap import Mobius
        from diskflow import MapExpr, unit_disk

        f = MapExpr((Mobius(1, 0, -1, 1),), source=unit_disk())
        conj = builtins["strip"].conjugate(f)
        w0 = conj.koenigs_image(0j)
        qs = [lipschitz_quotient(lambda ts: conj.phi_from_image(ts, w0),
                                 0.0, T).value
              for T in (10.0, 100.0, 1000.0)]
        assert qs[0] < qs[1] < qs[2]
        assert all(math.isfinite(q) for q in qs)
