import math

import pytest
from scipy.integrate import quad

from diskflow import (CrossValidationError, DomainError, HalfPlane, Interval,
                      ParameterError, Strip, disk_density,
                      disk_distance, domain_density, domain_distance,
                      example1_domain)
from diskflow.audits import _Masked
from diskflow.cli import main
from diskflow.confmap import Mobius
from diskflow.domains import Disk, HalfStrip, SlitStrip
from diskflow.hypgeo import (RECONCILE_ULPS, logsinh, sin_logpoint,
                             uhp_distance_log, UhpLogPoint)

from conftest import disk_points


class TestDiskDensity:
    def test_origin(self):
        assert disk_density(0) == 1.0

    def test_half(self):
        assert disk_density(0.5) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_point_nine_i(self):
        assert disk_density(0.9j) == pytest.approx(1.0 / (1.0 - 0.81), abs=1e-6)

    def test_outside_rejected(self):
        with pytest.raises(DomainError):
            disk_density(1.0)
        with pytest.raises(DomainError):
            disk_density(2.0 + 1.0j)

    def test_near_boundary_cutoff(self):
        with pytest.raises(DomainError):
            disk_density(1.0 - 1e-14)


class TestDiskDistance:
    def test_identity(self):
        assert disk_distance(0, 0) == 0.0

    def test_half(self):
        assert disk_distance(0, 0.5) == pytest.approx(0.5 * math.log(3.0),
                                                      abs=1e-12)

    def test_automorphism_invariance(self):
        # oracle: direct evaluation after z -> (z - 0.2)/(1 - 0.2 z)
        sigma = Mobius(1, -0.2, -0.2, 1)
        a, b = 0.3 + 0j, 0.3j
        d1 = disk_distance(a, b)
        d2 = disk_distance(sigma.evaluate(a), sigma.evaluate(b))
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_symmetry_and_positivity(self, rng):
        for z, w in zip(disk_points(rng, 50, 0.95), disk_points(rng, 50, 0.95)):
            d = disk_distance(z, w)
            assert d >= 0.0
            assert d == pytest.approx(disk_distance(w, z), abs=1e-13)
            assert (d == 0.0) == (z == w)

    def test_triangle_inequality(self, rng):
        pts = disk_points(rng, 3000, 0.95)
        for a, b, c in zip(pts[0::3], pts[1::3], pts[2::3]):
            assert disk_distance(a, c) <= \
                disk_distance(a, b) + disk_distance(b, c) + 1e-12

    def test_moebius_invariance_random(self, rng):
        for _ in range(1000):
            z, w = disk_points(rng, 2, 0.9)
            a = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            th = rng.uniform(-math.pi, math.pi)
            e = complex(math.cos(th), math.sin(th))
            sigma = Mobius(e, -a * e, -a.conjugate(), 1)
            assert disk_distance(sigma.evaluate(z), sigma.evaluate(w)) == \
                pytest.approx(disk_distance(z, w), abs=1e-12)


class TestDomainDensity:
    def test_right_halfplane(self):
        # lambda_H(z) = 1/(2 Re z) on the right half-plane
        iv = domain_density(HalfPlane("right", 0.0), 2.0)
        assert iv.lo == iv.hi == pytest.approx(0.25, abs=1e-14)

    def test_strip_center(self):
        # oracle: pullback through tanh(pi w/4): lambda_D(0) |f'(0)| = pi/4
        fprime0 = math.pi / 4.0
        iv = domain_density(Strip(1.0, 0.0), 0.0)
        assert iv.lo == iv.hi == pytest.approx(fprime0, abs=1e-12)

    def test_example1_bounds(self):
        # geometric oracle: delta = 2 at the origin (strip edges dominate,
        # nearest slit tip -2 +/- i sits at sqrt(5))
        iv = domain_density(example1_domain(10), 0.0)
        assert iv.lo == pytest.approx(1.0 / 8.0, rel=1e-9)
        assert iv.hi == pytest.approx(1.0 / 2.0, rel=1e-9)

    def test_density_distance_sandwich(self, rng):
        domains = [HalfPlane("right", 0.0), HalfPlane("upper", 1.0),
                   Strip(1.0, 0.0), Strip(0.5, 2.0), Disk(0j, 1.0),
                   Disk(1 + 1j, 2.0), HalfStrip(-4.0, 0.5)]
        for dom in domains:
            for w in dom.interior_samples(1000, 3):
                delta = dom.boundary_distance(w)
                lam = domain_density(dom, w)
                assert lam.lo >= 0.25 / delta * (1 - 1e-9)
                assert lam.hi <= 1.0 / delta * (1 + 1e-9)

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            domain_density(HalfPlane("right", 0.0), -1.0)


class TestDomainDistance:
    def test_right_halfplane_geodesic(self):
        # oracle: integral of 1/(2x) from 1 to 3 (the real axis is a geodesic)
        oracle, _ = quad(lambda x: 0.5 / x, 1.0, 3.0)
        iv = domain_distance(HalfPlane("right", 0.0), 1.0, 3.0)
        assert iv.degenerate
        assert iv.lo == pytest.approx(oracle, abs=1e-12)
        assert iv.lo == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 5.0, 50.0, 5000.0])
    def test_strip_translation_invariance(self, t):
        # centerline geodesic oracle: density is pi/4 along Im = 0
        iv = domain_distance(Strip(1.0, 0.0), -t, -t - 1.0)
        assert iv.degenerate
        assert iv.lo == pytest.approx(math.pi / 4.0, abs=1e-9)

    def test_example1_with_sigma8_enclosure(self):
        dom = example1_domain(10)
        sigma8 = HalfStrip(left=-256.0, half_width=1.0 / 8.0)
        iv = domain_distance(dom, 0.0, -8.0, enclosure=sigma8)
        a = math.pi * 8 * 256 / 2.0
        b = math.pi * 8 * 248 / 2.0
        expect_hi = 0.5 * (logsinh(a) - logsinh(b))
        # log-space sinh oracle; asymptotically (a - b)/2 = 16 pi
        assert expect_hi == pytest.approx(16.0 * math.pi, abs=1e-9)
        assert iv.hi == pytest.approx(expect_hi, rel=1e-9)
        assert iv.lo <= iv.hi

    def test_ordering_lower_exact_upper(self, rng):
        # masked strip: interval path must bracket the exact value
        from diskflow.audits import _Masked

        strip = Strip(1.0, 0.0)
        masked = _Masked(strip)
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0)
            y = rng.uniform(-0.7, 0.7)
            t = rng.uniform(0.1, 20.0)
            z, w = complex(x, y), complex(x - t, y)
            iv = domain_distance(masked, z, w)
            exact = strip.hyperbolic_distance(z, w)
            assert iv.lo <= exact * (1 + 1e-9)
            assert exact <= iv.hi * (1 + 1e-9)

    def test_no_enclosure_gives_infinite_upper(self):
        # vertical pair in a masked strip: no auto half-strip applies
        from diskflow.audits import _Masked

        iv = domain_distance(_Masked(Strip(1.0, 0.0)), 0.0, 0.5j)
        assert math.isinf(iv.hi)
        assert iv.lo > 0.0

    def test_same_point(self):
        iv = domain_distance(Strip(1.0, 0.0), 0.2j, 0.2j)
        assert iv.lo == iv.hi == 0.0


class _FixedEnclosure:
    """An enclosure stub whose distance is the given value."""

    def __init__(self, value):
        self.value = value

    def contains(self, w):
        return True

    def hyperbolic_distance(self, z, w):
        return self.value


class TestDeepHalfStrips:
    """ROADMAP 8(c): ``w - left`` absorbed w once ulp(left) exceeded |w|, so
    the half-strip distance collapsed (0.0 at left = -2^64), and
    domain_distance reconciled the collapsed upper bound with its lower
    bound."""

    @pytest.mark.parametrize("n", [8, 32, 52, 64, 200, 500])
    def test_example1_enclosures_keep_their_digits(self, n):
        # on the axis the distance is 0.5 (logsinh(A) - logsinh(B)) with
        # A = (pi n/2) 2^n and B = (pi n/2)(2^n - t): (A - B)/2 = pi n t/4
        # up to e^{-2B}
        t = n + 0.5
        sigma = HalfStrip(left=-2.0 ** n, half_width=1.0 / n)
        got = sigma.hyperbolic_distance(0j, complex(-t, 0.0))
        assert got == pytest.approx(math.pi * n * t / 4.0, rel=1e-12)

    def test_the_collapsed_distance(self):
        sigma = HalfStrip(left=-2.0 ** 64, half_width=1.0 / 64)
        assert sigma.hyperbolic_distance(0j, -64 + 0j) == \
            pytest.approx(1024.0 * math.pi, rel=1e-12)
        iv = domain_distance(example1_domain(40), 0j, -64 + 0j,
                             enclosure=sigma)
        assert iv.lo <= iv.hi
        assert iv.hi == pytest.approx(1024.0 * math.pi, rel=1e-11)

    def test_off_axis_pairs_near_the_left_end(self):
        # left is near: w - left keeps its digits, and the depth form
        # agrees with the form measured from left
        sigma = HalfStrip(left=-100.0, half_width=1.0, center=0.25)
        for z, w in ((-10 + 0.3j, -20 - 0.5j), (5 + 1.2j, -60 - 0.7j),
                     (-70 + 0.9j, -70.5 - 0.74j)):
            ref = uhp_distance_log(
                sin_logpoint(sigma._halfstrip_coord(z)),
                sin_logpoint(sigma._halfstrip_coord(w)))
            assert sigma.hyperbolic_distance(z, w) == pytest.approx(ref, rel=1e-12)
            assert sigma.hyperbolic_distance(w, z) == \
                sigma.hyperbolic_distance(z, w)


class TestBoundsThatCross:
    Z, W = 0j, -4.0 + 0j

    def lower_bound(self, dom):
        # domain_distance's log bound, with r0 = delta = 1 on the axis
        return (0.5 if dom.convex else 0.25) * math.log1p(abs(self.Z - self.W))

    def test_a_collapsed_upper_bound_raises(self):
        dom = _Masked(Strip(1.0, 0.0))
        with pytest.raises(CrossValidationError):
            domain_distance(dom, self.Z, self.W, enclosure=_FixedEnclosure(0.0))

    def test_float_slop_is_reconciled_within_the_stated_ulps(self):
        dom = _Masked(Strip(1.0, 0.0))
        lo = self.lower_bound(dom)
        hi = lo - RECONCILE_ULPS * math.ulp(lo)
        iv = domain_distance(dom, self.Z, self.W, enclosure=_FixedEnclosure(hi))
        assert iv.lo <= hi and lo <= iv.hi
        with pytest.raises(CrossValidationError):
            domain_distance(dom, self.Z, self.W,
                            enclosure=_FixedEnclosure(hi - math.ulp(lo)))

    def test_the_cli_exits_3(self, tmp_path, monkeypatch, capsys):
        # the criterion's own half-strip enclosure collapses
        class Collapsed(HalfStrip):
            def hyperbolic_distance(self, z, w):
                return 0.0

        original = SlitStrip.rightward_half_strip

        def enclosure(dom, z, w, r0):
            sigma = original(dom, z, w, r0)
            return None if sigma is None else Collapsed(
                sigma.left, sigma.half_width, sigma.center)

        monkeypatch.setattr(SlitStrip, "rightward_half_strip", enclosure)
        assert main(["examples", "--id", "1", "--tmax", "8",
                     "--out", str(tmp_path)]) == 3
        assert "lies below its lower bound" in capsys.readouterr().err


class TestInterval:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            Interval(2.0, 1.0)
        assert Interval(1.0, math.inf).hi == math.inf

    def test_widen(self):
        iv = Interval(1.0, 2.0).widen()
        assert iv.lo < 1.0 < 2.0 < iv.hi


class TestUhpLogKernel:
    def test_matches_direct_formula(self, rng):
        for _ in range(300):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            u = abs(z - w) ** 2 / (2.0 * z.imag * w.imag)
            direct = 0.5 * math.acosh(1.0 + u)
            got = uhp_distance_log(UhpLogPoint.from_point(z),
                                   UhpLogPoint.from_point(w))
            assert got == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_sin_logpoint_matches_cmath(self):
        import cmath
        for u in (0.3 + 2j, -1.0 + 10j, 0.0 + 29.5j):
            p = sin_logpoint(u)
            v = cmath.sin(u)
            assert p.logmod == pytest.approx(math.log(abs(v)), rel=1e-12)
            assert p.arg == pytest.approx(cmath.phase(v), abs=1e-12)

    def test_logsinh(self):
        for x in (1e-8, 0.1, 1.0, 30.0, 4000.0):
            if x <= 30:
                assert logsinh(x) == pytest.approx(math.log(math.sinh(x)),
                                                   rel=1e-10)
        assert logsinh(4000.0) == pytest.approx(4000.0 - math.log(2.0),
                                                abs=1e-12)
