import cmath
import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from diskflow import (DomainError, ParameterError, example1_domain, example2_domain, example3_domain,
                      exp_channel_domain, is_convex_positive_direction,
                      is_spirallike, unit_disk)
from diskflow.domains import (Channel, Disk, HalfPlane, HalfStrip,
                              SpiralSector, Strip, _flow_keeps_samples,
                              domain_from_dict)
from diskflow import hypgeo
from diskflow.confmap import Affine, MapExpr, Mobius
from diskflow.hypgeo import disk_density, disk_distance, logsinh
from diskflow.semigroup import NONELLIPTIC, Semigroup

E = math.e


class TestExample1:
    def test_between_slits(self):
        dom = example1_domain(10)
        assert dom.contains(-6.0)  # between the +-1/2 slits

    def test_on_slit_two(self):
        # slit n=2 occupies Re <= -4 at height 1/2
        dom = example1_domain(10)
        assert not dom.contains(complex(-6.0, 0.5))
        assert dom.contains(complex(-3.9, 0.5))  # right of its start

    def test_strip_edge(self):
        assert not example1_domain(3).contains(3j)

    def test_deep_point_heights(self):
        # slit n=10 (height 0.1) occupies Re <= -1024
        dom = example1_domain(10)
        assert not dom.contains(complex(-2000.0, 0.1))
        assert dom.contains(complex(-1000.0, 0.1))

    def test_right_of_all_slits(self):
        for n in (1, 5, 40):
            assert example1_domain(n).contains(1.0)

    def test_distance_at_origin_exact(self):
        # strip edges dominate; nearest slit tip -2 +- i is at sqrt(5)
        assert example1_domain(10).boundary_distance(0.0) == 2.0

    def test_distance_under_slit(self):
        # slit n=2 overhead at height 1/2
        assert example1_domain(10).boundary_distance(-6.0) == \
            pytest.approx(0.5, abs=1e-15)

    def test_n1_structure(self):
        dom = example1_domain(1)
        assert dom.slits == ((-2.0, 1.0), (-2.0, -1.0))
        assert dom.half_width == 2.0

    def test_truncation_bounds(self):
        with pytest.raises(ParameterError):
            example1_domain(0)
        with pytest.raises(ParameterError):
            example1_domain(61)
        assert example1_domain(60).n_truncation == 60

    @pytest.mark.parametrize("t", [4.0, 8.0, 16.0])
    def test_sigma_containment(self, t):
        # the Example-1 proof's containment Sigma_t subset Omega
        dom = example1_domain(40)
        n = math.floor(t)
        rng = np.random.default_rng(99)
        xs = rng.uniform(-float(2 ** n), float(2 ** n), size=10_000)
        ys = rng.uniform(-1.0 / n, 1.0 / n, size=10_000)
        assert all(dom.contains(complex(x, y)) for x, y in zip(xs, ys))

    def test_delta_along_ray_vs_claimed_bound(self):
        # geometric oracle: delta(-t) ~ 1/floor(log2 t), not 1/floor(t)
        dom = example1_domain(40)
        d = dom.boundary_distance(-100.0)
        assert d == pytest.approx(1.0 / 6.0, abs=1e-12)  # slit n=6 overhead
        assert d > 1.0 / math.floor(100.0)  # the claimed 1/floor(t) bound


class TestExampleChannels:
    def test_example2_profile_membership(self):
        dom = example2_domain()
        assert dom.contains(complex(-E ** 2, 0.4))  # 1/log(e^2) = 0.5 > 0.4
        assert not dom.contains(complex(-E ** 2, 0.6))
        assert dom.contains(0.0)

    def test_example2_distance_asymptote(self):
        dom = example2_domain()
        d = dom.boundary_distance(-E ** 4)
        assert d == pytest.approx(0.25, rel=2e-2)  # ~ 1/log(e^4)
        assert d <= 0.25

    def test_example3_lower_edge(self):
        dom = example3_domain()
        assert dom.contains(complex(-E ** 4, -0.9))  # lower edge ~ -1.25
        assert not dom.contains(complex(-E ** 4, -1.3))

    def test_example3_contains_strip_S(self):
        dom = example3_domain()
        rng = np.random.default_rng(7)
        xs = rng.uniform(-60.0, 3.0, size=2000)
        ys = rng.uniform(-1.0, 0.0, size=2000)
        assert all(dom.contains(complex(x, y)) for x, y in zip(xs, ys))

    def test_exp_channel(self):
        dom = exp_channel_domain()
        assert dom.contains(complex(-3.0, 0.01))
        assert not dom.contains(complex(-3.0, 0.1))
        d = dom.boundary_distance(-10.0)
        assert d == pytest.approx(math.exp(-10.0), rel=1e-3)

    def test_exp_channel_past_the_exp_cap(self):
        # w sits level with the edge point above x = 700, beside the wall
        # the edge forms there; the old bound e^700 - |Im w| read 0 and put
        # the distance at the edge point above w, 1.5e306 away
        dom = exp_channel_domain()
        d = dom.boundary_distance(complex(705.0, math.exp(700.0)))
        assert d == pytest.approx(5.0, rel=1e-9)

    def test_log_cos_channel(self):
        dom = Channel(profile="log_cos")
        assert dom.contains(math.log(2.0))
        assert not dom.contains(-1.0)  # inside the removed tongue
        assert not dom.contains(2j)
        d = dom.boundary_distance(math.log(2.0))
        assert d == pytest.approx(math.log(2.0), rel=1e-6)


class TestCanonical:
    def test_sigma8_halfstrip_distance(self):
        sigma8 = HalfStrip(left=-256.0, half_width=1.0 / 8.0)
        got = sigma8.hyperbolic_distance(0.0, -8.0)
        a = math.pi * 8 * 256 / 2.0
        b = math.pi * 8 * 248 / 2.0
        assert got == pytest.approx(0.5 * (logsinh(a) - logsinh(b)), rel=1e-12)
        assert got == pytest.approx(16.0 * math.pi, abs=1e-6)

    def test_halfstrip_map_is_sin_based(self, rng):
        # pullback oracle at a moderate point: k equals the disk distance of
        # the mapped points
        from diskflow.hypgeo import disk_distance

        dom = HalfStrip(left=-2.0, half_width=1.0)
        f = dom.exact_map
        z, w = complex(-1.0, 0.3), complex(0.5, -0.2)
        assert dom.hyperbolic_distance(z, w) == pytest.approx(
            disk_distance(f.evaluate(z), f.evaluate(w)), rel=1e-9)

    def test_halfstrip_far_out_coordinate(self):
        # i pi (w - left) overflowed before the division by 2r, and the
        # half-strip enclosures of a far-out channel start read a NaN
        # argument; a similar half-strip 2^20 times smaller measures it
        big = HalfStrip(left=3.75e307, half_width=3.74625e307, center=0.5)
        s = 2.0 ** -20
        small = HalfStrip(left=3.75e307 * s, half_width=3.74625e307 * s,
                          center=0.5 * s)
        z, w = complex(1.5e308, 0.5), complex(7.5e307, 0.5)
        assert big.hyperbolic_distance(z, w) == pytest.approx(
            small.hyperbolic_distance(z * s, w * s), rel=1e-12)
        assert big.hyperbolic_density(z) == pytest.approx(
            small.hyperbolic_density(z * s) * s, rel=1e-12)

    def test_strip_density_quarter_pi(self):
        assert Strip(half_width=1.0).hyperbolic_density(
            0.0) == pytest.approx(math.pi / 4.0, abs=1e-15)

    def test_disk_identity_map(self):
        d = Disk(center=0j, radius=1.0)
        assert d.exact_map.evaluate(0.3 + 0.1j) == 0.3 + 0.1j

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            domain_from_dict({"kind": "annulus"})


class TestClassification:
    def test_example1_convex_positive(self):
        assert is_convex_positive_direction(example1_domain(10))

    def test_strip_convex_positive(self):
        assert is_convex_positive_direction(Strip(1.0, 0.0))

    def test_disk_not_convex_positive(self):
        assert not is_convex_positive_direction(Disk(0j, 1.0))

    def test_disk_spirallike(self):
        assert is_spirallike(Disk(0j, 1.0), 1.0)
        # |exp(-(1+i)t) w| = e^{-t} |w| < 1
        assert is_spirallike(Disk(0j, 1.0), 1.0 + 1.0j)

    def test_strip_spirallike_rotation_exits(self):
        # explicit counterexample oracle: w = 4 real, t = 1:
        # Im(exp(-(1+i)) * 4) = -4 e^{-1} sin 1 ~ -1.24 leaves {|Im| < 1}
        w = 4.0
        out = cmath.exp(-(1.0 + 1.0j)) * w
        assert abs(out.imag) > 1.0
        assert not is_spirallike(Strip(1.0, 0.0), 1.0 + 1.0j)

    def test_strip_spirallike_pure_dilation(self):
        # the centered strip is starlike at 0, so e^{-t} Omega stays inside
        assert is_spirallike(Strip(1.0, 0.0), 1.0)

    def test_spirallike_requires_positive_real_part(self):
        with pytest.raises(ParameterError):
            is_spirallike(Disk(0j, 1.0), 1.0j)

    def test_spiralsector_matching_mu(self):
        s = SpiralSector(mu=1.0 + 0.7j, half_angle=0.4)
        assert is_spirallike(s, 1.0 + 0.7j)


class TestSpiralSector:
    def test_membership_winding(self):
        mu = 1.0 + 1.0j
        dom = SpiralSector(mu=mu, half_angle=0.3)
        rng = np.random.default_rng(4)
        for _ in range(200):
            s = rng.uniform(-2, 2)
            th = rng.uniform(-0.29, 0.29)
            assert dom.contains(cmath.exp(mu * complex(s, th)))
            assert not dom.contains(cmath.exp(mu * complex(s, 0.35)))

    def test_boundary_distance_positive(self):
        dom = SpiralSector(mu=1.0 + 1.0j, half_angle=0.3)
        w = cmath.exp((1.0 + 1.0j) * complex(0.5, 0.0))
        d = dom.boundary_distance(w)
        assert 0 < d < abs(w)

    def test_sector_exact_map(self):
        dom = SpiralSector(mu=1.0, half_angle=math.pi / 4)
        f = dom.exact_map
        for w in dom.interior_samples(100, 3):
            assert abs(f.evaluate(w)) < 1.0

    def test_spiral_horizon(self):
        mu = 1.0 + 1.0j
        dom = SpiralSector(mu=mu, half_angle=0.3)
        assert dom.spiral_horizon(1.0, mu)[0] == "infinite"


class TestSectorTranslation:
    """Does the sector + t stay inside it?  Every real sector of opening
    beta <= pi does; a winding sector does not, though the sampled probe
    (three times up to t = 10) reads True on each."""

    @pytest.mark.parametrize("half_angle", [1.0, 1.5, 2.0, 3.0])
    def test_real_sectors_agree_with_the_probe(self, half_angle):
        dom = SpiralSector(mu=1.0, half_angle=half_angle)
        assert is_convex_positive_direction(dom) is True
        assert _flow_keeps_samples(dom, NONELLIPTIC, None, 11) is True

    def test_validate_reads_the_invariance(self):
        dom = SpiralSector(mu=1.0, half_angle=2.0)
        checks = Semigroup(NONELLIPTIC, dom.exact_map.inverted(), dom).validate()
        assert all(ok for ok, _ in checks.values()), checks
        assert checks["omega_convex_positive"] == (True, 0.0)

    def test_a_winding_sector_leaves_far_out(self):
        # w = 1 leaves at t ~ 1.39e6, where 0.1 log(1 + t) passes 1.414
        dom = SpiralSector(mu=1.0 + 0.1j, half_angle=1.4)
        assert dom.contains(1.0 + 0j) and not dom.contains(1.0 + 1e7)
        assert _flow_keeps_samples(dom, NONELLIPTIC, None, 11) is True
        assert is_convex_positive_direction(dom) is False

    @pytest.mark.parametrize("mu,half_angle", [(1.0 + 1.0j, 3.0), (1.5, 3.0)],
                             ids=["winding", "real_past_pi"])
    def test_a_sector_covering_the_punctured_plane_leaves_at_0(self, mu,
                                                               half_angle):
        # -1 + 1 = 0, the one point of C the sector leaves out
        dom = SpiralSector(mu=mu, half_angle=half_angle)
        assert dom.contains(-1.0 + 0j) and not dom.contains(0j)
        assert _flow_keeps_samples(dom, NONELLIPTIC, None, 11) is True
        assert is_convex_positive_direction(dom) is False


class TestDomainContracts:
    KINDS = [
        HalfPlane("right", 0.0), HalfPlane("upper", -1.0), Strip(1.0, 0.0),
        HalfStrip(-2.0, 0.5), Disk(0.5j, 2.0), example1_domain(6),
        example2_domain(), example3_domain(), exp_channel_domain(),
        Channel(profile="log_cos"), SpiralSector(mu=1.0, half_angle=1.0),
    ]

    @pytest.mark.parametrize("dom", KINDS, ids=lambda d: d.kind + getattr(d, "profile", ""))
    def test_contains_distance_consistency(self, dom, rng):
        for w in dom.interior_samples(200, 11):
            assert dom.contains(w)
            assert dom.boundary_distance(w) > 0.0

    @pytest.mark.parametrize("dom", KINDS[:6], ids=lambda d: d.kind)
    def test_inner_disk_contained(self, dom, rng):
        for w in dom.interior_samples(100, 13):
            r = 0.99 * dom.boundary_distance(w)
            for _ in range(10):
                rr = math.sqrt(rng.uniform(0, 1)) * r
                th = rng.uniform(-math.pi, math.pi)
                assert dom.contains(w + rr * cmath.exp(1j * th))

    def test_strict_flag(self):
        dom = Strip(1.0, 0.0)
        with pytest.raises(DomainError):
            dom.boundary_distance(5j)
        assert dom.boundary_distance(5j, strict=False) == 0.0

    def test_delta_monotone_rightward(self):
        # the section-2.5 monotonicity, sampled
        for dom in (example1_domain(10), example2_domain(),
                    Channel(profile="log_cos")):
            for w in dom.interior_samples(50, 19):
                d = dom.boundary_distance(w)
                for t in (0.1, 1.0, 10.0):
                    assert dom.boundary_distance(w + t) >= d - 1e-9


def _channel_with_map():
    from diskflow import catalog
    return catalog.channel_semigroup().omega


class TestCriterionKernel:
    KINDS = [HalfPlane("right", 0.0), HalfPlane("upper", -1.0),
             Strip(1.0, 0.0), HalfStrip(-3.0, 0.5), Disk(0j, 1.0),
             Disk(1 + 1j, 2.0), _channel_with_map()]

    @pytest.mark.parametrize("dom", KINDS,
                             ids=lambda d: d.kind + getattr(d, "profile", ""))
    def test_matches_definition_at_moderate_points(self, dom, rng):
        # kernel(w0, w) must equal lambda(w) exp(-2 k(w0, w)) wherever the
        # naive combination is itself well-conditioned
        from diskflow import domain_density, domain_distance

        pts = dom.interior_samples(60, 31)
        checked = 0
        for w0, w in zip(pts[0::2], pts[1::2]):
            kernel = dom.criterion_kernel(w0, w)
            if kernel is None:
                continue
            lam = domain_density(dom, w)
            k = domain_distance(dom, w0, w)
            if not (lam.degenerate and k.degenerate):
                continue
            naive = lam.lo * math.exp(-2.0 * k.lo)
            assert kernel == pytest.approx(naive, rel=1e-9)
            checked += 1
        assert checked > 20

    def test_coincident_points_give_density(self):
        dom = Disk(0j, 1.0)
        assert dom.criterion_kernel(0.5, 0.5) == pytest.approx(4.0 / 3.0,
                                                               rel=1e-12)

    def test_mapless_domain_returns_none(self):
        assert example1_domain(5).criterion_kernel(0.0, -1.0) is None


class TestSerialization:
    DOMS = [
        HalfPlane("upper", 0.5), Strip(2.0, -1.0), HalfStrip(-3.0, 0.25, 0.5),
        Disk(1 - 1j, 3.0), example1_domain(5), example2_domain(),
        example3_domain(), exp_channel_domain(), Channel(profile="log_cos"),
        SpiralSector(mu=2.0 - 1.0j, half_angle=0.7),
    ]

    @pytest.mark.parametrize("dom", DOMS, ids=lambda d: d.kind if getattr(
        d, "profile", "inv_log") == "inv_log" else f"{d.kind}-{d.profile}")
    def test_roundtrip(self, dom):
        clone = domain_from_dict(dom.to_dict())
        assert clone == dom
        for w in dom.interior_samples(50, 23):
            assert clone.contains(w)
            assert clone.boundary_distance(w) == pytest.approx(
                dom.boundary_distance(w), rel=1e-12)

    @pytest.mark.parametrize("profile", ["inv_log", "inv_log_below", "exp",
                                         "log_cos"])
    def test_channel_kinds_print_as_channels(self, profile):
        # error messages print the domain as the call that builds it
        dom = Channel(profile=profile)
        assert dom.kind == "channel"
        assert repr(dom).startswith(f"Channel(profile={profile!r}")
        assert dom != Channel(profile="log_cos" if profile != "log_cos" else "exp")

    @pytest.mark.parametrize("spec", [
        {"kind": "channel", "profile": "sinc"},
        {"kind": "channel", "profile": "exp", "profile_params": {"mouth_cap": 3}},
        {"kind": "channel", "profile": "inv_log",
         "profile_params": {"mouth_cap": 1.0}},
    ], ids=["profile", "parameter", "mouth-cap"])
    def test_bad_channel_rejected(self, spec):
        with pytest.raises(ParameterError):
            domain_from_dict(spec)

    def test_slit_list_schema(self):
        d = example1_domain(2).to_dict()
        assert d["slits"][0] == {"x": -2.0, "y": 1.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            domain_from_dict({"kind": "polygon"})


class TestHalfPlaneOrientations:
    """One orientation table: the exact map, the closed forms and the
    samples all read the affine map onto {Re > 0}."""

    @pytest.mark.parametrize("offset", [0.0, 1.5, -2.25])
    @pytest.mark.parametrize("orientation", ["right", "left", "upper", "lower"])
    def test_pullback_matches_closed_forms(self, orientation, offset):
        dom = HalfPlane(orientation, offset)
        f = dom.exact_map
        pts = dom.interior_samples(200, 41)
        for z, w in zip(pts, pts[1:] + pts[:1]):
            a, da = f.jet(z)
            b = f.evaluate(w)
            assert abs(a) < 1.0 and abs(b) < 1.0
            assert disk_density(a) * abs(da) == pytest.approx(
                dom.hyperbolic_density(z), rel=1e-12)
            assert disk_distance(a, b) == pytest.approx(
                dom.hyperbolic_distance(z, w), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("z,w", [(1e154, 1e155),
                                     (1e160, 1e160 + 1e150),
                                     (1e300 + 1e300j, 1e300 - 1e300j),
                                     (1e-170, 2e-170),
                                     (1.2345e-161, 7.7e-161),
                                     (3e-158, 1e-157),
                                     (1e-300, 1e300),
                                     (1.0, 1.0 + 1e-170j)])
    def test_far_out_pairs_keep_their_distance(self, z, w):
        # |a - b|^2 or 2 Re a Re b leaves the normal float range: the first
        # pair raised OverflowError, the second read 0.0; of the pairs near
        # the boundary the first raised ZeroDivisionError, the next two
        # lost digits in subnormal terms, (1e-300, 1e300) read inf and the
        # last read 0.0
        a, b = complex(z), complex(w)
        dre, dim = Fraction(a.real) - Fraction(b.real), \
            Fraction(a.imag) - Fraction(b.imag)
        u = (dre ** 2 + dim ** 2) / (2 * Fraction(a.real) * Fraction(b.real))
        # 0.5 arccosh(1 + u) = asinh(x), x = sqrt(u / 2), as
        # log(x + sqrt(x^2 + 1)) with digits enough to keep a tiny x
        with decimal.localcontext() as ctx:
            ctx.prec = 400
            x = (Decimal(u.numerator) / Decimal(2 * u.denominator)).sqrt()
            want = float((x + (x * x + 1).sqrt()).ln())
        assert HalfPlane("right").hyperbolic_distance(z, w) == \
            pytest.approx(want, rel=1e-12, abs=0.0)

    def test_finite_pairs_keep_their_bits(self):
        dom = HalfPlane("right")
        pts = dom.interior_samples(100, 43)
        for z, w in zip(pts, pts[1:]):
            u = abs(z - w) ** 2 / (2.0 * z.real * w.real)
            assert dom.hyperbolic_distance(z, w) == \
                0.5 * hypgeo._arccosh1p(u)

    def test_lower_offset_maps_into_the_disk(self):
        # the exact map used to shift by -c instead of +c
        w = HalfPlane("lower", 1.0).exact_map.evaluate(0.5j)
        assert abs(w) < 1.0
        assert w == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_upper_halfplane_keeps_its_chain(self):
        # the uhp builtin's domain: same primitives, same bits
        assert repr(HalfPlane("upper", 0.0).exact_map.chain) == repr(
            MapExpr((Affine(-1j, -0.0), Mobius(1, -1, 1, 1))).chain)
