import cmath
import math

import pytest

from diskflow import (CompositionError, EvaluationError, InversionError,
                      MapExpr, ParameterError, catalog, compose, unit_disk)
from diskflow.confmap import Affine, Exp, Log, Mobius, Power, Sin, Tanh
from diskflow.domains import HalfPlane, HalfStrip, Strip

from conftest import disk_points


def cayley():
    return MapExpr((Mobius(1, 1, -1, 1),), source=unit_disk(),
                   target=HalfPlane("right", 0.0))


def registered_maps():
    out = {name: catalog.builtin_semigroup(name).koenigs
           for name in catalog.BUILTIN_NAMES}
    out["halfstrip_exact"] = HalfStrip(-4.0, 0.5).exact_map
    out["strip_exact"] = Strip(1.0, 0.0).exact_map
    out["quadratic"] = quadratic_map()
    return out


def quadratic_map():
    # f(z) = z - z^2/2 = 1/2 - (z-1)^2/2, a univalent chain on the disk
    return MapExpr((Affine(1.0, -1.0), Power(2.0, math.pi),
                    Affine(-0.5, 0.5)), source=unit_disk())


class TestEvaluate:
    def test_cayley_at_zero(self):
        assert cayley().evaluate(0) == 1.0

    def test_strip_map_at_zero(self):
        assert catalog.strip_semigroup().koenigs.evaluate(0) == 0.0

    def test_mobius_at_half(self):
        assert cayley().evaluate(0.5) == pytest.approx(3.0, abs=1e-14)

    def test_source_membership_enforced(self):
        from diskflow import DomainError
        with pytest.raises(DomainError):
            cayley().evaluate(2.0)

    def test_branch_cut_rejected(self):
        logmap = MapExpr((Log(0.0),))
        with pytest.raises(EvaluationError):
            logmap.evaluate(-5.0)
        with pytest.raises(EvaluationError):
            logmap.evaluate(complex(-5.0, 1e-15))
        assert logmap.evaluate(complex(-5.0, 1.0)) == cmath.log(complex(-5, 1))


class TestDerivative:
    def test_cayley_derivative(self):
        assert cayley().derivative(0) == pytest.approx(2.0, abs=1e-14)

    def test_strip_derivative(self):
        # symbolic oracle: (2/pi) d/dz log((1+z)/(1-z)) = (4/pi)/(1-z^2)
        h = catalog.strip_semigroup().koenigs
        assert h.derivative(0) == pytest.approx(4.0 / math.pi, abs=1e-12)

    def test_affine_constant(self):
        m = MapExpr((Affine(2.0, 1.0 + 1.0j),))
        for z in (0, 1.5 - 2j, 77):
            assert m.derivative(z) == 2.0

    @pytest.mark.parametrize("name", sorted(registered_maps()))
    def test_conformality_nonvanishing(self, name, rng):
        m = registered_maps()[name]
        src = m.source
        pts = src.interior_samples(1000, 29) if src is not None \
            else disk_points(rng, 1000, 0.9)
        for z in pts:
            try:
                d = m.derivative(z, check=False)
            except EvaluationError:
                continue
            assert d != 0

    @pytest.mark.parametrize("name", sorted(registered_maps()))
    def test_finite_difference(self, name, rng):
        m = registered_maps()[name]
        src = m.source
        pts = src.interior_samples(1000, 5) if src is not None \
            else disk_points(rng, 1000, 0.9)
        if src is not None and src.kind == "disk":
            pts = [0.9 * z for z in pts]
        checked = 0
        for z in pts:
            eps = 1e-6 * max(1.0, abs(z))
            try:
                fd = (m.evaluate(z + eps, check=False)
                      - m.evaluate(z - eps, check=False)) / (2 * eps)
                an = m.derivative(z, check=False)
            except EvaluationError:
                continue
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(fd))
            checked += 1
        assert checked > 900


class TestInvert:
    def test_cayley_inverse(self):
        # closed-form oracle: h^{-1}(w) = (w-1)/(w+1)
        assert cayley().invert(2.0) == pytest.approx((2 - 1) / (2 + 1),
                                                     abs=1e-14)

    def test_strip_inverse(self):
        h = catalog.strip_semigroup().koenigs
        assert h.invert(1.0) == pytest.approx(math.tanh(math.pi / 4.0),
                                              abs=1e-12)

    def test_identity(self):
        ident = MapExpr.identity()
        for w in (0.3, -2j, 5 + 5j):
            assert ident.invert(w) == w

    @pytest.mark.parametrize("name", sorted(registered_maps()))
    def test_roundtrip(self, name, rng):
        m = registered_maps()[name]
        src = m.source
        pts = src.interior_samples(300, 7) if src is not None \
            else disk_points(rng, 300, 0.9)
        if src is not None and src.kind == "disk":
            pts = [0.9 * z for z in pts]
        checked = 0
        for z in pts:
            try:
                w = m.evaluate(z, check=False)
            except EvaluationError:
                continue
            if abs(w) > 1.0 - 1e-6 and abs(w) <= 1.0:
                # the rounded image no longer encodes z to 1e-10; the
                # roundtrip contract is meaningful away from the circle
                continue
            back = m.invert(w, check=False)
            assert abs(back - z) < 1e-10 * max(1.0, abs(z))
            checked += 1
        assert checked > 200

    def test_quadratic_chain_branch(self):
        f = quadratic_map()
        for z in (0.0, 0.4 + 0.3j, -0.7j, 0.9):
            w = f.evaluate(z)
            assert w == pytest.approx(z - z * z / 2.0, abs=1e-14)
            assert f.invert(w) == pytest.approx(z, abs=1e-10)

    def test_overflow_past_the_horizon_stays_an_overflow(self):
        # the strip map's closed form overflows in exp at w = 500, and the
        # forward map overflows on the way to the true preimage as well
        h = catalog.strip_semigroup().koenigs
        with pytest.raises(EvaluationError) as exc:
            h.invert(500.0)
        assert exc.value.overflow

    @pytest.mark.parametrize("w", [1.5e308 + 1.5e308j, 9e307 + 9e307j,
                                   complex("inf")])
    def test_non_finite_closed_form_is_an_overflow(self, w):
        # the inverse Moebius divides inf by inf; once it returned nan+0j.
        # At w = inf a seeded Newton returned its seed (its tolerance
        # 1e-10 max(1, |w|) is infinite there)
        h = catalog.builtin_semigroup("halfplane").koenigs
        with pytest.raises(EvaluationError) as exc:
            h.invert(w)
        assert exc.value.overflow

    def test_modulus_past_the_float_range_is_an_overflow(self):
        # |w| > DBL_MAX: the roundtrip tolerance raised a raw OverflowError
        # from abs(w)
        with pytest.raises(EvaluationError) as exc:
            MapExpr((Affine(1e308, 0.0),)).invert(1.5e308 + 1.5e308j)
        assert exc.value.overflow

    def test_closed_form_faults_and_rejections_are_inversion_errors(self):
        # the closed form of the quadratic chain at 5.0 meets the cut
        with pytest.raises(InversionError, match="branch cut"):
            quadratic_map().invert(5.0, check=False)
        # 5j lies off the image of the branch (1 - pi, 1 + pi]: its closed
        # form is exp(5j), which Log(1.0) maps to 5j - 2 pi i
        with pytest.raises(InversionError, match=r"residual 6\.283e\+00"):
            MapExpr((Log(1.0),)).invert(5j)

    def test_preimage_modulus_past_the_float_range(self):
        # |z| > DBL_MAX with finite parts: the acceptance tolerance raised
        # a raw OverflowError from abs(z); the closed form is exact here
        z = MapExpr((Affine(1e-300, 0.0),)).invert(1.5e8 + 1.5e8j)
        assert (z.real, z.imag) == pytest.approx((1.5e308, 1.5e308), rel=1e-15)

    def test_inverted_expression(self):
        h = catalog.strip_semigroup().koenigs
        hinv = h.inverted()
        assert hinv.evaluate(1.0, check=False) == pytest.approx(
            math.tanh(math.pi / 4.0), abs=1e-12)
        # derivative of the inverse at 0 is 1/h'(0) = pi/4
        assert hinv.derivative(0.0, check=False) == pytest.approx(
            math.pi / 4.0, abs=1e-12)


class TestCompose:
    def test_cayley_roundtrip_identity(self):
        c = cayley()
        cinv = c.inverted()
        ident = compose(cinv, c)
        for z in disk_points_for_compose():
            assert abs(ident.evaluate(z, check=False) - z) < 1e-10

    def test_affine_fusion_identity(self):
        m = compose(MapExpr((Affine(0.5, 0.0),)), MapExpr((Affine(2.0, 0.0),)))
        assert len(m.chain) == 1
        assert m.chain[0] == Affine(1.0, 0.0)

    def test_exp_log_identity(self):
        m = compose(MapExpr((Log(0.0),)), MapExpr((Exp(),)))
        for z in (0.1, 1.0 + 1.0j, 2.0 - 0.5j):
            assert abs(m.evaluate(z) - z) < 1e-12

    def test_mobius_fusion_avoids_saturation(self):
        # h_D = h o f^{-1} with f = z/(1-z) fuses into (2/pi) log(1 + 2w)
        h = catalog.strip_semigroup().koenigs
        f = MapExpr((Mobius(1, 0, -1, 1),), source=unit_disk())
        h_d = compose(h, f.inverted())
        assert isinstance(h_d.chain[0], (Mobius, Affine))
        assert h_d.evaluate(100.0, check=False) == pytest.approx(
            (2.0 / math.pi) * math.log(201.0), rel=1e-12)
        # and its inverse evaluates (e^{pi v/2} - 1)/2 without saturating
        v = h_d.invert(100.0, check=False)
        assert v == pytest.approx((math.exp(50.0 * math.pi) - 1.0) / 2.0,
                                  rel=1e-12)

    def test_containment_failure(self):
        c = cayley()  # target: right half-plane
        with pytest.raises(CompositionError):
            compose(c, c)  # RHP is not inside the disk

    def test_branch_cut_crossing_rejected(self):
        # the disk straddles the principal log cut once shifted left
        inner = MapExpr((Affine(1.0, -2.0),), source=unit_disk(),
                        target=Strip(4.0, -2.0))
        outer = MapExpr((Log(0.0),), source=Strip(4.0, -2.0))
        with pytest.raises(CompositionError):
            compose(outer, inner)


def disk_points_for_compose():
    import numpy as np
    rng = np.random.default_rng(1)
    return disk_points(rng, 100, 0.9)


class TestInjectivity:
    @pytest.mark.parametrize("name", ["halfplane", "strip", "uhp", "channel"])
    def test_spot_check(self, name, rng):
        m = catalog.builtin_semigroup(name).koenigs
        pts = [0.95 * z for z in disk_points(rng, 1000, 1.0)]
        vals = []
        for z in pts:
            try:
                vals.append((z, m.evaluate(z, check=False)))
            except EvaluationError:
                pass
        vals.sort(key=lambda p: (p[1].real, p[1].imag))
        for (z1, w1), (z2, w2) in zip(vals, vals[1:]):
            if abs(w1 - w2) < 1e-12:
                assert abs(z1 - z2) < 1e-9


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_roundtrip(self, name, rng):
        m = catalog.builtin_semigroup(name).koenigs
        m2 = MapExpr.from_dict(m.to_dict())
        for z in disk_points(rng, 50, 0.8):
            assert abs(m.evaluate(z, check=False)
                       - m2.evaluate(z, check=False)) < 1e-14

    def test_complex_coefficients_as_pairs(self):
        d = cayley().to_dict()
        assert d["chain"][0]["a"] == [1.0, 0.0]

    def test_internal_primitives_not_serializable(self):
        m = HalfStrip(-4.0, 0.5).exact_map.inverted()  # contains Asin
        assert not m.serializable()
        with pytest.raises(ParameterError):
            m.to_dict()

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ParameterError):
            MapExpr.from_dict({"chain": [{"op": "zeta"}]})


class TestPrimitives:
    def test_mobius_degenerate_rejected(self):
        with pytest.raises(ParameterError):
            Mobius(1, 2, 2, 4)

    def test_affine_zero_scale_rejected(self):
        with pytest.raises(ParameterError):
            Affine(0, 1)

    def test_power_inverse_branch(self):
        p = Power(2.0, 0.0)
        inv = p.inverse()
        assert inv.p == 0.5
        for z in (1 + 1j, 2.0, 0.5 - 0.2j):
            assert inv.evaluate(p.evaluate(z)) == pytest.approx(z, abs=1e-12)

    def test_sin_tanh_inverses(self):
        for prim in (Sin(), Tanh()):
            inv = prim.inverse()
            for z in (0.2, 0.3 + 0.4j, -0.1 - 0.2j):
                assert inv.evaluate(prim.evaluate(z)) == pytest.approx(
                    z, abs=1e-12)
