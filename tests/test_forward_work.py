"""Forward certificates do their per-orbit work once, with the same bits.

A certificate evaluates h(z) once per orbit and pulls back through the
semigroup's ``phi_from_image`` step; ``lipschitz_quotient`` hands its
sampler each of its distinct times once, in one array.  Each is pinned
against the per-sample route it replaced.  The constant is one expression,
|w'(0)|/delta(h(z)), for both kinds, and it bounds the orbit's speed |G|
on off-centre disks, a strip and the non-elliptic builtins; a conjugate,
whose source is not the unit disk, gets no certificate.
"""

import cmath
import math

import numpy as np
import pytest

from diskflow import analysis, catalog
from diskflow.analysis import Quotient, forward_certificate, lipschitz_quotient
from diskflow.confmap import Affine, MapExpr, Mobius
from diskflow.domains import Disk, Strip, unit_disk
from diskflow.errors import EvaluationError, ParameterError
from diskflow.semigroup import Semigroup

from conftest import disk_points, each_time, scalar_orbit


def _reference_quotient(sampler, t0, t1):
    """lipschitz_quotient as it was before each time was sampled once: a
    memoising ``get`` closure called pair by pair."""
    if not t1 > t0:
        raise ParameterError("need a nondegenerate interval")
    span = t1 - t0
    fine_step = 1e-7
    offs = np.geomspace(max(span * 1e-9, 1e-9), span, 60)
    raw = {t0, t1}
    raw.update(float(t0 + o) for o in offs)
    raw.update(float(t1 - o) for o in offs)
    ts = []
    for t in sorted(raw):
        if ts and t - ts[-1] < 0.5 * fine_step * max(1.0, abs(t)):
            continue
        ts.append(t)
    sup = 0.0
    pairs = 0
    skipped = 0
    vals = {}

    def get(t):
        nonlocal skipped
        if t not in vals:
            v = sampler(t)
            if v is not None and not (math.isfinite(v.real) and math.isfinite(v.imag)):
                v = None
            if v is None:
                skipped += 1
            vals[t] = v
        return vals[t]

    for a, b in zip(ts, ts[1:]):
        va, vb = get(a), get(b)
        if va is not None and vb is not None and b > a:
            sup = max(sup, abs(vb - va) / (b - a))
            pairs += 1
    for t in ts:
        h = fine_step * max(1.0, abs(t))
        a, b = (t, t + h) if t + h <= t1 else (t - h, t)
        if a < t0:
            continue
        va, vb = get(a), get(b)
        if va is not None and vb is not None:
            sup = max(sup, abs(vb - va) / h)
            pairs += 1
    return Quotient(sup, pairs, skipped)


def _recorded(sampler):
    calls = []

    def sample(t):
        calls.append(t)
        return sampler(t)
    return sample, calls


def _orbit(sg, z):
    """The array sampler of a certificate's orbit: one array pullback."""
    w0 = sg.koenigs_image(z)
    return lambda ts: sg.phi_from_image(ts, w0)


def _conjugated(builtins):
    f = MapExpr((Mobius(1, 0, -1, 1),), source=unit_disk())
    return builtins["strip"].conjugate(f)


def _same_bits(a, b):
    return repr(a) == repr(b)


class TestQuotientSamplesEachTimeOnce:
    ANALYTIC = {
        "halfplane": (lambda t: complex(t / (2.0 + t)), 0.0, 100.0),
        "constant": (lambda t: 1j, 0.0, 10.0),
        "decay": (lambda t: complex(0.5 * math.exp(-t)), 0.0, 10.0),
        "overflow": (lambda t: None if t > 5.0 else complex(t), 0.0, 10.0),
        "nonfinite": (lambda t: complex(math.inf, 0.0) if t > 7.0
                      else complex(t * t), 0.0, 10.0),
        "negative_start": (lambda t: complex(math.tanh(t)), -3.0, 10.0),
        # one pair; at 1e-9 no pair is left, which raises ParameterError
        "below_fine_step": (lambda t: None, 0.0, 5e-8),
    }

    @pytest.mark.parametrize("case", sorted(ANALYTIC))
    def test_analytic_cases_match_the_reference(self, case):
        fn, t0, t1 = self.ANALYTIC[case]
        new, new_calls = _recorded(fn)
        old, old_calls = _recorded(fn)
        assert lipschitz_quotient(each_time(new), t0, t1) == \
            _reference_quotient(old, t0, t1)
        assert new_calls == old_calls
        assert len(set(new_calls)) == len(new_calls)

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_seeded_certificates_match_the_reference(self, name, builtins):
        sg = builtins[name]
        rng = np.random.default_rng([11, len(name)])
        for z in disk_points(rng, 3, 0.9) + [catalog.builtin_start(name)]:
            q = lipschitz_quotient(_orbit(sg, z), 0.0, 100.0)
            assert q == _reference_quotient(scalar_orbit(sg, z), 0.0, 100.0)
            assert q.pairs > 0

    def test_conjugated_overflow_skips_match_the_reference(self, builtins):
        conj = _conjugated(builtins)
        q = lipschitz_quotient(_orbit(conj, 0j), 0.0, 1000.0)
        assert q.skipped > 0
        assert q == _reference_quotient(scalar_orbit(conj, 0j), 0.0, 1000.0)


class TestSamplerMatchesPhi:
    @staticmethod
    def _assert_phi_bits(sg, z, times):
        """The array step at ``times`` has phi's bits, NaN where phi raises
        EvaluationError; returns the number of NaN entries."""
        nans = 0
        got = _orbit(sg, z)(np.array(times))
        for t, g in zip(times, got.tolist()):
            try:
                expected = sg.phi(t, z)
            except EvaluationError:
                assert cmath.isnan(g), (z, t)
                nans += 1
            else:
                assert _same_bits(g, expected), (z, t)
        return nans

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_builtins_bit_for_bit(self, name, builtins):
        sg = builtins[name]
        times = analysis._pair_plan(0.0, 100.0).times.tolist()
        rng = np.random.default_rng([29, len(name)])
        for z in disk_points(rng, 3, 0.9):
            self._assert_phi_bits(sg, z, times)

    def test_conjugated_bit_for_bit(self, builtins):
        conj = _conjugated(builtins)
        rng = np.random.default_rng(31)
        zetas = [0j] + [complex(x, y) for x, y in
                        zip(rng.uniform(-0.4, 0.4, 3), rng.uniform(-0.4, 0.4, 3))]
        times = analysis._pair_plan(0.0, 1000.0).times.tolist()
        nans = sum(self._assert_phi_bits(conj, zeta, times) for zeta in zetas)
        assert nans > 0  # the pullback overflows past t ~ 700

    def test_negative_time_is_a_parameter_error(self, builtins):
        sample = _orbit(builtins["halfplane"], 0j)
        with pytest.raises(ParameterError):
            sample(np.array([0.0, -1.0]))
        with pytest.raises(ParameterError):
            builtins["halfplane"].phi_from_image(-1.0, 1.0 + 0j)

    def test_overflowing_image_is_a_typed_error(self, monkeypatch, builtins):
        sg = builtins["strip"]

        def overflow(self, z, check=True):
            raise EvaluationError("overflow", overflow=True)

        monkeypatch.setattr(MapExpr, "evaluate", overflow)
        with pytest.raises(EvaluationError):
            forward_certificate(sg, 0j)
        with pytest.raises(EvaluationError):
            sg.phi(1.0, 0j)


def _off_centre(c, r, mu):
    """The elliptic semigroup on Disk(c, r) with h = Affine(r, c) after
    the disk automorphism Mobius(1, a, conj(a), 1), a = -c/r, so h(0) = 0;
    exp(-mu t) keeps the disk inside itself when |c| <= r cos(arg mu)."""
    assert abs(c) <= r * math.cos(cmath.phase(mu))
    a = -c / r
    h = MapExpr((Mobius(1, a, a.conjugate(), 1), Affine(r, c)),
                source=unit_disk())
    return Semigroup("elliptic", h, Disk(c, r), mu=mu)


def _sup_speed(sg, z):
    """sup |G| along the forward orbit of z on a dense grid of [0, 100]."""
    w0 = sg.koenigs_image(z)
    ts = np.concatenate([np.geomspace(1e-9, 1.0, 200),
                         np.linspace(0.0, 100.0, 4001)])
    return max(abs(sg.generator_at_w(sg.ray_w(w0, float(t)))) for t in ts)


class TestCertificateConstant:
    """The constant |w'(0)|/delta(h(z)) bounds the orbit's speed |G| on
    every kind, off the centred disk too."""

    ELLIPTIC_CASES = {
        "disk_real_mu": (lambda: _off_centre(0.9 + 0j, 1.0, 1.0 + 0j), 0.9 + 0j),
        "disk_winding_mu": (lambda: _off_centre(0.5 + 0j, 1.0, 1.0 + 0.5j),
                            0.6 - 0.2j),
        "disk_complex_centre": (lambda: _off_centre(0.3 + 0.4j, 2.0, 1.0 - 0.5j),
                                0.5 + 0.5j),
        "strip_real_mu": (lambda: Semigroup(
            "elliptic", Strip(1.0).exact_map.inverted(), Strip(1.0), mu=1.0),
            0.5 + 0.3j),
    }

    @staticmethod
    def _assert_bounds_the_speed(sg, z):
        cert = forward_certificate(sg, z)
        assert cert.constant >= _sup_speed(sg, z)
        assert cert.passed

    @pytest.mark.parametrize("case", sorted(ELLIPTIC_CASES))
    def test_elliptic_off_the_centred_disk(self, case):
        build, z = self.ELLIPTIC_CASES[case]
        self._assert_bounds_the_speed(build(), z)

    @pytest.mark.parametrize("name", catalog.NONELLIPTIC_BUILTINS)
    def test_nonelliptic_builtins(self, name, builtins):
        self._assert_bounds_the_speed(builtins[name], catalog.builtin_start(name))

    def test_the_constant_is_the_gap_at_the_start(self):
        # w0 = h(0.9) = 0.9 lies a distance 1 inside Disk(0.9, 1), and mu = 1
        cert = forward_certificate(_off_centre(0.9 + 0j, 1.0, 1.0 + 0j), 0.9 + 0j)
        assert cert.constant == 0.9

    def test_a_conjugate_is_a_parameter_error(self, builtins):
        # the bound reads the unit disk's geometry; the conjugate's
        # quotient grows past 1e68 on [0, 100]
        with pytest.raises(ParameterError, match="unit disk as source"):
            forward_certificate(_conjugated(builtins), 0j)


class TestCertificateWork:
    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_one_koenigs_evaluation_per_certificate(self, name, builtins,
                                                    monkeypatch):
        sg = builtins[name]
        z = catalog.builtin_start(name)
        calls = []
        evaluate = MapExpr.evaluate

        def counted(self, *args, **kwargs):
            calls.append(self)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(MapExpr, "evaluate", counted)
        cert = forward_certificate(sg, z)
        assert cert.passed
        assert len(calls) == 1 and calls[0] is sg.koenigs
