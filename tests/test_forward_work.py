"""Forward certificates do their per-orbit work once, with the same bits.

The orbit sampler evaluates h(z) once per orbit and pulls back through each
semigroup's ``phi_from_image`` step; ``lipschitz_quotient`` samples each of
its distinct times once; on an origin-centred disk the elliptic gap comes
from ``Domain.spiral_gap`` rather than a polyline.  Each is pinned against
the per-sample route it replaced.
"""

import math

import numpy as np
import pytest

from diskflow import analysis, catalog
from diskflow.analysis import (Quotient, forward_certificate,
                               lipschitz_quotient, orbit_point_sampler)
from diskflow.confmap import MapExpr, Mobius
from diskflow.domains import Disk, SpiralSector, unit_disk
from diskflow.errors import EvaluationError, ParameterError

from conftest import disk_points


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


def _quotient_times(t0, t1):
    sample, calls = _recorded(lambda t: complex(t))
    lipschitz_quotient(sample, t0, t1)
    return calls


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
        "below_fine_step": (lambda t: None, 0.0, 1e-9),
    }

    @pytest.mark.parametrize("case", sorted(ANALYTIC))
    def test_analytic_cases_match_the_reference(self, case):
        fn, t0, t1 = self.ANALYTIC[case]
        new, new_calls = _recorded(fn)
        old, old_calls = _recorded(fn)
        assert lipschitz_quotient(new, t0, t1) == _reference_quotient(old, t0, t1)
        assert new_calls == old_calls
        assert len(set(new_calls)) == len(new_calls)

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_seeded_certificates_match_the_reference(self, name, builtins):
        sg = builtins[name]
        rng = np.random.default_rng([11, len(name)])
        for z in disk_points(rng, 3, 0.9) + [catalog.builtin_start(name)]:
            sampler = orbit_point_sampler(sg, z)
            q = lipschitz_quotient(sampler, 0.0, 100.0)
            assert q == _reference_quotient(sampler, 0.0, 100.0)
            assert q.pairs > 0

    def test_conjugated_overflow_skips_match_the_reference(self, builtins):
        sampler = orbit_point_sampler(_conjugated(builtins), 0j)
        q = lipschitz_quotient(sampler, 0.0, 1000.0)
        assert q.skipped > 0
        assert q == _reference_quotient(sampler, 0.0, 1000.0)


class TestSamplerMatchesPhi:
    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_builtins_bit_for_bit(self, name, builtins):
        sg = builtins[name]
        times = _quotient_times(0.0, 100.0)
        rng = np.random.default_rng([29, len(name)])
        for z in disk_points(rng, 3, 0.9):
            sample = orbit_point_sampler(sg, z)
            for t in times:
                try:
                    expected = sg.phi(t, z)
                except EvaluationError:
                    expected = None
                assert _same_bits(sample(t), expected), (z, t)

    def test_conjugated_bit_for_bit(self, builtins):
        conj = _conjugated(builtins)
        rng = np.random.default_rng(31)
        zetas = [0j] + [complex(x, y) for x, y in
                        zip(rng.uniform(-0.4, 0.4, 3), rng.uniform(-0.4, 0.4, 3))]
        nones = 0
        for zeta in zetas:
            sample = orbit_point_sampler(conj, zeta)
            for t in _quotient_times(0.0, 1000.0):
                try:
                    expected = conj.phi(t, zeta)
                except EvaluationError:
                    expected = None
                got = sample(t)
                nones += got is None
                assert _same_bits(got, expected), (zeta, t)
        assert nones > 0  # the pullback overflows past t ~ 700

    def test_negative_time_is_a_parameter_error(self, builtins):
        sample = orbit_point_sampler(builtins["halfplane"], 0j)
        with pytest.raises(ParameterError):
            sample(-1.0)
        with pytest.raises(ParameterError):
            builtins["halfplane"].phi_from_image(-1.0, 1.0 + 0j, 0j)

    def test_overflowing_image_samples_none(self, monkeypatch, builtins):
        sg = builtins["strip"]

        def overflow(self, z, check=True):
            raise EvaluationError("overflow", overflow=True)

        monkeypatch.setattr(MapExpr, "evaluate", overflow)
        sample = orbit_point_sampler(sg, 0j)
        assert sample(0.0) is None and sample(5.0) is None
        with pytest.raises(ParameterError):
            sample(-1.0)
        with pytest.raises(EvaluationError):
            sg.phi(1.0, 0j)


class TestSpiralGapHook:
    @staticmethod
    def _starts(r, seed):
        rng = np.random.default_rng(seed)
        mods = np.concatenate([r * 10.0 ** rng.uniform(-13, -1, 20),
                               r * (1.0 - 10.0 ** rng.uniform(-15, -1, 20))])
        ths = rng.uniform(-math.pi, math.pi, mods.size)
        return [complex(m * math.cos(th), m * math.sin(th))
                for m, th in zip(mods, ths)]

    @pytest.mark.parametrize("r", [1.0, 0.25, 3.0])
    @pytest.mark.parametrize("mu", [1.0 + 0j, 1.0 + 1.0j, 0.3 - 2.0j])
    def test_centred_disk_equals_the_polyline(self, r, mu):
        disk = Disk(0j, r)
        for w0 in self._starts(r, [41, int(10 * r)]):
            assert _same_bits(disk.spiral_gap(w0, mu),
                              analysis._spiral_image_gap(disk, w0, mu)), w0

    def test_none_off_centre_and_on_other_kinds(self):
        assert Disk(0.1 + 0j, 1.0).spiral_gap(0.2 + 0j, 1.0 + 0j) is None
        sector = SpiralSector(mu=1.0 + 0.5j, half_angle=1.0)
        assert sector.spiral_gap(0.5 + 0j, 1.0 + 0j) is None


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

        def polyline(*args):
            raise AssertionError("the centred disk has a closed-form gap")

        monkeypatch.setattr(MapExpr, "evaluate", counted)
        if name in ("dilation", "spiral"):
            monkeypatch.setattr(analysis, "_spiral_image_gap", polyline)
        cert = forward_certificate(sg, z)
        assert cert.passed
        assert len(calls) == 1 and calls[0] is sg.koenigs
