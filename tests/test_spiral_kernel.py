"""The spiral-length kernel against its 60-step predecessor and independent
oracles.

``analysis._spiral_length_in_disk`` plans one disk's window in scalar
code, finds every crossing one winding at a time (``_crossings``), narrows
each to a pair of adjacent floats (``_flip``) and sums the inside pieces.
``_reference_length`` below is the kernel before it, a 30-degree winding
grid bisected 60 times per crossing, kept verbatim apart from the
evaluator: every scalar evaluation there went through NumPy's scalar path.
Its grid misses a winding that enters and leaves a disk within one step,
so where the two disagree by more than rounding a chord sum over the
window decides.  Its circle branch (alpha = 0) samples one turn at 4096
points; the kernel takes the arc length in closed form, which the samples
approximate to within a few grid steps.  ``_reference_audit`` is
``ahlfors_audit`` before it drew all its disks at once."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from diskflow import analysis
from diskflow.analysis import (AhlforsResult, SpiralSpec, ahlfors_audit,
                               _crossings, _spiral_length_in_disk,
                               _spiral_window)
from diskflow.errors import ParameterError


def _numpy_point(spec, t):
    return spec.w0 * np.exp((spec.alpha + 1j * spec.beta) * t)


def _reference_length(spec, c, r):
    a, b = spec.alpha, spec.beta
    speed = spec.speed_factor()
    mod0 = abs(spec.w0)
    if a == 0.0:
        n = 4096
        ts = np.linspace(0.0, 2.0 * math.pi / max(abs(b), 1e-12), n)
        inside = np.abs(_numpy_point(spec, ts) - c) < r
        return float(inside.mean() * 2.0 * math.pi * mod0)
    hi_mod = abs(c) + r
    lo_mod = abs(c) - r
    if a < 0:
        t_enter = 0.0 if mod0 <= hi_mod else math.log(hi_mod / mod0) / a
        t_tail = None
        if lo_mod <= 0:
            rin = r - abs(c)
            t_tail = 0.0 if mod0 <= rin else math.log(rin / mod0) / a
            t_exit = t_tail
        else:
            t_exit = math.log(lo_mod / mod0) / a
    else:
        if lo_mod > mod0:
            t_enter = math.log(lo_mod / mod0) / a
        else:
            t_enter = 0.0
        if hi_mod < mod0:
            return 0.0
        t_exit = math.log(hi_mod / mod0) / a
        t_tail = None
    t_enter = max(0.0, t_enter)
    if t_exit is not None and t_exit < t_enter:
        return 0.0
    total = 0.0
    if t_tail is not None and t_tail >= 0.0:
        total += (speed / abs(a)) * mod0 * math.exp(a * t_tail)
        window_hi = t_tail
    else:
        window_hi = t_exit
    if window_hi is None or window_hi <= t_enter:
        return total
    span = window_hi - t_enter
    dt = min(math.pi / (6.0 * abs(b)) if b != 0 else span, span / 64.0)
    n = min(int(span / dt) + 2, 200000)
    ts = np.linspace(t_enter, window_hi, n)
    d = np.abs(_numpy_point(spec, ts) - c) - r
    sign = d < 0
    cross = []
    for i in range(n - 1):
        if sign[i] != sign[i + 1]:
            lo_t, hi_t = ts[i], ts[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo_t + hi_t)
                if (abs(_numpy_point(spec, mid) - c) - r < 0) == sign[i]:
                    lo_t = mid
                else:
                    hi_t = mid
            cross.append(0.5 * (lo_t + hi_t))
    marks = [t_enter] + cross + [window_hi]
    for i in range(len(marks) - 1):
        t_mid = 0.5 * (marks[i] + marks[i + 1])
        if abs(_numpy_point(spec, t_mid) - c) < r:
            total += (speed / abs(a)) * mod0 * abs(math.exp(a * marks[i])
                                                   - math.exp(a * marks[i + 1]))
    return total


# (w0, alpha, beta): both signs of alpha, the ray beta = 0, the circle
# alpha = 0, slow and fast winding, a base point off the unit circle, and
# |alpha| < 0.25 with |w0| < 0.1, where the audit clamps its reference-time
# range and its radius scale
SPECS = [
    (1.0 + 0j, -1.0, 1.0),
    (1.0 + 0j, 1.0, 1.0),
    (1.0 + 0j, -2.0, -2.0),
    (1.0 + 0j, 0.5, -0.3),
    (1.0 + 0j, -1.0, 0.0),
    (1.0 + 0j, 2.0, 0.0),
    (1.0 + 0j, 0.0, 1.0),
    (1.0 + 0j, -0.26, 1.9),
    (0.3 - 0.7j, 1.7, -0.8),
    (2.5 + 1.0j, -0.4, 0.9),
    (0.05 + 0.02j, -0.1, 1.3),
    (0.03j, 0.2, -0.7),
]


def _disks(spec, rng, n):
    """Centers on and near the trace, log-uniform radii (as ahlfors_audit
    draws them), plus disks that hold the whole tail of a contracting
    spiral (|c| < r, alpha < 0)."""
    mod0 = abs(spec.w0)
    out = []
    for _ in range(n):
        t_ref = rng.uniform(0.0, 6.0 / max(abs(spec.alpha), 0.25))
        r = float(np.exp(rng.uniform(math.log(0.05), math.log(3.0)))
                  * max(mod0, 0.1))
        c = complex(spec.point(t_ref)) + r * rng.uniform(-0.8, 0.8) * \
            cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        out.append((c, r))
    for _ in range(n // 10):
        r = float(rng.uniform(0.05, 2.0))
        c = r * rng.uniform(0.0, 0.95) * cmath.exp(1j * rng.uniform(-3.0, 3.0))
        out.append((c, r))
    return out


def _chord_length(spec, c, r, n=1_000_000):
    """Length inside |w - c| < r of the n-point polyline of the trace over
    the window where |gamma| is in [| |c| - r |, |c| + r], each chord
    counted where its midpoint is inside, plus the whole tail inside
    |w| < r - |c| of an inward spiral."""
    a, mod0, rho = spec.alpha, abs(spec.w0), abs(c)

    def time(mod):
        return max(0.0, math.log(mod / mod0) / a)

    ends = sorted([time(rho + r), time(abs(rho - r))])
    tail = 0.0
    if a < 0 and r > rho:
        tail = spec.speed_factor() / -a * mod0 * math.exp(a * ends[1])
    ts = np.linspace(ends[0], ends[1], n)
    w = spec.w0 * np.exp(complex(spec.alpha, spec.beta) * ts)
    inside = np.abs(0.5 * (w[1:] + w[:-1]) - c) < r
    return tail + float(np.abs(np.diff(w))[inside].sum())


@pytest.mark.parametrize("w0,alpha,beta", SPECS)
def test_agrees_with_the_sixty_step_kernel(w0, alpha, beta):
    spec = SpiralSpec(w0, alpha, beta)
    rng = np.random.default_rng([SPECS.index((w0, alpha, beta)), 5])
    n_disks = 40 if alpha == 0.0 else 200
    disks = _disks(spec, rng, n_disks)
    positive = 0
    for c, r in disks:
        got = _spiral_length_in_disk(spec, c, r)
        want = _reference_length(spec, c, r)
        if alpha == 0.0:
            # two ends of the arc, each off by at most a grid step, and the
            # sample at 2 pi repeating the one at 0
            step = 2.0 * math.pi * abs(w0) / 4095
            assert abs(got - want) <= 3.0 * step, (c, r)
        elif abs(got - want) > 1e-11 * want:
            # a winding the reference's grid stepped over: the chord sum
            # sides with the kernel
            chord = _chord_length(spec, c, r)
            assert abs(got - chord) <= 1e-5 * chord, (c, r)
            assert abs(want - chord) > 1e-3 * chord, (c, r)
        positive += got > 0.0
    assert positive > n_disks // 2


def test_inside_tail_and_exit_cases_hold_bits():
    cases = [
        ((-1.0, 1.0), 0.1 + 0.05j, 0.5),    # whole tail inside from t ~ 1
        ((-0.5, 2.0), 0.2 - 0.1j, 1.5),     # whole tail inside from t = 0
        ((-1.0, 0.0), 0.0 + 0j, 0.3),       # ray into the center
        ((1.0, 1.0), 2.0 + 1.0j, 1.0),      # enters and exits
        ((1.0, -2.0), 0.5 + 0j, 0.8),       # starts inside, exits
        ((2.0, 0.0), 3.0 + 0j, 0.5),        # ray through a disk
    ]
    for (alpha, beta), c, r in cases:
        spec = SpiralSpec(1.0 + 0j, alpha, beta)
        got = _spiral_length_in_disk(spec, c, r)
        assert got > 0.0
        assert repr(got) == repr(_reference_length(spec, c, r)), (spec, c, r)


def test_inward_tail_through_a_disk_edge_at_the_centre_is_typed():
    # r == |c|: the disk's edge passes through the spiral's centre 0, so the
    # tail enters and leaves it without end; the tail start log(rin / |w0|)
    # took log(0) and raised a bare "math domain error"
    spec = SpiralSpec(1.0, -1.0, 1.0)
    for c, r in ((0.5 + 0j, 0.5), (0.3 - 0.4j, 0.5), (-2.0j, 2.0)):
        with pytest.raises(ParameterError, match="passes through the spiral"):
            _spiral_length_in_disk(spec, c, r)
    # either side of the edge, and an outward spiral on it, keep a length
    assert _spiral_length_in_disk(spec, 0.5 + 0j, 0.5000001) > 0.0
    assert _spiral_length_in_disk(spec, 0.5 + 0j, 0.4999999) > 0.0
    assert _spiral_length_in_disk(SpiralSpec(1.0, 1.0, 1.0), 0.5 + 0j,
                                  0.5) == 0.0


def test_inward_ray_through_a_disk_edge_at_the_centre_is_a_chord():
    # a ray crosses a circle at most twice, so an edge through 0 leaves it
    # one chord: the diameter from 0 to 1, and the chord from 0 to 0.6
    # through the edge of |w - (0.3 + 0.4i)| < 0.5
    ray = SpiralSpec(1.0, -1.0, 0.0)
    assert _spiral_length_in_disk(ray, 0.5 + 0j, 0.5) == 1.0
    assert _spiral_length_in_disk(ray, 0.3 + 0.4j, 0.5) == pytest.approx(
        0.6, rel=1e-15)


def _winding_average(spec, c, r):
    """(|mu| / (pi |alpha|)) * integral of acos((rho^2 + |c|^2 - r^2) /
    (2 rho |c|)) over rho in [|c| - r, |c| + r]: the length inside a disk
    that the trace winds through many times, each winding at modulus rho
    spending the fraction acos(...) / pi of its turn inside."""
    m = abs(c)
    half_angle = lambda rho: math.acos(min(1.0, max(
        -1.0, (rho * rho + m * m - r * r) / (2.0 * rho * m))))
    integral, _ = quad(half_angle, m - r, m + r, epsabs=0.0, epsrel=1e-13,
                       limit=200)
    return spec.speed_factor() / (math.pi * abs(spec.alpha)) * integral


def test_a_disk_past_the_winding_cap_is_typed_not_aliased():
    # 220,637 windings through |w - 0.5| < 0.3 pass the cap; the 30-degree
    # grid raised here too, and under its own cap of 2^18 points it read
    # 11.92 in |w - 0.5| < 0.01, which 6,366 windings cross for 100.005
    spec = SpiralSpec(1.0, -0.001, 1000.0)
    with pytest.raises(ParameterError, match="2.21e\\+05 times"):
        _spiral_length_in_disk(spec, 0.5 + 0j, 0.3)
    got = _spiral_length_in_disk(spec, 0.5 + 0j, 0.01)
    assert got == pytest.approx(_winding_average(spec, 0.5 + 0j, 0.01),
                                rel=1e-6)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_a_window_of_a_few_subnormals_is_measured_from_its_ends(beta):
    # a window 1.1e-323 wide: the trace from 1 outward, so the length is
    # r - 1, up to one step of exp(alpha t) between neighbouring subnormal
    # times; the ray takes its closed form, the spiral the crossing search
    spec = SpiralSpec(1.0, 1e308, beta)
    r = 1.0 + 1e-15
    got = _spiral_length_in_disk(spec, 0j, r)
    assert abs(got - (r - 1.0)) <= spec.alpha * 5e-324


_FAST = SpiralSpec(1.0, -0.05, 20.0)


@pytest.mark.parametrize("spec,c,r", [
    # |beta/alpha| = 13 on a small base point: the grid read 0.043832
    (SpiralSpec(0.05 + 0.02j, -0.1, 1.3),
     -0.0025486879793639883 - 0.01393158278429363j, 0.010274799706068123),
    # |beta/alpha| = 400 through disks of radius 0.05 |c| at gamma(5),
    # gamma(2) and gamma(11): each winding crosses within one grid step,
    # and the grid read 0.0 on all three
    *[(_FAST, _FAST.point(t), 0.05 * abs(_FAST.point(t)))
      for t in (5.0, 2.0, 11.0)],
    # a disk that holds the origin: the grid read 1.09838
    (SpiralSpec(2.0 - 1.0j, -0.3, 1.2),
     -0.3242326519412711 - 0.1094665183609962j, 0.4607654898064857),
], ids=["small-base", "gamma-5", "gamma-2", "gamma-11", "holds-origin"])
def test_windings_between_grid_points_are_measured(spec, c, r):
    chord = _chord_length(spec, c, r, 2_000_000)
    assert _spiral_length_in_disk(spec, c, r) == pytest.approx(chord,
                                                               rel=2e-5)


@pytest.mark.parametrize("w0", [1e200, 1e300])
@pytest.mark.parametrize("alpha,beta,rel", [
    (-1.0, 1.0, 1e-15), (-1.0, 0.0, 1e-15),
    # the outward ray's worst disk sits near |w| = 50 with r = 0.128, and
    # its chord (p + h) - (p - h) keeps ulp(50) / 0.256 ~ 3e-14 of it
    (1.0, 0.0, 1e-13)], ids=["spiral", "inward-ray", "outward-ray"])
def test_far_base_point_keeps_the_audit(w0, alpha, beta, rel):
    # the spiral's moduli are formed in units of |c|, and the ray's chord
    # root factor by factor where (r - s)(r + s) overflows: past about
    # 1e154 the product itself read a sup of 2 sqrt 2 for the spiral at
    # 1e200, and inf (outward) or 20 (inward) for the ray
    want = ahlfors_audit(SpiralSpec(1.0, alpha, beta), 200, 3).measured_sup
    got = ahlfors_audit(SpiralSpec(w0, alpha, beta), 200, 3).measured_sup
    assert got == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e170, 1e300])
def test_ray_chord_at_any_scale(scale):
    # the line 0.3 scale off the ray cuts a disk of radius 0.5 scale in a
    # chord of 0.8 scale, inward and outward, where (r - s)(r + s)
    # underflows (below about 1e-162) or overflows (above about 1e154)
    for alpha, c in ((-1.0, 0.5 + 0.3j), (1.0, 3.0 + 0.3j)):
        got = _spiral_length_in_disk(SpiralSpec(scale, alpha, 0.0),
                                     c * scale, 0.5 * scale)
        assert got / scale == pytest.approx(0.8, rel=1e-15)


def test_subnormal_winding_rate_is_one_band():
    # beta = 5e-324: pi / |beta| is infinite, and the window is one band;
    # the lengths are the ones the grid measured
    spec = SpiralSpec(1.0, -1.0, 5e-324)
    for c, r, want in ((0.5 + 0.3j, 0.4, 0.529150262212918),
                       (0.2 - 0.1j, 0.5, 0.6898979485566357),
                       (-0.5 + 0j, 0.6, 0.09999999999999998),
                       (2.0 + 1.0j, 1.5, 0.11803398874989479),
                       (0.9 + 0.05j, 0.2, 0.2936491673103707)):
        assert _spiral_length_in_disk(spec, c, r) == want
    out = SpiralSpec(1.0, 1.0, 5e-324)
    assert _spiral_length_in_disk(out, 1.5 + 0.3j, 0.4) == 0.5291502622129185
    assert _spiral_length_in_disk(out, 3.0 + 1.0j, 1.0) == 0.0


@pytest.mark.parametrize("beta", [1.0, 1e-13, -2.0])
def test_circle_arc_in_closed_form(beta):
    # |w| = 1 against |w +/- 1| < 0.5: the arc where cos(angle) > 7/8; the
    # sampled branch gave 0.0 and 5.05 at beta = 1e-13, 1.0094 and 1.0124
    # at beta = 1
    spec = SpiralSpec(1.0 + 0j, 0.0, beta)
    for c in (-1.0 + 0j, 1.0 + 0j):
        assert _spiral_length_in_disk(spec, c, 0.5) == pytest.approx(
            2.0 * math.acos(0.875), rel=1e-15)
    # wholly inside, wholly outside, and centred disks
    assert _spiral_length_in_disk(spec, 0.1 + 0j, 2.0) == pytest.approx(
        2.0 * math.pi)
    assert _spiral_length_in_disk(spec, 3.0 + 0j, 1.0) == 0.0
    assert _spiral_length_in_disk(spec, 0j, 1.5) == pytest.approx(2.0 * math.pi)
    assert _spiral_length_in_disk(spec, 0j, 0.5) == 0.0


def test_scalar_point_equals_numpy_scalar_path():
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        alpha, beta = rng.uniform(-3.0, 3.0, size=2)
        w0 = complex(*rng.uniform(-2.0, 2.0, size=2))
        t = float(rng.uniform(0.0, 40.0))
        spec = SpiralSpec(w0, float(alpha), float(beta))
        want = repr(complex(_numpy_point(spec, np.float64(t))))
        assert repr(spec.point(t)) == want
        assert repr(spec.point(np.float64(t))) == want
        assert type(spec.point(t)) is complex


def _audit_disks(spec, n, seed):
    """The disks ahlfors_audit(spec, n, seed) measures."""
    u = np.random.default_rng(seed).random((n, 4))
    t_refs = (6.0 / max(abs(spec.alpha), 0.25) * u[:, 0]).tolist()
    lo, hi = math.log(0.05), math.log(3.0)
    radii = (np.exp(lo + (hi - lo) * u[:, 1]) * max(abs(spec.w0), 0.1))
    offsets = -0.8 + 1.6 * u[:, 2]
    turns = -math.pi + 2.0 * math.pi * u[:, 3]
    return [(spec.point(t) + r * o * cmath.exp(1j * tu), r)
            for t, r, o, tu in zip(t_refs, radii.tolist(), offsets.tolist(),
                                   turns.tolist())]


# the audit suite's 25 specs, beta != 0
_AUDIT_SPECS = [(1.0 + 0j, a, b) for a in (-2.0, -1.0, -0.5, 1.0, 2.0)
                for b in (-2.0, -1.0, 0.5, 1.0, 2.0)]


@pytest.mark.parametrize("w0,alpha,beta",
                         [s for s in SPECS if s[1] != 0.0 and s[2] != 0.0]
                         + _AUDIT_SPECS)
def test_crossings_sit_on_adjacent_floats(w0, alpha, beta):
    # every crossing is the midpoint of two adjacent floats whose decisions
    # |gamma(t) - c| < r differ, so it is one of them; and the Illinois
    # start reaches them in a few evaluations each, where halving a band
    # down to them takes about 50
    spec = SpiralSpec(w0, alpha, beta)
    if (w0, alpha, beta) in SPECS:
        disks = _disks(spec, np.random.default_rng([SPECS.index(
            (w0, alpha, beta)), 5]), 200)
    else:
        disks = _audit_disks(spec, 200, 424242 + 17)
    evaluations = []

    def gap(t):
        evaluations.append(t)
        return abs(spec.w0 * cmath.exp(spec.mu * t) - c) - r

    def inside(t):
        return abs(spec.w0 * cmath.exp(spec.mu * t) - c) < r

    found = 0
    for c, r in disks:
        _, window = _spiral_window(spec, c, r)
        if window is None:
            continue
        ts = _crossings(spec, c, r, gap, *window)
        assert ts == sorted(ts)
        assert all(window[0] <= t <= window[1] for t in ts)
        for t in ts:
            assert inside(t) != inside(math.nextafter(t, -math.inf)) or \
                inside(t) != inside(math.nextafter(t, math.inf)), (c, r, t)
        found += len(ts)
    assert found > len(disks) // 2
    assert len(evaluations) < 16 * found


def _reference_audit(spec, n_disks=1000, seed=1234):
    """ahlfors_audit before the batch kernel, verbatim: four
    Generator.uniform draws per disk, one disk at a time."""
    r_lo, r_hi = analysis._AHLFORS_RADII
    trivial = spec.alpha == 0.0 or spec.beta == 0.0
    if spec.alpha == 0.0:
        bound = math.inf
    else:
        bound = 2.0 * spec.speed_factor() / abs(spec.alpha)
    rng = np.random.default_rng(seed)
    sup = 0.0
    worst = None
    mod0 = abs(spec.w0)
    for _ in range(n_disks):
        # centers biased onto and near the trace, radii log-uniform
        t_ref = rng.uniform(0.0, 6.0 / max(abs(spec.alpha), 0.25))
        base = spec.point(t_ref)
        r = float(np.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
                  * max(mod0, 0.1))
        c = complex(base) + r * rng.uniform(-0.8, 0.8) * cmath.exp(
            1j * rng.uniform(-math.pi, math.pi))
        ell = _spiral_length_in_disk(spec, c, r)
        ratio = ell / r
        if ratio > sup:
            sup = ratio
            worst = {"center": [c.real, c.imag], "radius": r, "length": ell}
    passed = sup <= bound * (1.0 + 1e-3)
    return AhlforsResult(sup, bound, passed, trivial, n_disks, worst)


@pytest.mark.parametrize("w0,alpha,beta", SPECS)
def test_audit_equals_the_per_disk_loop(w0, alpha, beta):
    spec = SpiralSpec(w0, alpha, beta)
    for seed in (1, 2, 424259):
        for n_disks in (1, 25, 1000):
            assert repr(ahlfors_audit(spec, n_disks, seed)) == \
                repr(_reference_audit(spec, n_disks, seed)), (seed, n_disks)


def test_one_draw_call_keeps_the_uniform_and_exp_bits():
    # Generator.uniform(lo, hi) is lo + (hi - lo) * next_double, so one
    # random((n, 4)) call replays four uniform calls per disk; the radii
    # then take NumPy's array exp where each disk took its scalar exp
    n = 100_000
    lo, hi = math.log(0.05), math.log(3.0)
    one_by_one = np.random.default_rng(20261019)
    drawn = [one_by_one.uniform(lo, hi) for _ in range(n)]
    batched = lo + (hi - lo) * np.random.default_rng(20261019).random(n)
    assert batched.tolist() == drawn
    assert np.exp(batched).tolist() == [float(np.exp(x)) for x in drawn]


_INWARD = SpiralSpec(1.0, -1.0, 1.0)
_OUTWARD = SpiralSpec(1e-300, 1.0, 1.0)


@pytest.mark.parametrize("spec,disks,failing", [
    # r == |c| on an inward spiral: the tail crosses the edge without end
    (_INWARD, [(0.4 + 0.1j, 0.3), (0.1 + 0.05j, 0.5), (0.5 + 0j, 0.5),
               (2.0 + 0j, 1.0), (0.3 - 0.4j, 0.5), (0.2j, 0.7)], {2, 4}),
    # an outward spiral that leaves the disk only past the float range
    (_OUTWARD, [(1e10 + 0j, 1.0), (0j, 1e10), (5.0 + 0j, 1.0),
                (1e-5 + 0j, 1e10), (3e4 + 0j, 2.0)], {1, 3}),
])
def test_each_failing_disk_names_itself(spec, disks, failing):
    # disks are measured one at a time, so a failing disk raises its own
    # error, naming it, and the others keep their lengths
    for k, (c, r) in enumerate(disks):
        if k in failing:
            with pytest.raises(ParameterError) as err:
                _spiral_length_in_disk(spec, c, r)
            assert f"|w - {c}| < {r!r}" in str(err.value)
        else:
            assert _spiral_length_in_disk(spec, c, r) >= 0.0


@pytest.mark.parametrize("d", [1e4, 1e8])
def test_far_ray_measures_the_diameter(d):
    # the ray through the diameter of the unit disk centred at d measures
    # 2: the chord of the closed form; the crossing search read
    # 2 + 9.09e-12 at d = 1e4 and 2 - 1.79e-7 at 1e8
    got = _spiral_length_in_disk(SpiralSpec(1.0, 1.0, 0.0), complex(d), 1.0)
    assert abs(got - 2.0) <= 1e-14


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 11: crossing times t ~ log(d)/alpha carry an absolute "
    "error of about ulp(t), and each piece |w0| |e^{a t1} - e^{a t2}| "
    "cancels, so the length loses digits in proportion to d"))
@pytest.mark.parametrize("d", [1e4, 1e8])
def test_far_spiral_measures_the_diameter(d):
    # beta = 1e-3 turns the trace by 1e-3 / d radians across the unit disk
    # at gamma(log d), so its length there is 2 to within 1e-15 (a 50-digit
    # bisection); the kernel reads 2 + 2.6e-11 at d = 1e4 and 2 - 2.5e-7 at
    # 1e8
    spec = SpiralSpec(1.0, 1.0, 1e-3)
    got = _spiral_length_in_disk(spec, spec.point(math.log(d)), 1.0)
    assert abs(got - 2.0) <= 1e-14
