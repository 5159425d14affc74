"""The spiral-length kernel returns the bits of its 60-step predecessor.

``analysis._spiral_lengths`` plans each disk's window in scalar code,
evaluates the winding grids of all its disks in one array call, and
bisects each crossing on Python floats with ``cmath`` until the midpoint
rounds onto an end.  ``_spiral_length_in_disk`` is its one-disk call.
``_reference_length`` below is the kernel it replaced, kept verbatim apart
from the evaluator: every scalar evaluation there went through NumPy's
scalar path, and every crossing took exactly 60 halvings.  Its circle
branch (alpha = 0) samples one turn at 4096 points; the kernel now takes
the arc length in closed form, which the samples approximate to within a
few grid steps.  ``_reference_audit`` is ``ahlfors_audit`` before it drew
and measured all its disks at once."""

import cmath
import math

import numpy as np
import pytest

from diskflow import analysis
from diskflow.analysis import (AhlforsResult, SpiralSpec, ahlfors_audit,
                               _spiral_length_in_disk, _spiral_lengths)
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


@pytest.mark.parametrize("w0,alpha,beta", SPECS)
def test_same_bits_as_the_sixty_step_kernel(w0, alpha, beta):
    spec = SpiralSpec(w0, alpha, beta)
    rng = np.random.default_rng([SPECS.index((w0, alpha, beta)), 5])
    n_disks = 40 if alpha == 0.0 else 200
    disks = _disks(spec, rng, n_disks)
    batched, _ = _spiral_lengths(spec, disks)
    positive = 0
    for (c, r), got in zip(disks, batched):
        assert repr(_spiral_length_in_disk(spec, c, r)) == repr(got)
        want = _reference_length(spec, c, r)
        if alpha == 0.0:
            # two ends of the arc, each off by at most a grid step, and the
            # sample at 2 pi repeating the one at 0
            step = 2.0 * math.pi * abs(w0) / 4095
            assert abs(got - want) <= 3.0 * step, (c, r)
        else:
            assert repr(got) == repr(want), (c, r)
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


def test_a_window_past_the_grid_is_typed_not_aliased():
    # 2.65e6 grid steps of at most 30 degrees of winding each: the old cap
    # of 200000 points sampled the window at 6 turns a step and read
    # 386333.8 (the whole window on its full grid reads 94525.1); the
    # kernel measures at most _GRID_POINTS points a window
    spec = SpiralSpec(1.0, -0.001, 1000.0)
    with pytest.raises(ParameterError, match="grid steps"):
        _spiral_length_in_disk(spec, 0.5 + 0j, 0.3)
    with pytest.raises(ParameterError, match="grid steps"):
        _spiral_lengths(spec, [(0.5 + 0j, 0.01), (0.5 + 0j, 0.3)])
    # a window on a grid of 76406 points is measured as before
    assert _spiral_length_in_disk(spec, 0.5 + 0j, 0.01) == \
        _reference_length(spec, 0.5 + 0j, 0.01)


def test_a_window_of_a_few_subnormals_is_measured_from_its_ends():
    # span 1.1e-323: span / 64 underflowed to 0, and int(span / dt) raised
    # a bare ZeroDivisionError.  The trace is the ray from 1 outward, so
    # the length is r - 1, up to one step of exp(alpha t) between
    # neighbouring subnormal times
    spec = SpiralSpec(1.0, 1e308, 0.0)
    r = 1.0 + 1e-15
    got = _spiral_length_in_disk(spec, 0j, r)
    assert abs(got - (r - 1.0)) <= spec.alpha * 5e-324


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


def test_array_point_keeps_numpy_array_path():
    spec = SpiralSpec(0.3 - 0.7j, 1.7, -0.8)
    ts = np.linspace(0.0, 5.0, 257)
    got = spec.point(ts)
    assert isinstance(got, np.ndarray)
    assert got.tobytes() == _numpy_point(spec, ts).tobytes()


def test_grid_has_linspace_bits():
    # random windows, plus spans whose step underflows to 0, where linspace
    # (and so the grid) switches to arange / (n - 1) * span
    rng = np.random.default_rng(20261019)
    windows = []
    for k in range(300):
        t0 = float(rng.uniform(0.0, 50.0)) if k % 3 else 0.0
        span = float(np.exp(rng.uniform(-30.0, 5.0)))
        windows.append((t0, t0 + span, int(rng.integers(2, 400))))
    windows += [(0.0, 3 * 5e-324, 10), (0.0, 5e-324, 2), (1e-320, 2e-320, 7)]
    ts, seg = analysis._grid([analysis._SpiralWindow(k, 0j, 1.0, 0.0, *w)
                              for k, w in enumerate(windows)])
    for k, (t0, t1, n) in enumerate(windows):
        assert ts[seg == k].tobytes() == np.linspace(t0, t1, n).tobytes()


def _calls(monkeypatch):
    point = SpiralSpec.point
    calls = []

    def counting(self, t):
        calls.append(t)
        return point(self, t)

    monkeypatch.setattr(SpiralSpec, "point", counting)
    return calls, point


@pytest.mark.parametrize("w0,alpha,beta", SPECS)
def test_one_array_call_and_at_most_sixty_halvings(monkeypatch, w0, alpha,
                                                   beta):
    # the bisection evaluates the trace inline, so the halvings are read
    # from the kernel's own count, and SpiralSpec.point sees only the grid
    spec = SpiralSpec(w0, alpha, beta)
    rng = np.random.default_rng([SPECS.index((w0, alpha, beta)), 7])
    disks = _disks(spec, rng, 60)
    calls, point = _calls(monkeypatch)
    lengths, halvings = _spiral_lengths(spec, disks)
    if alpha == 0.0:
        assert not calls and not halvings         # closed form
        return
    # one grid evaluation for the whole batch, and no scalar evaluation
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)
    # one disk at a time: at most one grid each, its crossings are the sign
    # changes on that grid, and the batch bisects each the same way
    gridded, per_disk = 0, []
    for c, r in disks:
        del calls[:]
        length, counts = _spiral_lengths(spec, [(c, r)])
        assert len(calls) <= 1
        if not calls:
            assert not counts
            continue
        gridded += 1
        ts = calls[0]
        inside = np.abs(point(spec, ts) - c) < r
        assert len(counts) == np.count_nonzero(inside[:-1] != inside[1:])
        per_disk += counts
    assert halvings == per_disk
    assert gridded > len(disks) // 2
    assert halvings and all(1 <= h <= 60 for h in halvings)
    # float resolution comes before the cap of 60 on most crossings
    assert sum(halvings) < 60 * len(halvings)


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


@pytest.mark.parametrize("spec,disks", [
    # r == |c| on an inward spiral: the tail crosses the edge without end
    (_INWARD, [(0.4 + 0.1j, 0.3), (0.1 + 0.05j, 0.5), (0.5 + 0j, 0.5),
               (2.0 + 0j, 1.0), (0.3 - 0.4j, 0.5), (0.2j, 0.7)]),
    # an outward spiral that leaves the disk only past the float range
    (_OUTWARD, [(1e10 + 0j, 1.0), (0j, 1e10), (5.0 + 0j, 1.0),
                (1e-5 + 0j, 1e10), (3e4 + 0j, 2.0)]),
])
def test_first_failing_disk_in_list_order_raises(spec, disks):
    def per_disk():
        return [_spiral_length_in_disk(spec, c, r) for c, r in disks]

    with pytest.raises(ParameterError) as want:
        per_disk()
    with pytest.raises(ParameterError) as got:
        _spiral_lengths(spec, disks)
    assert str(got.value) == str(want.value)
    # the failing disks raise in either order, each with its own message
    with pytest.raises(ParameterError) as rev:
        _spiral_lengths(spec, disks[::-1])
    assert str(rev.value) != str(got.value)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 11: crossing times t ~ log(d)/alpha carry an absolute "
    "error of about ulp(t), and each piece |w0| |e^{a t1} - e^{a t2}| "
    "cancels, so the length loses digits in proportion to d"))
@pytest.mark.parametrize("d", [1e4, 1e8])
def test_far_ray_measures_the_diameter(d):
    # the ray through the diameter of the unit disk centred at d measures
    # 2; the kernel reads 2 + 9.09e-12 at d = 1e4 and 2 - 1.79e-7 at 1e8
    got = _spiral_length_in_disk(SpiralSpec(1.0, 1.0, 0.0), complex(d), 1.0)
    assert abs(got - 2.0) <= 1e-14
