"""The spiral-length kernel returns the bits of its 60-step predecessor.

``analysis._spiral_length_in_disk`` finds the grid's sign changes with NumPy
and bisects each crossing with the scalar ``SpiralSpec.point`` until the
midpoint rounds onto an end.  ``_reference_length`` below is the kernel it
replaced, kept verbatim apart from the evaluator: every scalar evaluation
there went through NumPy's scalar path, and every crossing took exactly 60
halvings.  Its circle branch (alpha = 0) samples one turn at 4096 points;
the kernel now takes the arc length in closed form, which the samples
approximate to within a few grid steps."""

import cmath
import math

import numpy as np
import pytest

from diskflow.analysis import SpiralSpec, _spiral_length_in_disk


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
# alpha = 0, slow and fast winding, and a base point off the unit circle
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
    positive = 0
    for c, r in _disks(spec, rng, n_disks):
        got = _spiral_length_in_disk(spec, c, r)
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
    spec = SpiralSpec(w0, alpha, beta)
    rng = np.random.default_rng([SPECS.index((w0, alpha, beta)), 7])
    disks = _disks(spec, rng, 60)
    calls, point = _calls(monkeypatch)
    gridded = crossings = halvings = 0
    for c, r in disks:
        del calls[:]
        _spiral_length_in_disk(spec, c, r)
        arrays = [t for t in calls if isinstance(t, np.ndarray)]
        scalars = [t for t in calls if not isinstance(t, np.ndarray)]
        assert all(type(t) is float for t in scalars)
        if alpha == 0.0:
            assert not arrays and not scalars     # closed form
            continue
        assert len(arrays) <= 1
        if not arrays:
            assert not scalars
            continue
        gridded += 1
        ts = arrays[0]
        inside = np.abs(point(spec, ts) - c) < r
        brackets = np.flatnonzero(inside[:-1] != inside[1:])
        # one midpoint test per piece between crossings, after the bisections
        assert len(scalars) >= len(brackets) + 1
        bisections = scalars[:len(scalars) - len(brackets) - 1]
        for i in brackets:
            k = sum(ts[i] < t < ts[i + 1] for t in bisections)
            assert 1 <= k <= 60
        assert len(bisections) == sum(
            sum(ts[i] < t < ts[i + 1] for t in bisections) for i in brackets)
        crossings += len(brackets)
        halvings += len(bisections)
    if alpha != 0.0:
        assert gridded > len(disks) // 2
        assert crossings > 0
        # float resolution comes before the cap of 60 on most crossings
        assert halvings < 60 * crossings
