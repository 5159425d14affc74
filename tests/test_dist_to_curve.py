"""``domains.dist_to_curve`` measures the boundary distance of the
channel and spiral-sector kinds.

The samples of a curve take one NumPy call and each local minimum is
refined on the scalar path by golden section, until the distances at the
bracket ends and interior points agree to 4 ulps or no float is left
between them.  ``_reference_dist`` below is the scalar kernel it replaced,
kept verbatim but for its comments: every sample went through the scalar
curve, one Python call per point, and the ternary search stopped at a
parameter width of 1e-9.  That stop left δ up to 549 times too high next
to the boundary; the kernel reads no higher than the reference by more
than the rounding of w - c.

Each edge is handed to the kernel as two functions: ``point`` for a Python
float and ``points`` for an array.  Before, one dual-type curve tested the
type of its argument on every sample, and golden section reached it
through ``_sample_dist``.  That kernel and those curves are kept verbatim
below (``_parent_dist_to_curve`` and the dual-type edges), and every kind
reads the same bits from the split ones, the spiral sectors on the window
that kernel used.

The two-edge channel kinds skip an edge that cannot hold the minimum and
measure a mirrored lower edge from conj(w).  The ``_distance`` methods
they replaced, which measured both edges everywhere, are kept verbatim as
``_both_edges_inv_log_distance`` and ``_both_edges_exp_distance``, on the
dual-type edges and the kernel before the split."""

import ast
import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from diskflow import catalog, domains
from diskflow.analysis import OrbitTrack, backward_criterion
from diskflow.cli import main
from diskflow.domains import (_E, _EXP_X_MAX, _LOG_COS_Y, Channel,
                              SpiralSector, _dist_point_segment,
                              dist_to_curve, example2_domain,
                              example3_domain, exp_channel_domain)
from diskflow.errors import EvaluationError
from diskflow.hypgeo import BOUNDARY_CUTOFF

from conftest import deadline


def _reference_dist(w, curve, s_lo, s_hi, n0=600, tol=1e-9):
    if not s_hi > s_lo:
        return abs(w - curve(s_lo))
    ss = np.linspace(s_lo, s_hi, n0)
    d = np.array([abs(w - curve(s)) for s in ss])
    best = float(d.min())
    idx = [i for i in range(n0)
           if (i == 0 or d[i] <= d[i - 1]) and (i == n0 - 1 or d[i] <= d[i + 1])]
    for i in idx:
        lo = ss[max(0, i - 1)]
        hi = ss[min(n0 - 1, i + 1)]
        while hi - lo > tol:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if abs(w - curve(m1)) <= abs(w - curve(m2)):
                if m2 == hi:
                    break
                hi = m2
            elif m1 == lo:
                break
            else:
                lo = m1
        best = min(best, abs(w - curve(0.5 * (lo + hi))))
    return best


# -- the kernel and the edges before the split, verbatim but for names ------

_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_FLAT = 2.0 ** -50
_MAX_STEPS = 4096
_LEFTOVER = 16


def _parent_dist_to_curve(w, curve, s_lo, s_hi, n0=600, samples=None):
    if not s_hi > s_lo:
        return _finite(_parent_sample_dist(w, curve, s_lo))
    if samples is None:
        ss = np.linspace(s_lo, s_hi, n0)
        samples = ss, curve(ss)
    ss, cs = samples
    with np.errstate(all="ignore"):
        d = np.abs(w - cs)
    d[~np.isfinite(d)] = math.inf
    best = float(d.min())
    at_min = np.isfinite(d)
    at_min[1:] &= d[1:] <= d[:-1]
    at_min[:-1] &= d[:-1] <= d[1:]
    last = None
    for i in np.flatnonzero(at_min):
        j, k = max(0, i - 1), min(n0 - 1, i + 1)
        lo, hi = float(ss[j]), float(ss[k])
        if (lo, hi) == last:
            continue
        last = (lo, hi)
        best = min(best, _parent_golden(w, curve, lo, hi, float(d[j]),
                                        float(d[k])))
    return _finite(best)


def _parent_golden(w, curve, lo, hi, d_lo, d_hi):
    m1, m2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    d1, d2 = _parent_sample_dist(w, curve, m1), _parent_sample_dist(w, curve, m2)
    best = min(d1, d2)
    for _ in range(_MAX_STEPS):
        if not lo < m1 < m2 < hi:
            s = math.nextafter(lo, hi)
            for _ in range(_LEFTOVER):
                if not s < hi:
                    break
                best = min(best, _parent_sample_dist(w, curve, s))
                s = math.nextafter(s, hi)
            break
        least = min(d_lo, d1, d2, d_hi)
        if max(d_lo, d1, d2, d_hi) - least <= _FLAT * least:
            break
        if d1 <= d2:
            hi, d_hi, m2, d2 = m2, d2, m1, d1
            m1 = hi - _GOLDEN * (hi - lo)
            d1 = _parent_sample_dist(w, curve, m1)
        else:
            lo, d_lo, m1, d1 = m1, d1, m2, d2
            m2 = lo + _GOLDEN * (hi - lo)
            d2 = _parent_sample_dist(w, curve, m2)
        best = min(best, d1, d2)
    return best


def _parent_sample_dist(w, curve, s):
    try:
        d = abs(w - curve(s))
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(d) else d


def _finite(d):
    if d == math.inf:
        raise EvaluationError("every distance to the curve leaves the float "
                              "range", overflow=True)
    return d


def _graph(x, y):
    return complex(x, y) if isinstance(x, float) else x + 1j * y


def _exp(x):
    return math.exp(x) if isinstance(x, float) else np.exp(x)


def _log_cos(y):
    if isinstance(y, float):
        return math.log(math.cos(y))
    return np.log(np.cos(y))


def _inv_log_upper(self, x):
    if not isinstance(x, float):
        return 1.0 / np.log(-x)
    if x <= -_E:
        return 1.0 / math.log(-x)
    s = (x + _E) / (_E - 1.0)
    return 1.0 + s * (self.mouth_cap - 1.0)


def _inv_log_lower(self, x):
    return -_inv_log_upper(self, x) - self.lower_drop


def _sector_edge(self, s, th):
    if isinstance(s, float):
        return cmath.exp(self.mu * complex(s, th))
    return np.exp(self.mu * (s + 1j * th))


def _sector_window(self, w):
    """The window each edge of a spiral sector was measured on."""
    mu = self.mu
    s_c = (math.log(abs(w)) * mu.real
           + (cmath.phase(w)) * mu.imag) / abs(mu) ** 2
    span = (4.0 + 2.0 * math.pi) / mu.real
    return s_c - span, s_c + span


def _parent_sector_distance(self, w):
    d = math.inf
    for th in (self.half_angle, -self.half_angle):
        d = min(d, _parent_dist_to_curve(w, lambda s: _sector_edge(self, s, th),
                                         *_sector_window(self, w), n0=1500))
    return d


def _sector_on_the_parent_window(self, w):
    d = math.inf
    for th in (self.half_angle, -self.half_angle):
        d = min(d, dist_to_curve(w, *self._edge(th), *_sector_window(self, w),
                                 n0=1500))
    return d


def _parent_log_cos_distance(w):
    y_max = 0.5 * math.pi * (1.0 - 1e-12)
    d = _parent_dist_to_curve(w, lambda y: _graph(_log_cos(y), y),
                              -y_max, y_max, n0=1200)
    return min(0.5 * math.pi - abs(w.imag), d)


DOMAINS = {
    "inv_log": example2_domain(),
    "inv_log_below": example3_domain(),
    "exp": exp_channel_domain(),
    "log_cos": Channel(profile="log_cos"),
    "sector": SpiralSector(1.0 + 0j, 0.5 * math.pi),
    "spiral_sector": SpiralSector(0.7 - 1.2j, 1.0),
}

# near ties: the symmetry axes of log_cos, where the two middle samples of
# its even grid lie at equal distances, and of example 2, and example 2
# past |Re w| = 1e7, where the samples are few floats apart
NEAR_TIES = (
    [("log_cos", complex(x, 0.0)) for x in np.linspace(0.05, 6.0, 25)]
    + [("inv_log", complex(-(10.0 ** k), 0.0)) for k in np.linspace(0.5, 7, 14)]
    + [("inv_log", complex(-(10.0 ** k), 0.0)) for k in (7.25, 7.5, 8, 9)]
    + [("inv_log_below", complex(-(10.0 ** k), -0.5)) for k in (2, 7.5, 9)]
)

# exp channel axis points whose window holds about 5e7 floats, 17 floats
# (at -31.2 and at a start of the bench's), 7 floats and one float, and
# points beside one edge, where the other is skipped.  A window of fewer
# floats than samples repeats sample floats, and each sample of a run of
# equal distances is marked a minimum.
DEGENERATE = [("exp", complex(x, 0.0))
              for x in (-16.2, -31.2, -31.21932720987162, -32.0, -48.0)]
OFF_AXIS = (
    [("exp", w) for w in (-5 + 0.003j, -2 + 0.1j, 1 + 2j, 3 - 10j, 0.5 - 1.2j)]
    + [("inv_log", w) for w in (-20 + 0.3j, -1e4 + 0.1j, -50 - 0.2j,
                                -3.5 + 0.5j)]
    + [("inv_log_below", w) for w in (-20 - 0.3j, -1e4 - 0.9j, -50 + 0.2j,
                                      -5 - 1.4j)]
)


def _seeded_points(name, n=30):
    seed = sorted(DOMAINS).index(name) + 20261018
    return [(name, w) for w in DOMAINS[name].interior_samples(n, seed=seed)]


POINTS = ([p for name in DOMAINS for p in _seeded_points(name)] + NEAR_TIES
          + DEGENERATE + OFF_AXIS)


def _logged(fn, args):
    def logged(s):
        args.append(s)
        return fn(s)
    return logged


def _dual(point, points):
    """The one curve of both number types that the kernel took before."""
    return lambda s: point(s) if isinstance(s, float) else points(s)


def _checked(w, point, points, s_lo, s_hi, n0=600, samples=None):
    """``dist_to_curve`` run beside the reference and the kernel before the
    split.  ``points`` must take the one array call, unless the caller
    passes the samples it keeps, and ``point`` every Python float; the
    result has the bits of the kernel before the split, and may read below
    the reference, whose 1e-9 stop leaves it high, but above it only by
    the rounding of w - c, 8 ulps of max(1, |w|)."""
    scalars, arrays = [], []
    got = dist_to_curve(w, _logged(point, scalars), _logged(points, arrays),
                        s_lo, s_hi, n0, samples=samples)
    curve = _dual(point, points)
    assert repr(got) == repr(_parent_dist_to_curve(w, curve, s_lo, s_hi, n0,
                                                   samples)), w
    want = _reference_dist(w, curve, s_lo, s_hi, n0)
    assert got <= want + 8.0 * np.spacing(max(1.0, abs(w))), w
    if samples is not None:
        ss = np.linspace(s_lo, s_hi, n0)
        assert samples[0].tobytes() == ss.tobytes()
        assert samples[1].tobytes() == points(ss).tobytes()
        assert arrays == []
    elif s_hi > s_lo:
        assert len(arrays) == 1
        assert isinstance(arrays[0], np.ndarray) and arrays[0].shape == (n0,)
    else:
        assert arrays == []
    assert all(type(s) is float for s in scalars)
    return got


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_one_array_call_and_no_higher_than_the_reference(monkeypatch, name):
    monkeypatch.setattr(domains, "dist_to_curve", _checked)
    for n, w in POINTS:
        if n == name:
            assert 0.0 < DOMAINS[name].boundary_distance(w) < math.inf


def test_log_cos_kept_samples_measure_as_a_fresh_sampling():
    # the log-cos edge is sampled once per process; the distance before
    # that, which sampled it on each call, is written out above
    dom = DOMAINS["log_cos"]
    points = [w for n, w in POINTS if n == "log_cos"]
    assert len(points) == 55
    for w in points:
        assert repr(dom.boundary_distance(w)) == \
            repr(_parent_log_cos_distance(w)), w


@pytest.mark.parametrize("name", ["sector", "spiral_sector"])
def test_a_sector_keeps_the_bits_of_the_dual_type_edges(name):
    # on the window the dual-type edges were measured on, which the
    # sectors have since moved
    dom = DOMAINS[name]
    points = [w for n, w in POINTS if n == name]
    assert len(points) == 30
    for w in points:
        assert repr(_sector_on_the_parent_window(dom, w)) == \
            repr(_parent_sector_distance(dom, w)), w


# each channel edge as dist_to_curve's point and points, and a parameter
# on the part of it that _distance samples
CHANNEL_EDGES = {
    "inv_log": (DOMAINS["inv_log"]._upper_point,
                DOMAINS["inv_log"]._upper_points, -40.0),
    "inv_log_below": (DOMAINS["inv_log_below"]._lower_point,
                      DOMAINS["inv_log_below"]._lower_points, -40.0),
    "exp": (DOMAINS["exp"]._upper_point, DOMAINS["exp"]._upper_points, -5.0),
    "log_cos": (domains._log_cos_point, domains._log_cos_points, 0.3),
}


@pytest.mark.parametrize("ulps", [1, 7, 100, 599])
@pytest.mark.parametrize("edge", sorted(CHANNEL_EDGES))
def test_a_window_of_fewer_floats_than_samples_keeps_the_bits(edge, ulps):
    # the 600 samples of a window ulps floats wide repeat sample floats
    point, points, s = CHANNEL_EDGES[edge]
    s_hi = s + ulps * math.ulp(s)
    assert len(np.unique(np.linspace(s, s_hi, 600))) == ulps + 1
    for offset in (1e-3j, -0.5 + 0.25j, 2.0 - 1.0j, 0j):
        _checked(point(s) + offset, point, points, s, s_hi)


def test_the_kept_log_cos_samples_are_read_only():
    assert domains._log_cos_samples() is domains._log_cos_samples()
    ss, cs = domains._log_cos_samples()
    with pytest.raises(ValueError):
        ss[0] = 0.0
    with pytest.raises(ValueError):
        cs[0] = 0j


def test_the_kept_index_is_read_only():
    assert domains._sample_index(600) is domains._sample_index(600)
    index = domains._sample_index(600)
    assert index.tobytes() == np.arange(600, dtype=float).tobytes()
    with pytest.raises(ValueError):
        index[0] = 1.0


@pytest.mark.parametrize("n0", [600, 1200, 1500])
def test_the_kept_index_spaces_samples_as_linspace(n0):
    rng = np.random.default_rng(20261021 + n0)
    windows = [
        (0.0, 100.0 * math.ulp(0.0)),    # the step underflows to 0
        (0.0, 1e-318),                   # a subnormal step
        (-1.5e308, 1.5e308),             # the width leaves the float range
        (-_LOG_COS_Y, _LOG_COS_Y),
    ]
    for _ in range(1000):
        # floats from 1e-12 to 1e12 either side of 0, and widths of one
        # float spacing to 1e18 of them
        s_lo = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, 12))
        s_hi = s_lo + float(10.0 ** rng.uniform(0, 18)) * math.ulp(s_lo)
        windows.append((s_lo, s_hi))
    for _ in range(1000):
        s_lo, s_hi = sorted(rng.uniform(-100.0, 100.0, 2).tolist())
        windows.append((s_lo, s_hi))
    assert (windows[0][1] - windows[0][0]) / (n0 - 1) == 0.0
    for s_lo, s_hi in windows:
        with np.errstate(all="ignore"):
            got = domains._linspace(s_lo, s_hi, n0)
            want = np.linspace(s_lo, s_hi, n0)
        assert got.tobytes() == want.tobytes(), (s_lo, s_hi)


def test_plateau_brackets_are_the_per_sample_loops():
    # at these exp channel axis points every sample of the window's runs
    # of equal distances is marked: 584 and 594 marks make 33 and 13
    # brackets, formed as arrays; each bracket must be the one the loop
    # over the marks, which leaves out a bracket equal to the one before
    # it, refines
    dom = DOMAINS["exp"]
    for x, marks, brackets in ((-31.21932720987162, 584, 33),
                               (-32.0, 594, 13)):
        w = complex(x, 0.0)
        d0 = math.exp(x)
        ss = np.linspace(x - d0, x + d0, 600)
        d = np.abs(w - dom._upper_points(ss))
        at_min = np.isfinite(d)
        at_min[1:] &= d[1:] <= d[:-1]
        at_min[:-1] &= d[:-1] <= d[1:]
        marked = np.flatnonzero(at_min)
        want, last = [], None
        for i in marked:
            j, k = max(0, i - 1), min(599, i + 1)
            lo, hi = float(ss[j]), float(ss[k])
            if (lo, hi) != last:
                want.append((lo, hi, float(d[j]), float(d[k])))
            last = (lo, hi)
        got = domains._brackets(ss, d, marked)
        assert (len(marked), len(got)) == (marks, brackets)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("spoilt", [math.inf, 1e308])
def test_non_finite_array_samples_do_not_hide_the_minimum(spoilt):
    # distances 3, 2, 2, 1, 1.5, 2.5, 3 (times 1e307) at s = -2, -1, 0,
    # 0.5, 1, 2, 3: the samples at s = -1 and 0 tie, and the minimum lies
    # between the samples at 0 and 1.  The array path puts Re c at
    # ``spoilt`` at s = 0, so |w - c| overflows there, with |c| itself
    # infinite or finite; the minimum is still found between its neighbours.
    w = complex(-1e308, 0.0)
    xs = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0]
    ds = [3e307, 2e307, 2e307, 1e307, 1.5e307, 2.5e307, 3e307]

    def point(s):
        return complex(-1e308, float(np.interp(s, xs, ds)))

    def points(s):
        return np.where(s == 0.0, spoilt, -1e308) + 1j * np.interp(s, xs, ds)
    assert _checked(w, point, points, -2.0, 3.0, n0=6) == \
        pytest.approx(1e307, rel=1e-12)


@pytest.mark.parametrize("eps", [1e-9, 1e-11, 1e-13])
def test_log_cos_axis_next_to_the_tip(eps):
    # the tongue's tip at 0 has curvature 1, so from (eps, 0) it is the
    # nearest boundary point; a 1e-9 parameter stop read 1e-13 as 5.49e-11
    d = DOMAINS["log_cos"].boundary_distance(complex(eps, 0.0))
    assert abs(d - eps) <= 4.0 * np.spacing(eps)


@pytest.mark.parametrize("x", [-16.0, -24.0])
def test_exp_channel_axis_foot_point(x):
    # the nearest edge point (t, e^t) solves (t - x) + e^(2t) = 0, within
    # about 2 delta of x, a window the 1e-9 stop never refined: it read
    # delta 1.4e-6 relative high.  The root is solved for u = x - t, which
    # brentq finds to its relative tolerance, and e^t is taken as e^x e^-u,
    # since rounding x - u would move it by up to 1.8e-15 relative.
    u = brentq(lambda u: u - math.exp(2.0 * x) * math.exp(-2.0 * u),
               0.0, 1.0, xtol=1e-300)
    want = math.hypot(u, math.exp(x) * math.exp(-u))
    d = exp_channel_domain().boundary_distance(complex(x, 0.0))
    assert d == pytest.approx(want, rel=2.0 ** -50, abs=0.0)


def test_channel_builtin_criterion_stops_at_the_cutoff():
    # the backward orbit from z = 0 runs along the axis into the tongue's
    # tip, where delta is the real part; it stops at delta < 1e-13, which
    # the 1e-9 stop read as 5.49e-11 and passed three samples later
    track = OrbitTrack.from_semigroup(catalog.builtin_semigroup("channel"),
                                      0j)
    samples = backward_criterion(track).samples
    assert len(samples) == 43
    for s in samples[1:]:
        w = track.w(s.t)
        assert w.imag == 0.0 and w.real >= BOUNDARY_CUTOFF


def test_overflowing_samples_lie_farther_than_finite_ones():
    # the window's top sample sits 1.8e308 above the axis, where |w - c|
    # passes the float range; the others are finite
    w = complex(1e303, 0.5)
    d0 = math.hypot(w.real - 700.0, math.exp(700.0) - w.imag)
    d = exp_channel_domain().boundary_distance(w)
    assert math.isfinite(d) and d <= d0
    assert d == pytest.approx(1e303, rel=1e-12)


def test_a_window_of_overflowing_samples_raises():
    # a bracket whose distances are all +inf is not refined, so the one
    # array call is the only call
    def curve(s):
        return 1.5e308 + 0.0 * s + 1j * (1.5e308 + 0.0 * s)
    scalars, arrays = [], []
    with pytest.raises(EvaluationError, match="float range"):
        dist_to_curve(0j, _logged(curve, scalars), _logged(curve, arrays),
                      0.0, 1.0)
    assert (len(scalars), len(arrays)) == (0, 1)
    with pytest.raises(EvaluationError, match="float range"):
        dist_to_curve(0j, _logged(curve, scalars), _logged(curve, arrays),
                      1.0, 1.0)
    assert (scalars, len(arrays)) == ([1.0], 1)


def test_a_nan_sample_lies_farther_than_finite_ones():
    # the curve is NaN below s = 0.4 on both paths, and |w - c| is least at
    # s = 0.7; the first interior point of the bracket [0, 1] is NaN, and
    # refinement still steers toward the minimum
    def point(s):
        return complex(math.nan, math.nan) if s < 0.4 else \
            complex(s - 0.7, 1.0)

    def points(s):
        return np.where(s < 0.4, math.nan, s - 0.7) + 1j
    assert dist_to_curve(0j, point, points, 0.0, 1.0, n0=3) == \
        pytest.approx(1.0)


def _both_edges_inv_log_distance(self, w: complex) -> float:
    up_cap = self.mouth_cap
    lo_cap = -self.mouth_cap - self.lower_drop
    cands = []
    # vertical boundary rays at Re = -1
    dx = w.real + 1.0
    cands.append(math.hypot(dx, max(0.0, up_cap - w.imag))
                 if w.imag < up_cap else abs(dx))
    cands.append(math.hypot(dx, max(0.0, w.imag - lo_cap))
                 if w.imag > lo_cap else abs(dx))
    # blend segments
    cands.append(_dist_point_segment(w, complex(-_E, 1.0), complex(-1.0, up_cap)))
    cands.append(_dist_point_segment(w, complex(-_E, -1.0 - self.lower_drop),
                                     complex(-1.0, lo_cap)))
    d0 = min(cands)
    # profile curves for x <= -e, on the window that can still matter
    x_hi = -_E
    x_lo = min(w.real - d0, x_hi - 1.0)
    for edge in (_inv_log_upper, _inv_log_lower):
        d0 = min(d0, _parent_dist_to_curve(
            w, lambda x: _graph(x, edge(self, x)), x_lo, x_hi))
    return d0


def _both_edges_exp_distance(self, w: complex) -> float:
    # d0, the distance to the edge point above x (above 700 past there,
    # where math.exp is still finite), bounds delta; the edges within d0
    # of w lie in x +/- d0, and beyond _EXP_X_MAX they lie farther
    x, y = w.real, abs(w.imag)
    d0 = math.exp(x) - y if x <= 700.0 else \
        math.hypot(x - 700.0, math.exp(700.0) - y)
    x_lo, x_hi = x - d0, min(x + d0, _EXP_X_MAX)
    d = _parent_dist_to_curve(w, lambda x: _graph(x, _exp(x)), x_lo, x_hi)
    return min(d, _parent_dist_to_curve(w, lambda x: _graph(x, -_exp(x)),
                                        x_lo, x_hi))


BOTH_EDGES = {"inv_log": _both_edges_inv_log_distance,
              "inv_log_below": _both_edges_inv_log_distance,
              "exp": _both_edges_exp_distance}

# seeded interior points (POINTS' first among them), axis points, and
# points of example 3's strip {-1 < Im < 0}, where both gaps are below 1;
# with the near ties and degenerate windows, every entry of POINTS of the
# two-edge kinds
TWO_EDGE_POINTS = (
    [p for name in BOTH_EDGES for p in _seeded_points(name, 60)]
    + [p for p in NEAR_TIES + DEGENERATE if p[0] in BOTH_EDGES]
    + [(name, complex(x, 0.0)) for name in ("inv_log", "exp")
       for x in (-1e6, -400.0, -31.2, -16.2, -8.0, -3.0, -1.5, 0.0, 2.5, 9.0)]
    + [("inv_log_below", complex(x, y))
       for x in (-1e6, -400.0, -30.0, -8.0, -3.0, -2.0, 0.5)
       for y in (-0.999, -0.75, -0.5, -0.25, 0.0)]
    + OFF_AXIS
)


@pytest.mark.parametrize("name", sorted(BOTH_EDGES))
def test_two_edge_kinds_keep_the_bits_of_both_edges(name):
    dom = DOMAINS[name]
    points = [w for n, w in TWO_EDGE_POINTS if n == name]
    assert len(points) >= 60
    for w in points:
        want = BOTH_EDGES[name](dom, w)
        assert repr(dom.boundary_distance(w)) == repr(want), w


@pytest.mark.parametrize("name,x", [("inv_log", -1e6), ("inv_log", -30.0),
                                    ("inv_log", -3.0), ("exp", -31.2),
                                    ("exp", -2.0), ("exp", 5.0)])
def test_an_axis_point_of_a_mirrored_kind_measures_one_edge(monkeypatch,
                                                            name, x):
    calls = []

    def counted(w, *args, **kwargs):
        calls.append(w)
        return dist_to_curve(w, *args, **kwargs)
    monkeypatch.setattr(domains, "dist_to_curve", counted)
    DOMAINS[name].boundary_distance(complex(x, 0.0))
    assert len(calls) == 1


# exp channel {|Im w| < e^(Re w)}: on the real axis the nearest edge point
# (t, e^t) solves e^(2t) = x - t
@pytest.mark.parametrize("x", [7.0, 10.0, 100.0, 800.0])
def test_exp_channel_far_right(x):
    # the search window passed x = 709.78, where math.exp overflows
    with deadline(10):
        d = exp_channel_domain().boundary_distance(complex(x, 0.0))
    t = brentq(lambda t: math.exp(2.0 * t) - (x - t), -x, math.log(x))
    assert d == pytest.approx(math.hypot(x - t, math.exp(t)), rel=1e-9)


def test_exp_channel_criterion_cli(tmp_path, capsys):
    config = tmp_path / "exp7.json"
    config.write_text(json.dumps({
        "type": "nonelliptic", "koenigs": None,
        "domain": {"kind": "channel", "profile": "exp"},
        "start_w": [[7, 0]]}))
    with deadline(30):
        code = main(["criterion", "--config", str(config),
                     "--out", str(tmp_path / "out")])
    assert code == 0


# -- spiral sectors ------------------------------------------------------------

# the sector whose window once missed the part of an edge near the origin:
# at this w it read 4.0328180917203404, above |w| = 4.032817068146546,
# while the edges come within 4.032809241410091 at modulus 2.7e-5
WOUND = SpiralSector(1.0 + 0.3j, 3.0)
NEAR_ORIGIN = 0.6081363519034186 - 3.986700851910976j

SECTORS = [WOUND, DOMAINS["spiral_sector"], SpiralSector(1.0 + 1.0j, 0.3),
           SpiralSector(2.0 - 1.0j, 0.7)]


@pytest.mark.parametrize("dom", SECTORS, ids=repr)
def test_a_sector_reads_both_sides_of_the_negative_axis_alike(dom):
    # the window was centred at cmath.phase(w), which jumps by 2 pi across
    # the negative axis: delta(-0.5 + 0i) and delta(-0.5 - 0i) on WOUND
    # read 0.038476663381848346 and 0.038476663381848394
    measured = 0
    for r in np.geomspace(1e-3, 1e3, 61):
        above, below = complex(-r, 0.0), complex(-r, -0.0)
        if not dom.contains(above):
            continue
        assert dom.contains(below)
        assert repr(dom.boundary_distance(above)) == \
            repr(dom.boundary_distance(below)), r
        measured += 1
    assert measured >= 5


def _brute_sector_distance(dom, w, n=100_001):
    """min(|w|, the edges' distances): dense samples over moduli |w| e^-40
    to |w| e^12, each local minimum within 1e-6 of the least sample refined
    by ternary search until no float is left in its bracket.  A run of
    equal samples counts as one minimum, at its left end."""
    mu, r = dom.mu, abs(w)
    edges = []
    for th in (dom.half_angle, -dom.half_angle):
        s0 = (math.log(r) + mu.imag * th) / mu.real
        ss = np.linspace(s0 - 40.0 / mu.real, s0 + 12.0 / mu.real, n)
        edges.append((th, ss, np.abs(w - np.exp(mu * (ss + 1j * th)))))
    best = min(r, *(float(d.min()) for _, _, d in edges))
    near = best * (1.0 + 1e-6)
    for th, ss, d in edges:
        def dist(s):
            return abs(w - cmath.exp(mu * complex(s, th)))
        at_min = np.flatnonzero((d[1:-1] < d[:-2]) & (d[1:-1] <= d[2:])) + 1
        for i in at_min[d[at_min] <= near]:
            lo, hi = float(ss[i - 1]), float(ss[i + 1])
            while True:
                m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
                if not lo < m1 < m2 < hi:
                    break
                if dist(m1) <= dist(m2):
                    hi = m2
                else:
                    lo = m1
            best = min(best, dist(lo), dist(hi))
    return best


@pytest.mark.parametrize("dom", [DOMAINS["sector"], DOMAINS["spiral_sector"],
                                 WOUND], ids=repr)
def test_a_sector_reads_the_dense_minimum(dom):
    points = [w for name, w in POINTS
              if name in DOMAINS and DOMAINS[name] == dom]
    points += dom.interior_samples(20, seed=20261020)
    if dom == WOUND:
        points.append(NEAR_ORIGIN)
    for w in points:
        # within the rounding of w - c, 8 ulps of |w|
        got, want = dom.boundary_distance(w), _brute_sector_distance(dom, w)
        assert abs(got - want) <= 8.0 * np.spacing(abs(w)), w
        assert got <= abs(w)


def test_the_window_reaches_the_part_near_the_origin():
    d = WOUND.boundary_distance(NEAR_ORIGIN)
    assert d < abs(NEAR_ORIGIN)
    assert d == pytest.approx(4.032809241410091, rel=4e-16)


# -- what the kernel runs per sample -------------------------------------------

def _domains_tree():
    return ast.parse(Path(domains.__file__).read_text())


def test_no_function_in_domains_tests_for_a_float():
    # each curve is handed over as its scalar and its array function, so
    # nothing in the module dispatches on the number type
    tests = []
    for node in ast.walk(_domains_tree()):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == \
                "isinstance":
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(ast.unparse(k) == "float" for k in names):
                tests.append(node.lineno)
        if isinstance(node, ast.Compare) and \
                any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                    for op in node.ops):
            sides = [ast.unparse(x) for x in (node.left, *node.comparators)]
            if "float" in sides and any(x.startswith("type(")
                                        for x in sides):
                tests.append(node.lineno)
    assert tests == []


def _linspace_calls(nodes):
    """The calls of NumPy's linspace, by any module name, under nodes."""
    return [n for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and "linspace" in (getattr(n.func, "attr", None),
                               getattr(n.func, "id", None))]


def test_linspace_runs_only_in_the_kept_index_fallback():
    # dist_to_curve scales the kept arange; np.linspace, which costs about
    # three times as much, runs only where the step underflows to 0 or
    # leaves the float range
    tree = _domains_tree()
    functions = {f.name: f for f in tree.body
                 if isinstance(f, ast.FunctionDef)}
    assert _linspace_calls([functions["dist_to_curve"]]) == []
    (fallback,) = [n for n in functions["_linspace"].body
                   if isinstance(n, ast.If)]
    assert ast.unparse(fallback.test) == \
        "step == 0.0 or not math.isfinite(step)"
    assert _linspace_calls([tree]) == _linspace_calls(fallback.body)
    assert len(_linspace_calls([tree])) == 1


def test_golden_section_samples_through_point_and_abs_alone():
    # a step of the loop takes one sample, abs(w - point(s)), and calls
    # nothing else; the collapsed bracket's floats are measured once, in
    # the return that leaves the loop
    golden = next(f for f in _domains_tree().body
                  if isinstance(f, ast.FunctionDef) and f.name == "_golden")
    loop = next(n for n in golden.body if isinstance(n, ast.For))
    body = [n for stmt in loop.body for n in ast.walk(stmt)]
    leaving = {id(n) for r in body if isinstance(r, ast.Return)
               for n in ast.walk(r)}
    calls = [ast.unparse(n.func) for n in body
             if isinstance(n, ast.Call) and id(n) not in leaving]
    assert sorted(calls) == ["abs", "point"]
    samples = [ast.unparse(n) for n in body
               if isinstance(n, ast.Call) and ast.unparse(n.func) == "abs"]
    assert samples == ["abs(w - point(s))"]
