"""``domains.dist_to_curve`` returns the bits of its scalar predecessor.

The samples of a curve now take one NumPy call, and only the samples whose
comparisons fall inside the rounding margin are recomputed on the scalar
path, each distinct parameter once; each distinct bracket is refined once.
``_reference_dist`` below is the function it replaced, kept verbatim but
for its comments and the ``on_bracket`` hook, which only reports: every
sample went through the scalar curve, one Python call per point.

The two-edge channel kinds skip an edge that cannot hold the minimum and
measure a mirrored lower edge from conj(w).  The ``_distance`` methods
they replaced, which measured both edges everywhere, are kept verbatim as
``_both_edges_inv_log_distance`` and ``_both_edges_exp_distance``."""

import cmath
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from diskflow import domains
from diskflow.cli import main
from diskflow.domains import (_E, _EXP_X_MAX, Channel, SpiralSector,
                              _dist_point_segment, _exp, _graph,
                              dist_to_curve, example2_domain, example3_domain,
                              exp_channel_domain)
from diskflow.errors import EvaluationError

from conftest import deadline


def _reference_dist(w, curve, s_lo, s_hi, n0=600, tol=1e-9, on_bracket=None):
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
        if on_bracket is not None:
            on_bracket(lo, hi)
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
# and one float, and points beside one edge, where the other is skipped
DEGENERATE = [("exp", complex(x, 0.0)) for x in (-16.2, -31.2, -48.0)]
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


def _logged(curve, args):
    def logged(s):
        args.append(s)
        return curve(s)
    return logged


def _checked(shares):
    """A stand-in for ``dist_to_curve`` that runs it beside the reference.
    It checks that the result has the reference's bits, that the first call
    is the one array call, and that the scalar calls are distinct grid
    values in grid order followed by exactly the reference's refinement
    calls less those of each repeated bracket, so the brackets are the same.
    On a grid of distinct values without repeated brackets that is every
    refinement call of the reference.  The share of recomputed samples goes
    to ``shares``."""
    def shadow(w, curve, s_lo, s_hi, n0=600):
        new, old, brackets = [], [], []
        got = dist_to_curve(w, _logged(curve, new), s_lo, s_hi, n0)
        want = _reference_dist(
            w, _logged(curve, old), s_lo, s_hi, n0,
            on_bracket=lambda lo, hi: brackets.append((lo, hi, len(old))))
        assert repr(got) == repr(want), w
        if not s_hi > s_lo:
            assert new == old == [s_lo]
            return got
        grid, scalars = new[0], new[1:]
        assert isinstance(grid, np.ndarray) and grid.shape == (n0,)
        assert all(isinstance(s, float) for s in scalars)
        refine, seen = [], set()
        ends = [start for _, _, start in brackets[1:]] + [len(old)]
        for (lo, hi, start), end in zip(brackets, ends):
            if (lo, hi) not in seen:
                refine += old[start:end]
            seen.add((lo, hi))
        recomputed = scalars[:len(scalars) - len(refine)]
        assert scalars[len(recomputed):] == refine
        assert np.isin(recomputed, grid).all()
        assert all(a < b for a, b in zip(recomputed, recomputed[1:]))
        shares.append(len(recomputed) / n0)
        return got
    return shadow


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_same_bits_brackets_and_one_array_call(monkeypatch, name):
    shares = []
    monkeypatch.setattr(domains, "dist_to_curve", _checked(shares))
    for n, w in POINTS:
        if n == name:
            assert 0.0 < DOMAINS[name].boundary_distance(w) < math.inf
    assert shares and max(shares) < 0.1


def _jittered(curve_ulps, r_before, r_after):
    """Two circular arcs about 0, of radius ``r_before`` for s < 1 and
    ``r_after`` from there on: scalar samples through cmath, array samples
    moved radially by up to ``curve_ulps`` ulps of 1, as a SIMD library may
    round them.  On each arc every distance from 0 is the radius up to
    rounding, so every comparison there is a near tie."""
    rng = np.random.default_rng(7)

    def curve(s):
        if isinstance(s, float):
            return (r_before if s < 1.0 else r_after) * cmath.exp(1j * s)
        jitter = rng.integers(-curve_ulps, curve_ulps + 1, size=np.shape(s))
        return (np.where(s < 1.0, r_before, r_after) * np.exp(1j * s)
                * (1.0 + jitter * 2.0 ** -52))
    return curve


# one arc: every sample ties the lowest; two arcs: one of them ties above it
@pytest.mark.parametrize("r_before,r_after", [(1.0, 1.0), (1.0, 0.5),
                                              (0.5, 1.0)])
def test_array_rounding_inside_the_margin_keeps_scalar_brackets(r_before,
                                                                 r_after):
    # 32 ulps, half the 64-ulp margin, leaves room for np.exp's own rounding
    for s_hi in (0.5, 2.0, 6.0):
        _checked([])(0j, _jittered(32, r_before, r_after), 0.0, s_hi)


def test_every_array_sample_low_keeps_the_scalar_best():
    # each array sample reads 32 ulps low; the lowest sample sits at the
    # foot of the perpendicular, where refinement cannot go lower
    def curve(s):
        if isinstance(s, float):
            return complex(s, 1.0)
        return (s + 1j) * (1.0 - 32 * 2.0 ** -52)
    assert _checked([])(0j, curve, -1.0, 1.0, n0=601) == 1.0


@pytest.mark.parametrize("spoilt", [math.inf, 1e308])
def test_non_finite_array_samples_take_the_scalar_path(spoilt):
    # distances 3, 2, 2, 2.5, 1, 3 (times 1e307) at s = -2..3: two local
    # minima tie at s = -1 and 0, above the lowest at s = 2.  The array path
    # reads s = -1 a little high, and at s = 0 puts Re c at ``spoilt``, so
    # |w - c| overflows: with |c| itself infinite, or finite.  Both samples
    # of the tie take the scalar path, so both brackets stay.
    w = complex(-1e308, 0.0)
    xs = [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    ds = [3e307, 2e307, 2e307, 2.5e307, 1e307, 3e307]

    def curve(s):
        if isinstance(s, float):
            return complex(-1e308, float(np.interp(s, xs, ds)))
        high = np.where(s == -1.0, 1.0 + 32 * 2.0 ** -52, 1.0)
        return (np.where(s == 0.0, spoilt, -1e308)
                + 1j * (np.interp(s, xs, ds) * high))
    assert _checked([])(w, curve, -2.0, 3.0, n0=6) == pytest.approx(1e307)


def test_overflowing_samples_lie_farther_than_finite_ones():
    # the window's top sample sits 1.8e308 above the axis, where |w - c|
    # passes the float range; the others are finite
    w = complex(1e303, 0.5)
    d0 = math.hypot(w.real - 700.0, math.exp(700.0) - w.imag)
    d = exp_channel_domain().boundary_distance(w)
    assert math.isfinite(d) and d <= d0
    assert d == pytest.approx(1e303, rel=1e-12)


def test_a_window_of_overflowing_samples_raises():
    def curve(s):
        return 1.5e308 + 0.0 * s + 1j * (1.5e308 + 0.0 * s)
    with pytest.raises(EvaluationError, match="float range"):
        dist_to_curve(0j, curve, 0.0, 1.0)
    with pytest.raises(EvaluationError, match="float range"):
        dist_to_curve(0j, curve, 1.0, 1.0)


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
    for edge in (self._upper, self._lower):
        d0 = min(d0, dist_to_curve(w, lambda x: _graph(x, edge(x)), x_lo, x_hi))
    return d0


def _both_edges_exp_distance(self, w: complex) -> float:
    # d0, the distance to the edge point above x (above 700 past there,
    # where math.exp is still finite), bounds delta; the edges within d0
    # of w lie in x +/- d0, and beyond _EXP_X_MAX they lie farther
    x, y = w.real, abs(w.imag)
    d0 = math.exp(x) - y if x <= 700.0 else \
        math.hypot(x - 700.0, math.exp(700.0) - y)
    x_lo, x_hi = x - d0, min(x + d0, _EXP_X_MAX)
    d = dist_to_curve(w, lambda x: _graph(x, _exp(x)), x_lo, x_hi)
    return min(d, dist_to_curve(w, lambda x: _graph(x, -_exp(x)), x_lo, x_hi))


BOTH_EDGES = {"inv_log": _both_edges_inv_log_distance,
              "inv_log_below": _both_edges_inv_log_distance,
              "exp": _both_edges_exp_distance}

# seeded interior points, axis points, and points of example 3's strip
# {-1 < Im < 0}, where both gaps are below 1
TWO_EDGE_POINTS = (
    [p for name in BOTH_EDGES for p in _seeded_points(name, 60)]
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
