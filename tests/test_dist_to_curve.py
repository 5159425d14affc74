"""``domains.dist_to_curve`` returns the bits of its scalar predecessor.

The samples of a curve now take one NumPy call, and only the samples whose
comparisons fall inside the rounding margin are recomputed on the scalar
path.  ``_reference_dist`` below is the function it replaced, kept verbatim
but for its comments: every sample went through the scalar curve, one
Python call per point."""

import cmath
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from diskflow import domains
from diskflow.cli import main
from diskflow.domains import (Channel, SpiralSector, dist_to_curve,
                              example2_domain, example3_domain,
                              exp_channel_domain)

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


def _seeded_points(name, n=30):
    seed = sorted(DOMAINS).index(name) + 20261018
    return [(name, w) for w in DOMAINS[name].interior_samples(n, seed=seed)]


POINTS = [p for name in DOMAINS for p in _seeded_points(name)] + NEAR_TIES


def _logged(curve, args):
    def logged(s):
        args.append(s)
        return curve(s)
    return logged


def _checked(shares):
    """A stand-in for ``dist_to_curve`` that runs it beside the reference.
    It checks that the result has the reference's bits, that the first call
    is the one array call, and that the scalar calls are grid samples in
    grid order followed by exactly the reference's refinement calls, so the
    brackets are the same.  The share of recomputed samples goes to
    ``shares``."""
    def shadow(w, curve, s_lo, s_hi, n0=600, tol=1e-9):
        new, old = [], []
        got = dist_to_curve(w, _logged(curve, new), s_lo, s_hi, n0, tol)
        want = _reference_dist(w, _logged(curve, old), s_lo, s_hi, n0, tol)
        assert repr(got) == repr(want), w
        grid, scalars = new[0], new[1:]
        assert isinstance(grid, np.ndarray) and grid.shape == (n0,)
        assert all(isinstance(s, float) for s in scalars)
        refine = old[n0:]
        recomputed = scalars[:len(scalars) - len(refine)]
        assert scalars[len(recomputed):] == refine
        at = [int(np.flatnonzero(grid == s)[0]) for s in recomputed]
        assert at == sorted(set(at))
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
