"""Each boundary distance is measured once per call.

``backward_criterion`` and ``regularity_classify`` take delta_Omega(w(t))
from the probe that decided t was usable and pass it to the density and
distance bounds, so on a domain with no map each positive time costs two
measurements (the probe and the half-strip fit) and each unit step three
(its two ends and the fit), with the end of t = 1 shared with the probe of
t = 2.  Nothing keeps a delta past the call: a second call on the same
track measures as much as the first.

``_reference_*`` below are the grid, ratio and regularity loop the reuse
replaced, which measured every delta again where they needed it; the
package must give the same ``repr`` on every example track.
"""

import math
from collections import Counter

import pytest

from diskflow import catalog, hypgeo
from diskflow.analysis import (CriterionSample, OrbitTrack, _probe,
                               backward_criterion, backward_tail_grid,
                               regularity_classify)
from diskflow.domains import Domain, example2_domain
from diskflow.errors import DomainError
from diskflow.hypgeo import Interval
from diskflow.semigroup import ELLIPTIC, T_MAX_PROBE


def _tracks():
    out = [catalog.example_track(i) for i in catalog.EXAMPLE_IDS]
    out.append(catalog.exp_channel_track())
    return out


def _off_axis_track():
    # finite horizon: the criterion grid accumulates at the exit time
    return OrbitTrack.from_omega(example2_domain(), complex(-0.08, -0.9),
                                 label="example2 off axis")


# ---------------------------------------------------------------------------
# the measurement budget
# ---------------------------------------------------------------------------


@pytest.fixture
def measured(monkeypatch):
    points = []
    original = Domain.boundary_distance

    def counted(self, w, strict=True):
        points.append(complex(w))
        return original(self, w, strict)

    monkeypatch.setattr(Domain, "boundary_distance", counted)
    return points


def _stop_probe(last_t, t_max):
    """1 when the doubling schedule measured one more time past last_t
    (a point no longer usable) before t_max ended it, else 0."""
    return 1 if 2.0 * last_t <= t_max else 0


BUDGET_TRACKS = [catalog.example_track(1), catalog.example_track(2),
                 catalog.exp_channel_track()]


@pytest.mark.parametrize("track", BUDGET_TRACKS, ids=lambda tr: tr.label)
def test_criterion_measures_each_point_once(track, measured):
    counts = []
    for _ in range(2):
        measured.clear()
        rep = backward_criterion(track, t_max=64.0)
        assert not [w for w, n in Counter(measured).items() if n > 1]
        counts.append(len(measured))
    positive = [s.t for s in rep.samples if s.t > 0.0]
    # w0, then the probe and the half-strip fit per positive time
    assert counts[0] == 1 + 2 * len(positive) + _stop_probe(positive[-1], 64.0)
    assert counts[1] == counts[0]


def test_a_given_enclosure_leaves_the_probe_alone(measured):
    track = catalog.example_track(1)
    rep = backward_criterion(track, t_max=64.0,
                             enclosure_factory=catalog.example1_enclosure)
    positive = [s.t for s in rep.samples if s.t > 0.0]
    assert len(measured) == len(set(measured)) == 1 + len(positive)


@pytest.mark.parametrize("track", BUDGET_TRACKS, ids=lambda tr: tr.label)
def test_regularity_measures_each_point_once(track, measured):
    counts = []
    for _ in range(2):
        measured.clear()
        res = regularity_classify(track, t_max=64.0)
        assert not [w for w, n in Counter(measured).items() if n > 1]
        counts.append(len(measured))
    ts = [t for t, _ in res.steps]
    shared = sum(1 for a, b in zip(ts, ts[1:]) if a + 1.0 == b)
    assert shared == 1  # the end of t = 1 is the probe of t = 2
    assert counts[0] == 3 * len(ts) - shared + _stop_probe(ts[-1], 63.0)
    assert counts[1] == counts[0]


def test_a_given_delta_still_guards_the_boundary():
    dom = catalog.example_track(2).omega
    with pytest.raises(DomainError, match="numerically on the boundary"):
        hypgeo.domain_density(dom, 0j, 1e-14)
    with pytest.raises(DomainError, match="numerically on the boundary"):
        hypgeo.domain_distance(dom, 0j, -1.0 + 0j, delta_w=0.0)


# ---------------------------------------------------------------------------
# the grid, ratio and regularity loop the reuse replaced
# ---------------------------------------------------------------------------


def _reference_usable_time(track, t):
    probe = _probe(track.omega, track.w, t)
    return probe is not None and probe[1]


def _reference_doubling(track, t_max):
    ts = []
    t = 1.0
    while t <= t_max and _reference_usable_time(track, t):
        ts.append(t)
        t *= 2.0
    return ts


def _reference_tail_grid(track, t_max):
    horizon = track.horizon()
    ts = [0.0]
    if horizon.finite:
        T = horizon.value
        for j in range(1, 46):
            t = T * (1.0 - 2.0 ** -j)
            if t <= ts[-1]:
                continue
            if not _reference_usable_time(track, t):
                break
            ts.append(t)
    else:
        ts.extend(_reference_doubling(track, t_max))
    return ts


def _reference_ratio(track, t, enclosure=None):
    w = track.w(t)
    if not track.omega.contains(w):
        raise DomainError(f"criterion sample {w!r} left the Koenigs domain")
    weight = track.mu.real * t if track.kind == ELLIPTIC else 0.0
    kernel = track.omega.criterion_kernel(track.w0, w)
    if kernel is not None:
        return Interval.exact(kernel * math.exp(weight))
    lam = hypgeo.domain_density(track.omega, w)
    if t == 0.0:
        dist = Interval.exact(0.0)
    else:
        dist = hypgeo.domain_distance(track.omega, track.w0, w,
                                      enclosure=enclosure)
    if lam.lo > 0 and math.isfinite(dist.hi):
        lo = math.exp(math.log(lam.lo) - 2.0 * dist.hi + weight)
    else:
        lo = 0.0
    if math.isfinite(lam.hi):
        hi = math.exp(math.log(lam.hi) - 2.0 * dist.lo + weight)
    else:
        hi = math.inf
    return Interval(min(lo, hi), hi)


def _reference_samples(track, t_max, enclosure_factory=None):
    out = []
    for t in _reference_tail_grid(track, t_max):
        enc = enclosure_factory(t) if (enclosure_factory and t > 0) else None
        out.append(CriterionSample(t, _reference_ratio(track, t, enc),
                                   track.g_abs(t)))
    return tuple(out)


def _reference_steps(track, t_max):
    steps = []
    for t in _reference_doubling(track, t_max - 1.0):
        if not _reference_usable_time(track, t + 1.0):
            break
        k = hypgeo.domain_distance(track.omega, track.w(t), track.w(t + 1.0))
        steps.append((t, k))
    return tuple(steps)


@pytest.mark.parametrize("t_max", [64.0, 1024.0])
@pytest.mark.parametrize("track", _tracks(), ids=lambda tr: tr.label)
def test_reuse_keeps_the_bits(track, t_max):
    grid = backward_tail_grid(track, t_max)
    assert [t for t, _ in grid] == _reference_tail_grid(track, t_max)
    assert all(d == track.omega.boundary_distance(track.w(t))
               for t, d in grid)
    rep = backward_criterion(track, t_max=t_max)
    assert repr(rep.samples) == repr(_reference_samples(track, t_max))
    res = regularity_classify(track, t_max=t_max)
    assert repr(res.steps) == repr(_reference_steps(track, t_max))


def test_reuse_keeps_the_bits_with_a_given_enclosure():
    track = catalog.example_track(1)
    rep = backward_criterion(track, t_max=1024.0,
                             enclosure_factory=catalog.example1_enclosure)
    assert repr(rep.samples) == repr(_reference_samples(
        track, 1024.0, catalog.example1_enclosure))


def test_reuse_keeps_the_bits_at_a_finite_horizon():
    track = _off_axis_track()
    assert track.horizon().finite
    grid = backward_tail_grid(track)
    assert len(grid) > 10
    assert [t for t, _ in grid] == _reference_tail_grid(track, T_MAX_PROBE)
    rep = backward_criterion(track)
    assert repr(rep.samples) == repr(_reference_samples(track, T_MAX_PROBE))
