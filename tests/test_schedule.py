"""The probe schedule behind every Koenigs-plane tail probe.

It walks an increasing time stream, skips a time not above the last, and
stops before the boundary distance falls to a few float spacings of |w|;
``doubling`` ends before t = inf.  On every track and t_max below it
visits the same times as the doubling loop it replaced, written out below
as the reference.  Up to the default t_max the grids also match the rule
of the per-loop walks before it (delta >= 1e-13 only), so the 4-ulp clause
changes no time there."""

import cmath
import math

import pytest

from diskflow import catalog
from diskflow.analysis import (OrbitTrack, backward_tail_grid, doubling,
                               euclidean_sufficient_test, probe_schedule,
                               regularity_classify, shift_classify)
from diskflow.domains import HalfPlane, Strip
from diskflow.errors import DiskflowError
from diskflow.hypgeo import BOUNDARY_CUTOFF
from diskflow.semigroup import T_MAX_PROBE


def _ray(t):
    return complex(-t, 0.0)


def test_stops_before_infinite_time():
    # delta(-t) = t in the left half-plane never collapses, so only the
    # finiteness of t ends the schedule
    ts = [t for t, _ in probe_schedule(HalfPlane("left", 0.0), _ray,
                                       doubling(1.0, math.inf))]
    assert ts[-1] == 2.0 ** 1023
    assert all(math.isfinite(t) for t in ts)
    assert list(doubling(2.0 ** 1022, math.inf)) == [2.0 ** 1022, 2.0 ** 1023]


def test_stops_before_delta_reaches_float_spacing():
    # delta = 1 on the strip axis; 4 ulp(2^50) = 1 is not above it
    probes = list(probe_schedule(Strip(1.0, 0.0), _ray,
                                 doubling(1.0, math.inf)))
    assert probes[-1] == (2.0 ** 49, 1.0)
    assert all(d > 4.0 * math.ulp(t) for t, d in probes)
    assert not 1.0 > 4.0 * math.ulp(2.0 ** 50)


def test_collapse_point_is_yielded_last():
    track = catalog.exp_channel_track()
    plain = list(probe_schedule(track.omega, track.w,
                                doubling(1.0, T_MAX_PROBE)))
    full = list(probe_schedule(track.omega, track.w,
                               doubling(1.0, T_MAX_PROBE), collapse=True))
    assert full[:-1] == plain
    assert full[-1][0] == 2.0 * plain[-1][0]
    assert full[-1][1] < BOUNDARY_CUTOFF


def test_path_errors_end_the_schedule():
    def path(t):
        if t > 8.0:
            raise OverflowError("past the representable modulus")
        return complex(-t, 0.0)

    ts = [t for t, _ in probe_schedule(Strip(1.0, 0.0), path,
                                       doubling(1.0, math.inf))]
    assert ts == [1.0, 2.0, 4.0, 8.0]


def test_a_time_not_above_the_last_is_skipped():
    seen = []

    def path(t):
        seen.append(t)
        return complex(-t, 0.0)

    ts = [t for t, _ in probe_schedule(Strip(1.0, 0.0), path,
                                       [0.0, 1.0, 2.0, 2.0, 1.5, 3.0])]
    assert ts == seen == [1.0, 2.0, 3.0]


# -- the rule the schedule replaced --------------------------------------


def _reference_usable(track, t, spacing=True):
    """The probe rule; ``spacing=False`` drops the 4-ulp clause, leaving
    the cutoff rule of the per-loop walks."""
    if not math.isfinite(t):
        return False
    try:
        w = track.w(t)
        if not (cmath.isfinite(w) and track.omega.contains(w)):
            return False
        delta = track.omega.boundary_distance(w)
        return delta >= BOUNDARY_CUTOFF and (
            not spacing or delta > 4.0 * math.ulp(abs(w)))
    except (OverflowError, DiskflowError):
        return False


def _reference_doubling(track, t_max, span=0.0, spacing=True):
    ts = []
    t = 1.0
    while t + span <= t_max:
        if not (_reference_usable(track, t, spacing)
                and _reference_usable(track, t + span, spacing)):
            break
        ts.append(t)
        t *= 2.0
    return ts


def _reference_tail_grid(track, t_max, spacing=True):
    horizon = track.horizon()
    if not horizon.finite:
        return [0.0] + _reference_doubling(track, t_max, spacing=spacing)
    ts = [0.0]
    for j in range(1, 46):
        t = horizon.value * (1.0 - 2.0 ** -j)
        if t <= ts[-1]:
            continue
        if not _reference_usable(track, t, spacing):
            break
        ts.append(t)
    return ts


def _tracks():
    out = [catalog.example_track(i) for i in catalog.EXAMPLE_IDS]
    out.append(catalog.exp_channel_track())
    for name in catalog.BUILTIN_NAMES:
        sg = catalog.builtin_semigroup(name)
        out.append(OrbitTrack.from_semigroup(sg, catalog.builtin_start(name)))
    return out


@pytest.mark.parametrize("t_max", [1.5, 2.0, 3.0, 100.0, T_MAX_PROBE, 1e8,
                                   math.inf])
@pytest.mark.parametrize("track", _tracks(), ids=lambda tr: tr.label)
def test_default_grids_match_the_replaced_rule(track, t_max):
    # up to the default t_max both rules must agree; past it only the
    # full probe rule is the reference
    rules = (True, False) if t_max <= T_MAX_PROBE else (True,)
    grid = [t for t, _ in backward_tail_grid(track, t_max)]
    for spacing in rules:
        assert grid == _reference_tail_grid(track, t_max, spacing)
    if track.horizon().finite:
        return
    steps = [t for t, _ in regularity_classify(track, t_max).steps]
    samples = [t for t, _ in euclidean_sufficient_test(track, t_max).samples]
    for spacing in rules:
        assert steps == _reference_doubling(track, t_max, span=1.0,
                                            spacing=spacing)
        usable = _reference_doubling(track, t_max, spacing=spacing)
        assert samples[:len(usable)] == usable
        assert len(samples) - len(usable) in (0, 1)


def test_shift_samples_match_the_replaced_rule():
    sg = catalog.builtin_semigroup("uhp")
    res = shift_classify(sg, 0j)
    assert [t for t, _ in res.samples] == \
        [2.0 ** k for k in range(math.floor(math.log2(T_MAX_PROBE)) + 1)]
