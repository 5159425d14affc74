"""The doubling probe schedule behind every Koenigs-plane tail probe.

It stops before t = inf and before the boundary distance falls to a few
float spacings of |w|; at the default t_max it visits the same times as the
per-loop rule it replaced (delta >= 1e-13 only), written out below as the
reference."""

import math

import pytest

from diskflow import catalog
from diskflow.analysis import (OrbitTrack, backward_tail_grid,
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
                                       math.inf)]
    assert ts[-1] == 2.0 ** 1023
    assert all(math.isfinite(t) for t in ts)


def test_stops_before_delta_reaches_float_spacing():
    # delta = 1 on the strip axis; 4 ulp(2^50) = 1 is not above it
    probes = list(probe_schedule(Strip(1.0, 0.0), _ray, math.inf))
    assert probes[-1] == (2.0 ** 49, 1.0)
    assert all(d > 4.0 * math.ulp(t) for t, d in probes)
    assert not 1.0 > 4.0 * math.ulp(2.0 ** 50)


def test_collapse_point_is_yielded_last():
    track = catalog.exp_channel_track()
    plain = list(probe_schedule(track.omega, track.w, T_MAX_PROBE))
    full = list(probe_schedule(track.omega, track.w, T_MAX_PROBE,
                               collapse=True))
    assert full[:-1] == plain
    assert full[-1][0] == 2.0 * plain[-1][0]
    assert full[-1][1] < BOUNDARY_CUTOFF


def test_path_errors_end_the_schedule():
    def path(t):
        if t > 8.0:
            raise OverflowError("past the representable modulus")
        return complex(-t, 0.0)

    ts = [t for t, _ in probe_schedule(Strip(1.0, 0.0), path, math.inf)]
    assert ts == [1.0, 2.0, 4.0, 8.0]


# -- the rule the schedule replaced --------------------------------------


def _reference_usable(track, t):
    try:
        w = track.w(t)
        if not track.omega.contains(w):
            return False
        return track.omega.boundary_distance(w) >= BOUNDARY_CUTOFF
    except (OverflowError, DiskflowError):
        return False


def _reference_doubling(track, t_max, span=0.0):
    ts = []
    t = 1.0
    while t + span <= t_max:
        if not (_reference_usable(track, t)
                and _reference_usable(track, t + span)):
            break
        ts.append(t)
        t *= 2.0
    return ts


def _reference_tail_grid(track):
    horizon = track.horizon()
    if not horizon.finite:
        return [0.0] + _reference_doubling(track, T_MAX_PROBE)
    ts = [0.0]
    for j in range(1, 46):
        t = horizon.value * (1.0 - 2.0 ** -j)
        if t <= ts[-1]:
            continue
        if not _reference_usable(track, t):
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


@pytest.mark.parametrize("track", _tracks(), ids=lambda tr: tr.label)
def test_default_grids_match_the_replaced_rule(track):
    assert [t for t, _ in backward_tail_grid(track)] == \
        _reference_tail_grid(track)
    if track.horizon().finite:
        return
    reg = regularity_classify(track)
    assert [t for t, _ in reg.steps] == \
        _reference_doubling(track, T_MAX_PROBE, span=1.0)
    euc = euclidean_sufficient_test(track)
    usable = _reference_doubling(track, T_MAX_PROBE)
    assert [t for t, _ in euc.samples][:len(usable)] == usable
    assert len(euc.samples) - len(usable) in (0, 1)


def test_shift_samples_match_the_replaced_rule():
    sg = catalog.builtin_semigroup("uhp")
    res = shift_classify(sg, 0j)
    assert [t for t, _ in res.samples] == \
        [2.0 ** k for k in range(math.floor(math.log2(T_MAX_PROBE)) + 1)]
