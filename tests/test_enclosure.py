"""The automatic half-strip enclosure behind mapless distance bounds."""

import pytest

from diskflow import hypgeo
from diskflow.domains import (Disk, Domain, HalfStrip, example1_domain,
                              example2_domain, exp_channel_domain,
                              is_convex_positive_direction, is_spirallike)

MAPLESS = {"example1": lambda: example1_domain(40),
           "example2": example2_domain,
           "exp_channel": exp_channel_domain}


@pytest.fixture()
def counted(monkeypatch):
    """Count Domain.boundary_distance calls."""
    calls = []
    original = Domain.boundary_distance

    def counting(self, w, strict=True):
        calls.append(w)
        return original(self, w, strict)

    monkeypatch.setattr(Domain, "boundary_distance", counting)
    return calls


# the exp channel narrows like e^x, so its pairs stay where delta > 1e-13
PAIRS = [(name, x0, t) for name in sorted(MAPLESS)
         for x0, t in [(0.0, 0.5), (0.3, 2.0), (-0.5, 20.0), (0.0, 700.0)]
         if not (name == "exp_channel" and t > 25.0)]


@pytest.mark.parametrize("name,x0,t", PAIRS)
def test_auto_enclosed_distance_costs_three_boundary_distances(
        name, x0, t, counted):
    dom = MAPLESS[name]()
    iv = hypgeo.domain_distance(dom, complex(x0, 0.0), complex(x0 - t, 0.0))
    assert iv.finite and iv.lo < iv.hi
    # delta(z), delta(w), and delta at the left end of the half-strip
    assert len(counted) <= 3


@pytest.mark.parametrize("name,x0,t", PAIRS)
def test_fitted_half_strip_lies_in_domain(name, x0, t, rng):
    dom = MAPLESS[name]()
    z, w = complex(x0, 0.0), complex(x0 - t, 0.0)
    r0 = min(dom.boundary_distance(z), dom.boundary_distance(w))
    sub = dom.rightward_half_strip(z, w, r0)
    assert isinstance(sub, HalfStrip)
    assert sub.left == pytest.approx(x0 - t - 0.5 * r0, rel=1e-15)
    assert sub.half_width == 0.999 * dom.boundary_distance(
        complex(sub.left, sub.center))
    assert sub.contains(z) and sub.contains(w)
    xs = sub.left + (x0 + 10.0 - sub.left) * rng.uniform(0.0, 1.0, 2000) ** 2
    ys = sub.center + sub.half_width * rng.uniform(-1.0, 1.0, 2000)
    assert all(dom.contains(complex(x, y)) for x, y in zip(xs, ys))


def test_no_half_strip_without_positive_invariance():
    dom = Disk(0j, 1.0)
    assert dom.rightward_half_strip(-0.5 + 0j, 0.5 + 0j, 0.5) is None


def test_no_half_strip_for_vertical_pairs():
    dom = example2_domain()
    assert dom.rightward_half_strip(0j, 0.5j, 1.0) is None


class _Wedge(Domain):
    """{|Im w| < Re w}, with no exact invariance hooks."""

    kind = "wedge"

    def contains(self, w):
        w = complex(w)
        return abs(w.imag) < w.real

    def _proposal(self, rng):
        return complex(rng.uniform(0.0, 4.0), rng.uniform(-4.0, 4.0))


def test_sampled_invariance_probes():
    # the wedge is invariant under w -> w + t and w -> exp(-t) w, but not
    # under the rotating spiral w -> exp(-(1+i) t) w
    assert is_convex_positive_direction(_Wedge())
    assert is_spirallike(_Wedge(), 1.0)
    assert not is_spirallike(_Wedge(), 1.0 + 1.0j)
    assert not is_convex_positive_direction(_LeftWedge())


class _LeftWedge(_Wedge):
    """{|Im w| < -Re w}: translation to the right leaves it."""

    def contains(self, w):
        return super().contains(-complex(w))

    def _proposal(self, rng):
        return -super()._proposal(rng)
