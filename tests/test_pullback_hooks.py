"""The exact-map pullback lives behind the Domain hooks.

``Domain.hyperbolic_density`` and ``hyperbolic_distance`` default to the
pullback through ``exact_map`` and give None without a map or where it
fails; ``hypgeo`` asks only these hooks before it falls back to bounds.
The reference functions below are written-out copies of the pullback and
interval routes as ``hypgeo`` ran them before the move, and the hooks and
intervals must keep their bits (compared by ``repr``) on map-backed domains
with no closed form, including points where the map fails or saturates."""

import ast
import math
from pathlib import Path

import pytest

import diskflow
from diskflow import catalog
from diskflow.audits import _Masked
from diskflow.domains import SpiralSector, Strip, example2_domain
from diskflow.errors import DomainError, EvaluationError
from diskflow.hypgeo import (Interval, _check_interior, disk_density,
                             disk_distance, domain_density, domain_distance)


def ref_density(dom, w):
    try:
        z, dz = dom.exact_map.jet(complex(w), check=False)
        return disk_density(z) * abs(dz)
    except (EvaluationError, DomainError):
        return None


def ref_distance(dom, z, w):
    fmap = dom.exact_map
    try:
        return disk_distance(fmap.evaluate(complex(z), check=False),
                             fmap.evaluate(complex(w), check=False))
    except (EvaluationError, DomainError):
        return None


def ref_domain_density(dom, w):
    w = complex(w)
    delta = _check_interior(dom, w)
    exact = ref_density(dom, w)
    if exact is not None:
        return Interval.exact(exact)
    return Interval.bounds(0.25 / delta, 1.0 / delta)


def ref_domain_distance(dom, z, w):
    z, w = complex(z), complex(w)
    dz = _check_interior(dom, z)
    dw = _check_interior(dom, w)
    if z == w:
        return Interval.exact(0.0)
    exact = ref_distance(dom, z, w)
    if exact is not None:
        return Interval.exact(exact)
    r0 = min(dz, dw)
    lo = 0.25 * math.log1p(abs(z - w) / r0)
    hi = math.inf
    sub = dom.rightward_half_strip(z, w, r0)
    if sub is not None:
        if not (sub.contains(z) and sub.contains(w)):
            raise DomainError("enclosure does not contain both points")
        hi_val = sub.hyperbolic_distance(z, w)
        if hi_val is None and sub.exact_map is not None:
            hi_val = ref_distance(sub, z, w)
        if hi_val is not None:
            hi = hi_val
    if hi < lo:
        lo = hi = 0.5 * (lo + hi)
    return Interval.bounds(lo, hi)


def outcome(fn, *args):
    """repr of the value, or the error a call raises."""
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


# map-backed domains without a closed form, and points on which their map
# saturates onto the unit circle or overflows (the far ends of each domain)
MAPPED = {
    "channel": (catalog.channel_semigroup().omega,
                [10.0, 40.0, 400.0, 1e6, 1e300, -3.5 + 1.0j, -3.0 - 1.2j]),
    "slit_tip": (catalog.slit_tip_semigroup().omega,
                 [10.0, 40.0, 1e6, 1e300, -0.999 + 1e-9j, 1.0 + 0.999999999j]),
    "sector": (SpiralSector(1.0, 1.0),
               [40.0, 1e6, 1e300, 1e10 + 1e10j, 1e-300, 0.5 + 0.77j]),
}


def _points(name):
    dom, hard = MAPPED[name]
    pts = dom.interior_samples(180, seed=len(name)) + [complex(w) for w in hard]
    pairs = list(zip(pts, reversed(pts)))
    return dom, pts, pairs


@pytest.mark.parametrize("name", list(MAPPED))
def test_hooks_default_to_the_exact_map_pullback(name):
    dom, pts, pairs = _points(name)
    for w in pts:
        assert repr(dom.hyperbolic_density(w)) == repr(ref_density(dom, w))
    for z, w in pairs:
        assert repr(dom.hyperbolic_distance(z, w)) == \
            repr(ref_distance(dom, z, w))
    # both branches run: pullback values and failures that give None
    densities = [dom.hyperbolic_density(w) for w in pts]
    assert sum(v is None for v in densities) >= 2
    assert sum(v is not None for v in densities) >= 150


@pytest.mark.parametrize("name", list(MAPPED))
def test_hypgeo_intervals_keep_their_bits(name):
    dom, pts, pairs = _points(name)
    for w in pts:
        assert outcome(domain_density, dom, w) == \
            outcome(ref_domain_density, dom, w)
    for z, w in pairs:
        assert outcome(domain_distance, dom, z, w) == \
            outcome(ref_domain_distance, dom, z, w)


@pytest.mark.parametrize("dom", [example2_domain(), _Masked(Strip(1.0, 0.0))],
                         ids=["mapless_channel", "masked_strip"])
def test_mapless_domains_get_none_and_bounds(dom):
    pts = getattr(dom, "inner", dom).interior_samples(20, seed=3)
    for z, w in zip(pts[0::2], pts[1::2]):
        assert dom.hyperbolic_density(w) is None
        assert dom.hyperbolic_distance(z, w) is None
        lam = domain_density(dom, w)
        assert lam.lo < lam.hi and lam.finite
        k = domain_distance(dom, z, w)
        assert k.lo < k.hi


def test_only_domains_reads_exact_map():
    # every other module asks a Domain hook for hyperbolic facts
    paths = sorted(Path(diskflow.__file__).parent.glob("*.py"))
    assert "hypgeo.py" in [p.name for p in paths]
    readers = []
    for path in paths:
        if path.name == "domains.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "exact_map":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
