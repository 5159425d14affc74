"""Hyperbolic geometry kernel (curvature -4 convention, density 1/(1-|z|^2)).

Exact values come from the domain's hyperbolic hooks (a closed form, else
the pullback through its exact Riemann map); where the hooks give none,
operations return two-sided interval bounds from the comparison with the
Euclidean boundary distance (1/(4 delta) <= lambda <= 1/delta, and the log
lower bound for distances, factor 1/2 on convex domains).  Intervals use
plain floating point with a documented 1e-12 relative inflation; they are
audit aids, not formal enclosures.

Distances in half-planes, strips and half-strips route through an upper
half-plane kernel carried in log-modulus/argument form, so quantities like
the Example-1 half-strip value 0.5*(log sinh(1024 pi) - log sinh(992 pi))
evaluate without overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import CrossValidationError, DomainError, ParameterError

BOUNDARY_CUTOFF = 1e-13
_INFLATE = 1e-12
# a distance's upper bound may fall below its lower bound by this many ulps
# of the lower bound (9.1e-13 relative, inside _INFLATE) and is reconciled;
# past it domain_distance raises CrossValidationError
RECONCILE_ULPS = 4096


def logsinh(x: float) -> float:
    """log(sinh(x)) for x > 0 without overflow."""
    if x <= 0:
        raise ParameterError("logsinh requires a positive argument")
    return x - math.log(2.0) + math.log(-math.expm1(-2.0 * x))


def _arccosh1p(u: float) -> float:
    """arccosh(1 + u) for u >= 0, stable for both tiny and huge u."""
    if u < 0:
        u = 0.0
    return math.log1p(u + math.sqrt(u * (u + 2.0)))


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]; hi may be +inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ParameterError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ParameterError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, v: float) -> "Interval":
        return cls(v, v)

    @classmethod
    def bounds(cls, lo: float, hi: float) -> "Interval":
        """Bound-type interval with the documented relative inflation."""
        return cls(lo, hi).widen()

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def finite(self) -> bool:
        return math.isfinite(self.hi)

    def widen(self) -> "Interval":
        """[lo, hi] inflated by the relative _INFLATE at each finite end."""
        lo = self.lo - _INFLATE * abs(self.lo)
        hi = self.hi + _INFLATE * abs(self.hi) if math.isfinite(self.hi) else self.hi
        return Interval(lo, hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


# ---------------------------------------------------------------------------
# Unit disk
# ---------------------------------------------------------------------------


def _require_disk_point(z: complex) -> complex:
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"{z!r} is not inside the unit disk")
    if 1.0 - abs(z) < BOUNDARY_CUTOFF:
        raise DomainError(f"{z!r} is numerically on the unit circle")
    return z


def disk_density(z: complex) -> float:
    """Hyperbolic density 1/(1-|z|^2) of the unit disk."""
    z = _require_disk_point(z)
    return 1.0 / (1.0 - abs(z) ** 2)


def disk_distance(z: complex, w: complex) -> float:
    """0.5*log((|1-conj(z)w|+|z-w|)/(|1-conj(z)w|-|z-w|))."""
    z = _require_disk_point(z)
    w = _require_disk_point(w)
    num = abs(1.0 - z.conjugate() * w)
    sep = abs(z - w)
    if sep == 0.0:
        return 0.0
    # equal to the quotient form, but stable when sep/num is tiny
    r = sep / num
    return 0.5 * math.log1p(2.0 * r / (1.0 - r))


def disk_criterion_kernel(a: complex, b: complex) -> float:
    """lambda_D(b) * exp(-2 k_D(a, b)), with the near-boundary factor
    (1 - |b|^2) cancelled symbolically:

        (1 - |a|^2) / (|1 - conj(a) b|^2 (1 + r)^2),
        r = |a - b| / |1 - conj(a) b|.

    Well-conditioned even when b has rounded onto the unit circle."""
    a, b = complex(a), complex(b)
    q = abs(1.0 - a.conjugate() * b)
    r = abs(a - b) / q
    return (1.0 - abs(a) ** 2) / (q * q * (1.0 + r) ** 2)


# ---------------------------------------------------------------------------
# Upper half-plane kernel in log coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UhpLogPoint:
    """A point r*exp(i*theta) of the upper half-plane, stored as (log r, theta)."""

    logmod: float
    arg: float

    def __post_init__(self):
        if not 0.0 < self.arg < math.pi:
            raise DomainError(f"argument {self.arg} outside (0, pi)")

    @classmethod
    def from_point(cls, z: complex) -> "UhpLogPoint":
        z = complex(z)
        if z.imag <= 0:
            raise DomainError(f"{z!r} is not in the upper half-plane")
        return cls(math.log(abs(z)), cmath.phase(z))


def uhp_distance_log(p: UhpLogPoint, q: UhpLogPoint) -> float:
    """Hyperbolic distance (density 1/(2 Im z)) between log-form UHP points."""
    big, small = (p, q) if p.logmod >= q.logmod else (q, p)
    ell = big.logmod - small.logmod  # >= 0
    qr = math.exp(-ell) if ell < 745 else 0.0
    dth = big.arg - small.arg
    # |z1 - z2|^2 / r_big^2, in a cancellation-free form
    sep2 = (1.0 - qr) ** 2 + 4.0 * qr * math.sin(0.5 * dth) ** 2
    if sep2 == 0.0:
        return 0.0
    log_u = (ell + math.log(sep2)
             - math.log(2.0) - math.log(math.sin(p.arg)) - math.log(math.sin(q.arg)))
    if log_u > 37.0:
        # arccosh(1+u) = log(2u) + O(1/u)
        return 0.5 * (math.log(2.0) + log_u)
    return 0.5 * _arccosh1p(math.exp(log_u))


def sin_logpoint(u: complex) -> UhpLogPoint:
    """sin(u) as a log-form UHP point, robust for huge Im(u).

    Requires sin(u) to land in the open upper half-plane (as it does for u in
    the half-strip {|Re u| < pi/2, Im u > 0}).
    """
    a, b = u.real, u.imag
    if b <= 30.0:
        return UhpLogPoint.from_point(cmath.sin(u))
    return deep_sin_logpoint(a, b)


def deep_sin_logpoint(a: float, depth: float) -> UhpLogPoint:
    """sin(a + ib), for some b > 30, as a log-form UHP point whose
    log-modulus is shifted by depth - b.

    sin(a+ib) = sin(a)cosh(b) + i cos(a)sinh(b) ~ (e^b/2)(sin a + i cos a);
    relative corrections are O(e^{-2b}) < 1e-26 here.  Points whose depths
    are their b less one shared constant get the same shift, which leaves
    their distances unchanged, and keep digits that b itself, measured from
    a far-away origin, has lost.
    """
    w_dir = complex(math.sin(a), math.cos(a))
    return UhpLogPoint(depth - math.log(2.0) + math.log(abs(w_dir)),
                       cmath.phase(w_dir))


# ---------------------------------------------------------------------------
# Simply connected domains
# ---------------------------------------------------------------------------


def _check_interior(dom, w: complex, delta=None) -> float:
    """delta_Omega(w), or ``delta`` as given: a caller that measured it for
    this point vouches that w lies in the domain.  Raises where delta is
    below the machine boundary cutoff."""
    w = complex(w)
    if delta is None:
        if not dom.contains(w):
            raise DomainError(f"{w!r} is not in the domain {dom!r}")
        delta = dom.boundary_distance(w)
    if delta < BOUNDARY_CUTOFF:
        raise DomainError(f"{w!r} is numerically on the boundary (delta={delta})")
    return delta


def domain_density(dom, w: complex, delta=None) -> Interval:
    """Hyperbolic density of a simply connected domain, as an interval.

    Degenerate [v, v] when the domain's ``hyperbolic_density`` hook gives a
    value; otherwise (no closed form or exact map, or the map overflows far
    out) the two-sided bound [1/(4 delta), 1/delta].  ``delta`` is
    delta_Omega(w) where the caller has measured it; else it is measured
    here.
    """
    w = complex(w)
    delta = _check_interior(dom, w, delta)
    exact = dom.hyperbolic_density(w)
    if exact is not None:
        return Interval.exact(exact)
    return Interval.bounds(0.25 / delta, 1.0 / delta)


def domain_distance(dom, z: complex, w: complex, enclosure=None,
                    delta_z=None, delta_w=None) -> Interval:
    """Hyperbolic distance between two points of a domain, as an interval.

    Exact (degenerate) when the domain's ``hyperbolic_distance`` hook gives
    a value.  Otherwise the lower bound is (1/4) log(1 + |z-w|/r0) with
    r0 = min(delta(z), delta(w)) -- 1/2 when the domain is flagged convex --
    and the upper bound is that hook on an enclosed subdomain: supplied as
    ``enclosure``, or the domain's ``rightward_half_strip`` for horizontal
    pairs in a domain convex in the positive direction.  When no enclosure
    is available the upper endpoint is +inf.  ``delta_z`` and ``delta_w``
    are delta(z) and delta(w) where the caller has measured them; each one
    not given is measured here.
    """
    z, w = complex(z), complex(w)
    dz = _check_interior(dom, z, delta_z)
    dw = _check_interior(dom, w, delta_w)
    if z == w:
        return Interval.exact(0.0)

    exact = dom.hyperbolic_distance(z, w)
    if exact is not None:
        return Interval.exact(exact)

    c = 0.5 if dom.convex else 0.25
    r0 = min(dz, dw)
    lo = c * math.log1p(abs(z - w) / r0)

    hi = math.inf
    sub = enclosure if enclosure is not None \
        else dom.rightward_half_strip(z, w, r0)
    if sub is not None:
        if not (sub.contains(z) and sub.contains(w)):
            raise DomainError("enclosure does not contain both points")
        hi_val = sub.hyperbolic_distance(z, w)
        if hi_val is not None:
            hi = hi_val
    if hi < lo:
        # both are rigorous in exact arithmetic: reconcile float slop, and
        # raise on a larger gap, which only a wrong distance makes
        if lo - hi > RECONCILE_ULPS * math.ulp(lo):
            raise CrossValidationError(
                f"distance upper bound {hi!r} lies below its lower bound "
                f"{lo!r} for {z!r}, {w!r}",
                diagnostics={"lo": lo, "hi": hi, "enclosure": repr(sub)})
        lo = hi = 0.5 * (lo + hi)
    return Interval.bounds(lo, hi)

