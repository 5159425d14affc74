"""Hyperbolic geometry kernel (curvature -4 convention, density 1/(1-|z|^2)).

Exact values are produced where a domain kind has a closed form or an exact
Riemann map; otherwise operations return two-sided interval bounds from the
comparison with the Euclidean boundary distance (1/(4 delta) <= lambda <=
1/delta, and the log lower bound for distances, factor 1/2 on convex
domains).  Intervals use plain floating point with a documented 1e-12
relative inflation; they are audit aids, not formal enclosures.

Distances in half-planes, strips and half-strips route through an upper
half-plane kernel carried in log-modulus/argument form, so quantities like
the Example-1 half-strip value 0.5*(log sinh(1024 pi) - log sinh(992 pi))
evaluate without overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, EvaluationError, ParameterError

BOUNDARY_CUTOFF = 1e-13
_INFLATE = 1e-12


def logsinh(x: float) -> float:
    """log(sinh(x)) for x > 0 without overflow."""
    if x <= 0:
        raise ParameterError("logsinh requires a positive argument")
    return x - math.log(2.0) + math.log(-math.expm1(-2.0 * x))


def logcosh(x: float) -> float:
    """log(cosh(x)), any real x, without overflow."""
    ax = abs(x)
    return ax - math.log(2.0) + math.log1p(math.exp(-2.0 * ax))


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

    def widen(self, rel: float = _INFLATE) -> "Interval":
        lo = self.lo - rel * abs(self.lo)
        hi = self.hi + rel * abs(self.hi) if math.isfinite(self.hi) else self.hi
        return Interval(lo, hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    # monotone arithmetic (enclosure-preserving)

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    def scale(self, c: float) -> "Interval":
        if c <= 0:
            raise ParameterError("scale factor must be positive")
        return Interval(self.lo * c, self.hi * c)

    def mul(self, other: "Interval") -> "Interval":
        """Product of two nonnegative intervals."""
        if self.lo < 0 or other.lo < 0:
            raise ParameterError("mul is defined for nonnegative intervals")
        return Interval(self.lo * other.lo, self.hi * other.hi)

    def exp(self) -> "Interval":
        hi = math.inf if not math.isfinite(self.hi) else math.exp(self.hi)
        return Interval(math.exp(self.lo), hi)

    def log(self) -> "Interval":
        if self.lo <= 0:
            raise ParameterError("log requires a positive interval")
        hi = math.inf if not math.isfinite(self.hi) else math.log(self.hi)
        return Interval(math.log(self.lo), hi)

    def reciprocal(self) -> "Interval":
        if self.lo <= 0:
            raise ParameterError("reciprocal requires a positive interval")
        lo = 0.0 if not math.isfinite(self.hi) else 1.0 / self.hi
        return Interval(lo, 1.0 / self.lo)


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
    # sin(a+ib) = sin(a)cosh(b) + i cos(a)sinh(b) ~ (e^b/2)(sin a + i cos a);
    # relative corrections are O(e^{-2b}) < 1e-26 here.
    w_dir = complex(math.sin(a), math.cos(a))
    return UhpLogPoint(b - math.log(2.0) + math.log(abs(w_dir)), cmath.phase(w_dir))


# ---------------------------------------------------------------------------
# Simply connected domains
# ---------------------------------------------------------------------------


def _check_interior(dom, w: complex) -> float:
    w = complex(w)
    if not dom.contains(w):
        raise DomainError(f"{w!r} is not in the domain {dom!r}")
    delta = dom.boundary_distance(w)
    if delta < BOUNDARY_CUTOFF:
        raise DomainError(f"{w!r} is numerically on the boundary (delta={delta})")
    return delta


def domain_density(dom, w: complex) -> Interval:
    """Hyperbolic density of a simply connected domain, as an interval.

    Degenerate [v, v] when the domain has a closed form or an exact Riemann
    map; otherwise (or when the map overflows far out) the two-sided bound
    [1/(4 delta), 1/delta].
    """
    w = complex(w)
    delta = _check_interior(dom, w)
    exact = dom.hyperbolic_density(w)
    if exact is not None:
        return Interval.exact(exact)
    fmap = dom.exact_map
    if fmap is not None:
        try:
            z = fmap.evaluate(w, check=False)
            return Interval.exact(disk_density(z)
                                  * abs(fmap.derivative(w, check=False)))
        except (EvaluationError, DomainError):
            pass
    return Interval.bounds(0.25 / delta, 1.0 / delta)


def domain_distance(dom, z: complex, w: complex, enclosure=None) -> Interval:
    """Hyperbolic distance between two points of a domain, as an interval.

    Exact (degenerate) via a closed form or exact-map pullback.  Otherwise
    the lower bound is (1/4) log(1 + |z-w|/min(delta(z), delta(w))) -- 1/2
    when the domain is flagged convex -- and the upper bound comes from an
    enclosed subdomain with an exact distance: caller-supplied through
    ``enclosure``, or an automatically fitted rightward half-strip for
    horizontal pairs in a domain convex in the positive direction.  When no
    enclosure is available the upper endpoint is +inf.
    """
    z, w = complex(z), complex(w)
    dz = _check_interior(dom, z)
    dw = _check_interior(dom, w)
    if z == w:
        return Interval.exact(0.0)

    exact = dom.hyperbolic_distance(z, w)
    if exact is not None:
        return Interval.exact(exact)
    fmap = dom.exact_map
    if fmap is not None:
        try:
            return Interval.exact(disk_distance(fmap.evaluate(z, check=False),
                                                fmap.evaluate(w, check=False)))
        except (EvaluationError, DomainError):
            pass

    c = 0.5 if dom.convex else 0.25
    lo = c * math.log1p(abs(z - w) / min(dz, dw))

    hi = math.inf
    sub = enclosure if enclosure is not None else _auto_enclosure(dom, z, w)
    if sub is not None:
        if not (sub.contains(z) and sub.contains(w)):
            raise DomainError("enclosure does not contain both points")
        hi_val = sub.hyperbolic_distance(z, w)
        if hi_val is None and sub.exact_map is not None:
            hi_val = disk_distance(sub.exact_map.evaluate(z, check=False),
                                   sub.exact_map.evaluate(w, check=False))
        if hi_val is not None:
            hi = hi_val
    if hi < lo:
        # both are rigorous in exact arithmetic; reconcile fp slop
        lo = hi = 0.5 * (lo + hi)
    return Interval.bounds(lo, hi)


def _auto_enclosure(dom, z: complex, w: complex):
    """Fit a rightward half-strip around a horizontal pair, if the domain
    is (exactly) convex in the positive direction."""
    if dom.is_convex_positive_exact() is not True:
        return None
    if abs(z.imag - w.imag) > 1e-9 * max(1.0, abs(z - w)):
        return None
    from .domains import HalfStrip  # local import to avoid a cycle

    y0 = 0.5 * (z.imag + w.imag)
    x_lo, x_hi = sorted((z.real, w.real))
    try:
        r0 = min(dom.boundary_distance(complex(x_lo, y0)),
                 dom.boundary_distance(complex(x_hi, y0)))
    except DomainError:
        return None
    if r0 < BOUNDARY_CUTOFF:
        return None
    pad = 0.5 * r0
    left = x_lo - pad
    r = r0
    n = 64
    for i in range(n + 1):
        x = left + (x_hi - left) * i / n
        p = complex(x, y0)
        if not dom.contains(p):
            return None
        r = min(r, dom.boundary_distance(p))
    r *= 0.999
    if r < BOUNDARY_CUTOFF:
        return None
    # delta is non-decreasing rightward on such domains, so the half-strip
    # {Re > left, |Im - y0| < r} sits inside dom.
    return HalfStrip(left=left, half_width=r, center=y0)
