"""Koenigs-domain library.

Canonical kinds (half-plane, strip, half-strip, disk, spiral sector) carry
exact Riemann maps and closed-form hyperbolic quantities; the slit-strip and
channel kinds answer membership and Euclidean boundary distance geometrically
and leave hyperbolic quantities to interval bounds.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import hypgeo
from .confmap import Affine, Exp, MapExpr, Mobius, Power, Sin
from .errors import DomainError, EvaluationError, ParameterError

_E = math.e

ELLIPTIC = "elliptic"
NONELLIPTIC = "nonelliptic"


def koenigs_flow(kind: str, mu: Optional[complex], w0: complex, t: float,
                 backward: bool = False) -> complex:
    """Koenigs-plane orbit at time t: w0 +/- t, or w0 exp(-/+ mu t)."""
    if kind == NONELLIPTIC:
        return w0 - t if backward else w0 + t
    return w0 * cmath.exp(mu * t if backward else -mu * t)


# ---------------------------------------------------------------------------
# distance helpers
# ---------------------------------------------------------------------------


def _dist_point_segment(w: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(w - a)
    t = ((w - a).real * ab.real + (w - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(w - (a + t * ab))


# How far one distance sample |w - c| may move between NumPy's array path
# and the scalar math/cmath path, in ulps of X = max(1, |w|, |c|).  NumPy
# documents its SIMD float64 exp, log, sin and cos within 4 ulp and glibc
# its own within 1 ulp, so the two values of one function differ by at most
# 10u relative (u = 2^-53, and uX < ulp(X)).  Carried through each curve,
# then through w - c (2u(|w| + |c|) per part that differs) and |.| (4 ulp
# and 1 ulp of d <= 2X), in units of uX:
#   exp channel    x +/- i e^x                      10 + 4 + 20 = 34
#   1/log channel  x + i(1/log(-x) - drop)          14 + 4 + 20 = 38
#   log cos        log cos y + i y                  20 + 4 + 20 = 44
#   spiral edge    e^re (cos im + i sin im)         34 + 8 + 20 = 62
# The spiral edge rounds re and im alike on both paths; each of its parts
# carries 24u relative (exp, cos or sin, and up to two products).
_SAMPLE_ULPS = 64


def dist_to_curve(w: complex, curve: Callable,
                  s_lo: float, s_hi: float, n0: int = 600,
                  tol: float = 1e-9) -> float:
    """Distance from ``w`` to a smooth parametric curve on [s_lo, s_hi].

    ``curve`` maps a float (np.float64 included) to a complex through
    ``math``/``cmath``, and an array to a complex array through NumPy.  For
    one sample the two paths round apart by at most a margin of
    ``_SAMPLE_ULPS`` ulp(max(1, |w|, |c|)).

    The n0 samples take one array call, and each array distance d stands
    for the interval d +/- 2 margin.  A sample is recomputed on the scalar
    path when it is not finite, when its interval meets a neighbour's, or
    when it meets the lowest interval.  Every other comparison decides alike
    on both paths, so the best sample and the local minima are those of
    scalar sampling, bit for bit.  Each local minimum (endpoints included)
    is refined on the scalar path by ternary search until the parameter
    interval is below ``tol`` (also in absolute distance terms for
    unit-scale data) or stops shrinking in floating point.
    """
    if not s_hi > s_lo:
        return abs(w - curve(s_lo))
    ss = np.linspace(s_lo, s_hi, n0)
    # distances, not squares, which overflow once |w| passes about 1e154
    with np.errstate(all="ignore"):
        c = curve(ss)
        d = np.abs(w - c)
        r = 2.0 * _SAMPLE_ULPS * np.spacing(
            np.maximum(max(1.0, abs(w)), np.abs(c)))
        d_lo, d_hi = d - r, d + r
    # a sample that is not finite may hold any scalar value
    bad = ~np.isfinite(d_hi)
    d_lo[bad], d_hi[bad] = -math.inf, math.inf
    redo = d_lo <= d_hi.min()
    near = (d_lo[1:] <= d_hi[:-1]) & (d_lo[:-1] <= d_hi[1:])
    redo[:-1] |= near
    redo[1:] |= near
    for i in np.flatnonzero(redo):
        d[i] = abs(w - curve(ss[i]))
    best = float(d.min())
    # bracket local minima (including the endpoints)
    at_min = np.ones(n0, dtype=bool)
    at_min[1:] &= d[1:] <= d[:-1]
    at_min[:-1] &= d[:-1] <= d[1:]
    for i in np.flatnonzero(at_min):
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


# ---------------------------------------------------------------------------
# base type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """A planar simply connected region.

    Subclasses implement ``contains`` and ``_distance``; ``exact_map`` (onto
    the unit disk) and the closed-form hyperbolic hooks are optional.
    """

    convex: bool = field(default=False, init=False)
    kind = "abstract"

    # -- core queries --------------------------------------------------

    def contains(self, w: complex) -> bool:
        raise NotImplementedError

    def boundary_distance(self, w: complex, strict: bool = True) -> float:
        w = complex(w)
        if not self.contains(w):
            if strict:
                raise DomainError(f"{w!r} is not in {self!r}")
            return 0.0
        return self._distance(w)

    def _distance(self, w: complex) -> float:
        raise NotImplementedError

    # -- optional exact structure ---------------------------------------

    @property
    def exact_map(self) -> Optional[MapExpr]:
        return None

    def hyperbolic_density(self, w: complex) -> Optional[float]:
        return None

    def hyperbolic_distance(self, z: complex, w: complex) -> Optional[float]:
        return None

    def criterion_kernel(self, w0: complex, w: complex) -> Optional[float]:
        """lambda(w) * exp(-2 k(w0, w)) with near-boundary cancellations done
        in closed form.  Default: pull back through the exact map (valid while
        the map itself does not saturate); None when only bounds exist."""
        fmap = self.exact_map
        if fmap is None:
            return None
        try:
            a = fmap.evaluate(complex(w0), check=False)
            b = fmap.evaluate(complex(w), check=False)
            if 1.0 - abs(b) < 1e-14 or 1.0 - abs(a) < 1e-14:
                return None  # saturated pullback would freeze the kernel
            return abs(fmap.derivative(complex(w), check=False)) \
                * hypgeo.disk_criterion_kernel(a, b)
        except EvaluationError:
            return None

    # -- analytic classification hooks ----------------------------------

    def is_convex_positive_exact(self) -> Optional[bool]:
        return None

    def rightward_half_strip(self, z: complex, w: complex,
                             r0: float) -> Optional[HalfStrip]:
        """A half-strip {Re > left, |Im - y0| < r} in the domain around the
        horizontal pair z, w (boundary distances >= r0), if dom + s lies in
        dom for s >= 0.  Then B(p, delta(p)) + s does too: delta does not
        decrease rightward, so the left end bounds the whole half-strip."""
        if self.is_convex_positive_exact() is not True:
            return None
        if abs(z.imag - w.imag) > 1e-9 * max(1.0, abs(z - w)):
            return None
        y0 = 0.5 * (z.imag + w.imag)
        left = min(z.real, w.real) - 0.5 * r0
        if left >= min(z.real, w.real):
            return None  # 0.5 r0 is below the float spacing of Re w
        p = complex(left, y0)
        if not self.contains(p):
            return None
        r = min(r0, self.boundary_distance(p)) * 0.999
        if r < hypgeo.BOUNDARY_CUTOFF:
            return None
        return HalfStrip(left=left, half_width=r, center=y0)

    def is_spirallike_exact(self, mu: complex) -> Optional[bool]:
        return None

    def backward_ray_horizon(self, w: complex):
        """Exit behaviour of the leftward ray {w - t: t >= 0}.

        Returns ("infinite", None), ("finite", T) with the exact exit time,
        ("exits", None) when an exit is guaranteed but located numerically,
        or ("unknown", None).
        """
        return ("unknown", None)

    def spiral_horizon(self, w: complex, mu: complex):
        """Same for the elliptic backward trace {exp(mu t) w: t >= 0}."""
        return ("unknown", None)

    def imag_bounded(self) -> tuple:
        """(Im w bounded below, Im w bounded above) over the domain.

        Default: sampled -- a member far below (above) the real axis rules
        out a lower (upper) bound."""
        above = below = False
        for x in (-7.0, 0.0, 7.0):
            for b in (1e6, 1e9):
                above = above or self.contains(complex(x, b))
                below = below or self.contains(complex(x, -b))
        return (not below, not above)

    # -- sampling & serialization ---------------------------------------

    def interior_samples(self, n: int, seed: int = 0) -> list:
        rng = np.random.default_rng(seed)
        out = []
        guard = 0
        while len(out) < n:
            w = self._proposal(rng)
            guard += 1
            if self.contains(w):
                out.append(w)
            if guard > 200 * n + 1000:
                raise ParameterError(f"interior sampling stalled for {self!r}")
        return out

    def _proposal(self, rng) -> complex:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def truncation(self):
        """Truncation metadata recorded in downstream reports."""
        return None


# ---------------------------------------------------------------------------
# kinds
# ---------------------------------------------------------------------------


_ORIENTATIONS = ("right", "left", "upper", "lower")


@dataclass(frozen=True)
class HalfPlane(Domain):
    orientation: str = "right"
    offset: float = 0.0

    kind = "halfplane"

    def __post_init__(self):
        if self.orientation not in _ORIENTATIONS:
            raise ParameterError(f"unknown half-plane orientation {self.orientation!r}")
        object.__setattr__(self, "convex", True)

    def _rhp_coord(self, w: complex) -> complex:
        w = complex(w)
        if self.orientation == "right":
            return w - self.offset
        if self.orientation == "left":
            return self.offset - w
        if self.orientation == "upper":
            return (w - 1j * self.offset) * -1j
        return (w - 1j * self.offset) * 1j

    def contains(self, w: complex) -> bool:
        return self._rhp_coord(w).real > 0.0

    def _distance(self, w: complex) -> float:
        return self._rhp_coord(w).real

    @property
    def exact_map(self) -> MapExpr:
        # RHP -> D Moebius, preceded by the affine normalization
        pre = _rhp_affine(self.orientation, self.offset)
        return MapExpr((pre, Mobius(1, -1, 1, 1)), source=self, target=unit_disk())

    def hyperbolic_density(self, w: complex) -> float:
        return 1.0 / (2.0 * self._rhp_coord(w).real)

    def hyperbolic_distance(self, z: complex, w: complex) -> float:
        a, b = self._rhp_coord(z), self._rhp_coord(w)
        u = abs(a - b) ** 2 / (2.0 * a.real * b.real)
        return 0.5 * hypgeo._arccosh1p(u)

    def criterion_kernel(self, w0: complex, w: complex) -> float:
        # lambda(w) e^{-2k} = 2 Re zeta0 / (|zeta0 + conj(zeta)|^2 (1+r)^2)
        a, b = self._rhp_coord(w0), self._rhp_coord(w)
        q = abs(a + b.conjugate())
        r = abs(a - b) / q
        return 2.0 * a.real / (q * q * (1.0 + r) ** 2)

    def is_convex_positive_exact(self) -> bool:
        return self.orientation != "left"

    def backward_ray_horizon(self, w: complex):
        if self.orientation == "right":
            return ("finite", complex(w).real - self.offset)
        return ("infinite", None)

    def imag_bounded(self) -> tuple:
        return (self.orientation == "upper", self.orientation == "lower")

    def _proposal(self, rng) -> complex:
        zeta = complex(rng.uniform(1e-3, 4.0), rng.uniform(-4.0, 4.0))
        if self.orientation == "right":
            return zeta + self.offset
        if self.orientation == "left":
            return self.offset - zeta
        if self.orientation == "upper":
            return 1j * self.offset + 1j * zeta
        return 1j * self.offset - 1j * zeta

    def to_dict(self) -> dict:
        return {"kind": self.kind, "orientation": self.orientation,
                "offset": self.offset}


def _rhp_affine(orientation: str, offset: float) -> Affine:
    if orientation == "right":
        return Affine(1.0, -offset)
    if orientation == "left":
        return Affine(-1.0, offset)
    if orientation == "upper":
        return Affine(-1j, -offset)
    return Affine(1j, -offset)


@dataclass(frozen=True)
class Strip(Domain):
    half_width: float = 1.0
    center: float = 0.0

    kind = "strip"

    def __post_init__(self):
        if self.half_width <= 0:
            raise ParameterError("strip half-width must be positive")
        object.__setattr__(self, "convex", True)

    def contains(self, w: complex) -> bool:
        return abs(complex(w).imag - self.center) < self.half_width

    def _distance(self, w: complex) -> float:
        return self.half_width - abs(complex(w).imag - self.center)

    @property
    def exact_map(self) -> MapExpr:
        # w -> tanh(pi (w - i c)/(4 a)) realized as Moebius . Exp . Affine
        a = self.half_width
        pre = Affine(0.5 * math.pi / a, -0.5j * math.pi * self.center / a)
        return MapExpr((pre, Exp(), Mobius(1, -1, 1, 1)),
                       source=self, target=unit_disk())

    def _uhp_logpoint(self, w: complex, x_shift: float) -> hypgeo.UhpLogPoint:
        w = complex(w)
        theta = 0.5 * math.pi * (w.imag - self.center + self.half_width) / self.half_width
        logr = 0.5 * math.pi * (w.real - x_shift) / self.half_width
        return hypgeo.UhpLogPoint(logr, theta)

    def hyperbolic_density(self, w: complex) -> float:
        a = self.half_width
        y = complex(w).imag - self.center
        return 0.25 * math.pi / (a * math.cos(0.5 * math.pi * y / a))

    def hyperbolic_distance(self, z: complex, w: complex) -> float:
        mid = 0.5 * (complex(z).real + complex(w).real)
        return hypgeo.uhp_distance_log(self._uhp_logpoint(z, mid),
                                       self._uhp_logpoint(w, mid))

    def criterion_kernel(self, w0: complex, w: complex) -> float:
        # both factors are individually stable here: lambda is closed-form
        # and the distance comes from the log-space kernel
        k = self.hyperbolic_distance(w0, w)
        return math.exp(math.log(self.hyperbolic_density(w)) - 2.0 * k)

    def is_convex_positive_exact(self) -> bool:
        return True

    def backward_ray_horizon(self, w: complex):
        return ("infinite", None)

    def imag_bounded(self) -> tuple:
        return (True, True)

    def _proposal(self, rng) -> complex:
        return complex(rng.uniform(-6.0, 6.0),
                       self.center + rng.uniform(-1, 1) * self.half_width * 0.999)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "half_width": self.half_width,
                "center": self.center}


@dataclass(frozen=True)
class HalfStrip(Domain):
    left: float = 0.0
    half_width: float = 1.0
    center: float = 0.0

    kind = "halfstrip"

    def __post_init__(self):
        if self.half_width <= 0:
            raise ParameterError("half-strip half-width must be positive")
        object.__setattr__(self, "convex", True)

    def contains(self, w: complex) -> bool:
        w = complex(w)
        return w.real > self.left and abs(w.imag - self.center) < self.half_width

    def _distance(self, w: complex) -> float:
        w = complex(w)
        return min(w.real - self.left,
                   self.half_width - abs(w.imag - self.center))

    def _halfstrip_coord(self, w: complex) -> complex:
        # u = i pi (w - left - i c) / (2 r): {|Re u| < pi/2, Im u > 0}
        return 1j * math.pi * (complex(w) - self.left - 1j * self.center) \
            / (2.0 * self.half_width)

    @property
    def exact_map(self) -> MapExpr:
        r = self.half_width
        scale = 1j * math.pi / (2.0 * r)
        pre = Affine(scale, -scale * (self.left + 1j * self.center))
        # sin maps the half-strip onto the UHP; (z - i)/(z + i) maps UHP -> D
        return MapExpr((pre, Sin(), Mobius(1, -1j, 1, 1j)),
                       source=self, target=unit_disk())

    def hyperbolic_density(self, w: complex) -> float:
        u = self._halfstrip_coord(w)
        scale = math.pi / (2.0 * self.half_width)
        b = u.imag
        if b <= 30.0:
            s = cmath.sin(u)
            return scale * abs(cmath.cos(u)) / (2.0 * s.imag)
        # deep in the strip: |cos u| / (2 Im sin u) -> 1/(2 cos(Re u))
        return scale / (2.0 * math.cos(u.real))

    def hyperbolic_distance(self, z: complex, w: complex) -> float:
        pz = hypgeo.sin_logpoint(self._halfstrip_coord(z))
        pw = hypgeo.sin_logpoint(self._halfstrip_coord(w))
        return hypgeo.uhp_distance_log(pz, pw)

    def criterion_kernel(self, w0: complex, w: complex) -> float:
        k = self.hyperbolic_distance(w0, w)
        return math.exp(math.log(self.hyperbolic_density(w)) - 2.0 * k)

    def is_convex_positive_exact(self) -> bool:
        return True

    def backward_ray_horizon(self, w: complex):
        return ("finite", complex(w).real - self.left)

    def imag_bounded(self) -> tuple:
        return (True, True)

    def _proposal(self, rng) -> complex:
        return complex(self.left + rng.uniform(1e-3, 6.0) * max(1.0, self.half_width),
                       self.center + rng.uniform(-1, 1) * self.half_width * 0.999)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "left": self.left,
                "half_width": self.half_width, "center": self.center}


@dataclass(frozen=True)
class Disk(Domain):
    center: complex = 0j
    radius: float = 1.0

    kind = "disk"

    def __post_init__(self):
        if self.radius <= 0:
            raise ParameterError("disk radius must be positive")
        object.__setattr__(self, "convex", True)

    def contains(self, w: complex) -> bool:
        return abs(complex(w) - self.center) < self.radius

    def _distance(self, w: complex) -> float:
        return self.radius - abs(complex(w) - self.center)

    @property
    def exact_map(self) -> Optional[MapExpr]:
        if self.center == 0 and self.radius == 1.0:
            return MapExpr((Affine(1.0, 0.0),), source=self, target=self)
        return MapExpr((Affine(1.0 / self.radius, -self.center / self.radius),),
                       source=self, target=unit_disk())

    def hyperbolic_density(self, w: complex) -> float:
        u = abs(complex(w) - self.center) / self.radius
        return 1.0 / (self.radius * (1.0 - u * u))

    def hyperbolic_distance(self, z: complex, w: complex) -> float:
        a = (complex(z) - self.center) / self.radius
        b = (complex(w) - self.center) / self.radius
        return hypgeo.disk_distance(a, b)

    def criterion_kernel(self, w0: complex, w: complex) -> float:
        a = (complex(w0) - self.center) / self.radius
        b = (complex(w) - self.center) / self.radius
        return hypgeo.disk_criterion_kernel(a, b) / self.radius

    def is_convex_positive_exact(self) -> bool:
        return False

    def is_spirallike_exact(self, mu: complex) -> Optional[bool]:
        if self.center == 0:
            return True
        return None

    def backward_ray_horizon(self, w: complex):
        w = complex(w)
        dy = w.imag - complex(self.center).imag
        reach = math.sqrt(max(self.radius ** 2 - dy ** 2, 0.0))
        return ("finite", w.real - complex(self.center).real + reach)

    def spiral_horizon(self, w: complex, mu: complex):
        if self.center == 0:
            t = math.log(self.radius / abs(complex(w))) / complex(mu).real
            return ("finite", t)
        return ("unknown", None)

    def imag_bounded(self) -> tuple:
        return (True, True)

    def _proposal(self, rng) -> complex:
        r = math.sqrt(rng.uniform(0, 1)) * self.radius * 0.999
        th = rng.uniform(-math.pi, math.pi)
        return self.center + r * cmath.exp(1j * th)

    def to_dict(self) -> dict:
        c = complex(self.center)
        return {"kind": self.kind, "center": [c.real, c.imag],
                "radius": self.radius}


def unit_disk() -> Disk:
    return Disk(0j, 1.0)


@dataclass(frozen=True)
class SlitStrip(Domain):
    """Horizontal strip minus horizontal half-lines L[x, y] = {Re <= x, Im = y}."""

    half_width: float = 2.0
    slits: tuple = ()
    n_truncation: Optional[int] = None
    exact: Optional[MapExpr] = None

    kind = "slitstrip"

    def __post_init__(self):
        if self.half_width <= 0:
            raise ParameterError("strip half-width must be positive")
        object.__setattr__(self, "convex", False)
        object.__setattr__(self, "slits", tuple((float(x), float(y))
                                                for x, y in self.slits))

    @property
    def exact_map(self) -> Optional[MapExpr]:
        return self.exact

    def contains(self, w: complex) -> bool:
        w = complex(w)
        if abs(w.imag) >= self.half_width:
            return False
        for x, y in self.slits:
            if w.imag == y and w.real <= x:
                return False
        return True

    def _distance(self, w: complex) -> float:
        w = complex(w)
        d = self.half_width - abs(w.imag)
        for x, y in self.slits:
            if w.real <= x:
                d = min(d, abs(w.imag - y))
            else:
                d = min(d, math.hypot(w.real - x, w.imag - y))
        return d

    def is_convex_positive_exact(self) -> bool:
        return True

    def backward_ray_horizon(self, w: complex):
        w = complex(w)
        hits = [x for x, y in self.slits if y == w.imag]
        if hits:
            return ("finite", w.real - max(hits))
        return ("infinite", None)

    def imag_bounded(self) -> tuple:
        return (True, True)

    def _proposal(self, rng) -> complex:
        span = max((abs(x) for x, _ in self.slits), default=4.0)
        return complex(rng.uniform(-1.5 * span, 4.0),
                       rng.uniform(-1, 1) * self.half_width * 0.999)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "half_width": self.half_width,
             "slits": [{"x": x, "y": y} for x, y in self.slits]}
        if self.n_truncation is not None:
            d["n_truncation"] = self.n_truncation
        return d

    def truncation(self):
        return self.n_truncation


# -- channel profiles --------------------------------------------------------

# The largest x whose math.exp is finite
_EXP_X_MAX = math.log(sys.float_info.max)


def _graph(x, y):
    """x + i y: a Python complex for a float x, a NumPy array for an array."""
    return complex(x, y) if isinstance(x, float) else x + 1j * y


def _exp(x):
    return math.exp(x) if isinstance(x, float) else np.exp(x)


def _log_cos(y):
    if isinstance(y, float):
        return math.log(math.cos(y))
    return np.log(np.cos(y))


class _Profile:
    """Boundary description of a channel kind: membership + boundary parts."""

    name = "abstract"

    def contains(self, w: complex) -> bool:
        raise NotImplementedError

    def distance(self, w: complex) -> float:
        raise NotImplementedError

    def ray_horizon(self, w: complex):
        raise NotImplementedError

    def imag_bounded(self) -> tuple:
        # the shipped channels open into a half-plane or widen without bound
        return (False, False)

    def params(self) -> dict:
        return {}


class _SplicedLogProfile(_Profile):
    """Half-plane {Re > -1} spliced at x = -e with a 1/log channel.

    The exact profile 1/log|x| is used for x <= -e; on [-e, -1] the half-width
    blends linearly up to ``mouth_cap`` (the 1/log singularity at |x| = 1 is
    never evaluated).  ``lower_drop`` = 1 gives the asymmetric variant with
    lower edge -1 - 1/log|x|.
    """

    def __init__(self, mouth_cap: float = 2.0, lower_drop: float = 0.0):
        if mouth_cap <= 1.0:
            raise ParameterError("mouth cap must exceed the profile value 1 at -e")
        self.mouth_cap = float(mouth_cap)
        self.lower_drop = float(lower_drop)
        self.name = "inv_log" if lower_drop == 0.0 else "inv_log_below"

    def _upper(self, x):
        """Upper edge at x; an array of x takes NumPy and must lie in
        x <= -e, the only part ``distance`` samples."""
        if not isinstance(x, float):
            return 1.0 / np.log(-x)
        if x <= -_E:
            return 1.0 / math.log(-x)
        # linear blend from 1 at -e to mouth_cap at -1
        s = (x + _E) / (_E - 1.0)
        return 1.0 + s * (self.mouth_cap - 1.0)

    def _lower(self, x):
        return -self._upper(x) - self.lower_drop

    def contains(self, w: complex) -> bool:
        w = complex(w)
        if w.real > -1.0:
            return True
        return self._lower(w.real) < w.imag < self._upper(w.real)

    def distance(self, w: complex) -> float:
        w = complex(w)
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

    def ray_horizon(self, w: complex):
        y = complex(w).imag
        if self.lower_drop == 0.0:
            if y == 0.0:
                return ("infinite", None)
        else:
            if -1.0 <= y <= 0.0:
                return ("infinite", None)
        return ("exits", None)

    def proposal(self, rng) -> complex:
        return complex(rng.uniform(-8.0, 4.0), rng.uniform(-3.5, 2.5))

    def params(self) -> dict:
        return {"mouth_cap": self.mouth_cap, "lower_drop": self.lower_drop}


class _ExpProfile(_Profile):
    """Two-sided exponential channel {|Im w| < exp(Re w)} (whole line)."""

    name = "exp"

    def contains(self, w: complex) -> bool:
        w = complex(w)
        # |y| < e^x  <=>  x > log|y|
        if w.imag == 0.0:
            return True
        return w.real > math.log(abs(w.imag))

    def distance(self, w: complex) -> float:
        w = complex(w)
        d0 = math.exp(min(w.real, 700.0)) - abs(w.imag)
        # beyond _EXP_X_MAX the edges lie farther than d0 and math.exp
        # overflows
        x_hi = min(w.real + d0, _EXP_X_MAX)
        x_lo = w.real - d0
        d = dist_to_curve(w, lambda x: _graph(x, _exp(x)), x_lo, x_hi)
        return min(d, dist_to_curve(w, lambda x: _graph(x, -_exp(x)), x_lo, x_hi))

    def ray_horizon(self, w: complex):
        w = complex(w)
        if w.imag == 0.0:
            return ("infinite", None)
        return ("finite", w.real - math.log(abs(w.imag)))

    def proposal(self, rng) -> complex:
        x = rng.uniform(-4.0, 3.0)
        return complex(x, rng.uniform(-1, 1) * math.exp(x) * 0.999)


class _LogCosProfile(_Profile):
    """{|Im w| < pi/2, Re w > log cos(Im w)}: the strip minus a leftward
    tongue pinching at the origin.  Exact image of the unit disk under a
    Moebius/log chain, so it supports an exact map (set by the caller)."""

    name = "log_cos"

    def contains(self, w: complex) -> bool:
        w = complex(w)
        if abs(w.imag) >= 0.5 * math.pi:
            return False
        return w.real > math.log(math.cos(w.imag))

    def distance(self, w: complex) -> float:
        w = complex(w)
        d0 = 0.5 * math.pi - abs(w.imag)
        y_max = 0.5 * math.pi * (1.0 - 1e-12)
        y_lo, y_hi = -y_max, y_max
        d = dist_to_curve(w, lambda y: _graph(_log_cos(y), y),
                          y_lo, y_hi, n0=1200)
        return min(d0, d)

    def ray_horizon(self, w: complex):
        w = complex(w)
        return ("finite", w.real - math.log(math.cos(w.imag)))

    def imag_bounded(self) -> tuple:
        return (True, True)

    def proposal(self, rng) -> complex:
        return complex(rng.uniform(-4.0, 4.0),
                       rng.uniform(-1, 1) * 0.5 * math.pi * 0.999)


_PROFILES = {
    "inv_log": lambda p: _SplicedLogProfile(p.get("mouth_cap", 2.0), 0.0),
    "inv_log_below": lambda p: _SplicedLogProfile(p.get("mouth_cap", 2.0), 1.0),
    "exp": lambda p: _ExpProfile(),
    "log_cos": lambda p: _LogCosProfile(),
}


@dataclass(frozen=True)
class Channel(Domain):
    """Channel domain defined by a named profile."""

    profile: str = "inv_log"
    profile_params: dict = field(default_factory=dict)
    exact: Optional[MapExpr] = None

    kind = "channel"

    def __post_init__(self):
        if self.profile not in _PROFILES:
            raise ParameterError(f"unknown channel profile {self.profile!r}")
        object.__setattr__(self, "convex", False)
        object.__setattr__(self, "_impl", _PROFILES[self.profile](self.profile_params))

    def contains(self, w: complex) -> bool:
        return self._impl.contains(w)

    def _distance(self, w: complex) -> float:
        return self._impl.distance(w)

    @property
    def exact_map(self) -> Optional[MapExpr]:
        return self.exact

    def is_convex_positive_exact(self) -> bool:
        # all shipped profiles have half-widths non-decreasing rightward
        return True

    def backward_ray_horizon(self, w: complex):
        return self._impl.ray_horizon(w)

    def imag_bounded(self) -> tuple:
        return self._impl.imag_bounded()

    def _proposal(self, rng) -> complex:
        return self._impl.proposal(rng)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "profile": self.profile,
                "profile_params": dict(self.profile_params)}

    def truncation(self):
        return self._impl.params() or None


@dataclass(frozen=True)
class SpiralSector(Domain):
    """{exp(mu (s + i th)) : s real, |th| < half_angle}; a sector when mu is real."""

    mu: complex = 1.0 + 0j
    half_angle: float = 0.5 * math.pi

    kind = "spiralsector"

    def __post_init__(self):
        mu = complex(self.mu)
        if mu.real <= 0:
            raise ParameterError("spiral sector requires Re mu > 0")
        if not 0 < self.half_angle <= math.pi:
            raise ParameterError("half-angle must be in (0, pi]")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "convex", False)

    def _theta(self, w: complex, k: int) -> float:
        # Im((Log w + 2 pi i k)/mu)
        w = complex(w)
        a = math.log(abs(w))
        b = cmath.phase(w) + 2.0 * math.pi * k
        mu = self.mu
        return (b * mu.real - a * mu.imag) / abs(mu) ** 2

    def contains(self, w: complex) -> bool:
        w = complex(w)
        if w == 0:
            return False
        mu = self.mu
        # solve theta(k) = 0 for the branch index and scan neighbours
        a = math.log(abs(w))
        b0 = cmath.phase(w)
        k0 = (a * mu.imag / mu.real - b0) / (2.0 * math.pi)
        for k in range(math.floor(k0) - 1, math.floor(k0) + 3):
            if abs(self._theta(w, k)) < self.half_angle:
                return True
        return False

    def _distance(self, w: complex) -> float:
        w = complex(w)
        mu = self.mu
        s_c = (math.log(abs(w)) * mu.real
               + (cmath.phase(w)) * mu.imag) / abs(mu) ** 2
        span = (4.0 + 2.0 * math.pi) / mu.real
        d = math.inf
        for th in (self.half_angle, -self.half_angle):
            d = min(d, dist_to_curve(w, lambda s: self._edge(s, th),
                                     s_c - span, s_c + span, n0=1500))
        return d

    def _edge(self, s, th: float):
        """exp(mu (s + i th)): cmath for a float s, NumPy for an array.  The
        array path rounds the parts of mu (s + i th) as the scalar complex
        product does, and exponentiates them as cmath.exp does."""
        mu = self.mu
        if isinstance(s, float):
            return cmath.exp(mu * complex(s, th))
        re = mu.real * s - mu.imag * th
        im = mu.real * th + mu.imag * s
        mod = np.exp(re)
        return mod * np.cos(im) + 1j * (mod * np.sin(im))

    @property
    def exact_map(self) -> Optional[MapExpr]:
        if self.mu.imag != 0:
            return None  # the sector winds; no single-branch chain exists
        alpha = self.mu.real * self.half_angle
        if alpha > math.pi:
            return None
        return MapExpr((Power(0.5 * math.pi / alpha, 0.0), Mobius(1, -1, 1, 1)),
                       source=self, target=unit_disk())

    def is_convex_positive_exact(self) -> Optional[bool]:
        if self.mu.imag == 0:
            return self.mu.real * self.half_angle <= 0.5 * math.pi
        return None

    def is_spirallike_exact(self, mu: complex) -> Optional[bool]:
        if complex(mu) == self.mu:
            return True
        return None

    def spiral_horizon(self, w: complex, mu: complex):
        if complex(mu) == self.mu:
            return ("infinite", None)
        return ("unknown", None)

    def imag_bounded(self) -> tuple:
        # as s -> +inf the curves exp(mu (s +/- i th)) with small th > 0
        # reach Im w -> +inf and -inf (straight rays when mu is real)
        return (False, False)

    def _proposal(self, rng) -> complex:
        s = rng.uniform(-2.0, 2.0)
        th = rng.uniform(-1, 1) * self.half_angle * 0.999
        return cmath.exp(self.mu * complex(s, th))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "mu": [self.mu.real, self.mu.imag],
                "half_angle": self.half_angle}


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def example1_domain(n: int) -> SlitStrip:
    """Strip {|Im| < 2} minus the slits L[-2^k, 1/k] and L[-2^k, -1/k], k<=n."""
    if n < 1:
        raise ParameterError("need at least one slit pair")
    if n > 60:
        raise ParameterError("truncation capped at 60 (2^n abscissa overflow)")
    slits = []
    for k in range(1, n + 1):
        x = -float(2 ** k)
        slits.append((x, 1.0 / k))
        slits.append((x, -1.0 / k))
    return SlitStrip(half_width=2.0, slits=tuple(slits), n_truncation=n)


def example2_domain(mouth_cap: float = 2.0) -> Channel:
    """Half-plane {Re > -1} spliced with the channel |Im| < 1/log|x|."""
    return Channel(profile="inv_log", profile_params={"mouth_cap": mouth_cap})


def example3_domain(mouth_cap: float = 2.0) -> Channel:
    """Asymmetric variant: -1 - 1/log|x| < Im < 1/log|x|; contains the strip
    {-1 < Im < 0}."""
    return Channel(profile="inv_log_below", profile_params={"mouth_cap": mouth_cap})


def exp_channel_domain() -> Channel:
    return Channel(profile="exp")


_CANONICAL = {
    "halfplane": HalfPlane,
    "strip": Strip,
    "halfstrip": HalfStrip,
    "slitstrip": SlitStrip,
    "channel": Channel,
    "spiralsector": SpiralSector,
    "disk": Disk,
}


def canonical_domain(kind: str, **params) -> Domain:
    if kind not in _CANONICAL:
        raise ParameterError(f"unknown domain kind {kind!r}")
    return _CANONICAL[kind](**params)


def domain_from_dict(data: dict) -> Domain:
    data = dict(data)
    kind = data.pop("kind", None)
    if kind not in _CANONICAL:
        raise ParameterError(f"unknown domain kind {kind!r}")
    if kind == "disk" and "center" in data:
        c = data["center"]
        data["center"] = complex(c[0], c[1]) if isinstance(c, list) else complex(c)
    if kind == "spiralsector" and "mu" in data:
        m = data["mu"]
        data["mu"] = complex(m[0], m[1]) if isinstance(m, list) else complex(m)
    if kind == "slitstrip" and "slits" in data:
        data["slits"] = tuple((s["x"], s["y"]) for s in data["slits"])
    return _CANONICAL[kind](**data)


# ---------------------------------------------------------------------------
# sampled classification
# ---------------------------------------------------------------------------

_PROBE_TIMES = (0.1, 1.0, 10.0)


def is_convex_positive_direction(dom: Domain, sample_budget: int = 200,
                                 seed: int = 11) -> bool:
    """Does dom + t stay inside dom?  Exact for built-in kinds."""
    exact = dom.is_convex_positive_exact()
    if exact is not None:
        return exact
    return _flow_keeps_samples(dom, NONELLIPTIC, None, sample_budget, seed)


def is_spirallike(dom: Domain, mu: complex, sample_budget: int = 200,
                  seed: int = 11) -> bool:
    """Does exp(-mu t) dom stay inside dom?  Exact for Disk(0, R) and for the
    matching spiral sector."""
    mu = complex(mu)
    if mu.real <= 0:
        raise ParameterError("spirallike check requires Re mu > 0")
    exact = dom.is_spirallike_exact(mu)
    if exact is not None:
        return exact
    return _flow_keeps_samples(dom, ELLIPTIC, mu, sample_budget, seed)


def _flow_keeps_samples(dom: Domain, kind: str, mu: Optional[complex],
                        sample_budget: int, seed: int) -> bool:
    """Does the forward Koenigs-plane flow keep sampled points inside dom?"""
    for w in dom.interior_samples(sample_budget, seed):
        for t in _PROBE_TIMES:
            if not dom.contains(koenigs_flow(kind, mu, w, t)):
                return False
    return True
