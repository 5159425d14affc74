"""Koenigs-domain library.

Canonical kinds (half-plane, strip, half-strip, disk, spiral sector) carry
exact Riemann maps and closed-form hyperbolic quantities; the slit-strip and
channel kinds answer membership and Euclidean boundary distance geometrically.
A semigroup on the unit disk checks by sampling that its Koenigs map maps
the disk onto its domain (``with_riemann_map``), and raises where a sample
shows that it does not.  A domain without a Riemann map of its own reads
hyperbolic quantities through the inverse Koenigs map that the semigroup
installs where every sample passes, and otherwise leaves them to interval
bounds.
"""

from __future__ import annotations

import cmath
import copy
import functools
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from . import hypgeo
from .confmap import Affine, Exp, MapExpr, Mobius, Power, Sin
from .errors import (DomainError, EvaluationError, InversionError,
                     ParameterError, ScenarioError, check_keys, json_float,
                     read_fields, scenario_schema)

_E = math.e

ELLIPTIC = "elliptic"
NONELLIPTIC = "nonelliptic"


def koenigs_flow(kind: str, mu: Optional[complex], w0: complex, t: float,
                 backward: bool = False) -> complex:
    """Koenigs-plane orbit at time t: w0 +/- t, or w0 exp(-/+ mu t).

    An array of times gives the complex array of the scalar calls' values,
    bit for bit: NumPy adds a float array to a complex part by part, as
    CPython does, and the elliptic formula runs once per time.  Where
    exp(-/+ mu t) leaves the float range, EvaluationError(overflow=True)."""
    if kind == NONELLIPTIC:
        return w0 - t if backward else w0 + t
    rate = mu if backward else -mu
    try:
        if isinstance(t, np.ndarray):
            return np.array([w0 * cmath.exp(rate * s) for s in t.tolist()],
                            dtype=complex)
        return w0 * cmath.exp(rate * t)
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(f"overflow evaluating the Koenigs flow of "
                              f"{w0!r} at t={t!r}", overflow=True) from exc


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


# Golden section keeps one interior point per step.  It stops when the two
# ends and the two interior points agree to 4 ulps (2^-50 relative) of the
# least, when no float is left between them, or after _MAX_STEPS steps: a
# bracket spanning the whole float range needs about 3,000.  The floats left
# inside a collapsed bracket are measured, _LEFTOVER of them at most.
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_FLAT = 2.0 ** -50
_MAX_STEPS = 4096
_LEFTOVER = 16


def dist_to_curve(w: complex, point: Callable, points: Callable,
                  s_lo: float, s_hi: float, n0: int = 600,
                  samples: Optional[tuple] = None) -> float:
    """Distance from ``w`` to a smooth parametric curve on [s_lo, s_hi].

    The curve is given twice: ``point`` maps a Python float to a complex
    through ``math``/``cmath``, and ``points`` maps a float64 array to a
    complex array through NumPy.

    The n0 samples take one ``points`` call, or are ``samples``: the pair
    (ss, points(ss)) for ss = _linspace(s_lo, s_hi, n0), which a caller
    measuring a fixed curve from many points keeps (``_log_cos_samples``).
    Each local minimum (endpoints included) is refined through ``point``
    by golden section between its neighbours; a bracket equal to the one
    before it is refined once.  The least distance measured is returned.
    A distance that is not finite counts as +inf, and ``EvaluationError``
    is raised when every one is.
    """
    if not s_hi > s_lo:
        return _finite(_sample_dist(w, point, s_lo))
    if samples is None:
        ss = _linspace(s_lo, s_hi, n0)
        samples = ss, points(ss)
    ss, cs = samples
    # distances, not squares, which overflow once |w| passes about 1e154
    with np.errstate(all="ignore"):
        d = np.abs(w - cs)
    d[~np.isfinite(d)] = math.inf
    best = float(d.min())
    # bracket local minima (including the endpoints)
    at_min = np.isfinite(d)
    at_min[1:] &= d[1:] <= d[:-1]
    at_min[:-1] &= d[:-1] <= d[1:]
    for lo, hi, d_lo, d_hi in _brackets(ss, d, np.flatnonzero(at_min)):
        best = min(best, _golden(w, point, lo, hi, d_lo, d_hi))
    return _finite(best)


def _brackets(ss: np.ndarray, d: np.ndarray, marked: np.ndarray) -> list:
    """(lo, hi, d_lo, d_hi) as Python floats for each marked sample: the
    samples either side of it, the end sample standing in at an end, and
    their distances.  A bracket equal to the one before it refines to the
    same value and is left out.

    A window narrower than n0 ulps repeats sample floats, and a run of
    equal distances marks each of its samples; there the brackets are
    formed as arrays in one pass, and the one or two minima of any other
    window are read one by one, which costs less."""
    last = len(ss) - 1
    if len(marked) > 2:
        j = np.maximum(marked - 1, 0)
        k = np.minimum(marked + 1, last)
        lo, hi = ss[j], ss[k]
        new = np.ones(len(marked), bool)
        new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        j, k = j[new], k[new]
        return list(zip(ss[j].tolist(), ss[k].tolist(), d[j].tolist(),
                        d[k].tolist()))
    out = []
    for i in marked.tolist():
        j, k = max(0, i - 1), min(last, i + 1)
        bracket = ss.item(j), ss.item(k), d.item(j), d.item(k)
        if not out or bracket[:2] != out[-1][:2]:
            out.append(bracket)
    return out


@functools.cache
def _sample_index(n: int) -> np.ndarray:
    """np.arange(n) as float64, taken once per n and kept read-only."""
    index = np.arange(n, dtype=float)
    index.flags.writeable = False
    return index


def _linspace(s_lo: float, s_hi: float, n: int) -> np.ndarray:
    """np.linspace(s_lo, s_hi, n), bit for bit, scaled from the kept
    index with NumPy's own steps: index * step, plus s_lo, and s_hi at the
    end.  Where the step underflows to 0 or leaves the float range NumPy
    takes other steps, and np.linspace runs."""
    step = (s_hi - s_lo) / (n - 1) if n > 1 else 0.0
    if step == 0.0 or not math.isfinite(step):
        return np.linspace(s_lo, s_hi, n)
    ss = _sample_index(n) * step
    ss += s_lo
    ss[-1] = s_hi
    return ss


def _golden(w: complex, point: Callable, lo: float, hi: float,
            d_lo: float, d_hi: float) -> float:
    """The least distance golden section measures inside [lo, hi], whose
    ends lie at distances d_lo and d_hi."""
    m1, m2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    d1, d2 = _sample_dist(w, point, m1), _sample_dist(w, point, m2)
    best = min(d1, d2)
    for _ in range(_MAX_STEPS):
        if not lo < m1 < m2 < hi:
            return min(best, _leftover_dist(w, point, lo, hi))
        # the least and most of the four distances, in comparisons: a call
        # of min or max costs more than a sample
        least = d_lo if d_lo < d1 else d1
        if d2 < least:
            least = d2
        if d_hi < least:
            least = d_hi
        most = d_lo if d_lo > d1 else d1
        if d2 > most:
            most = d2
        if d_hi > most:
            most = d_hi
        if most - least <= _FLAT * least:
            break
        left = d1 <= d2
        if left:
            hi, d_hi, m2, d2 = m2, d2, m1, d1
            s = m1 = hi - _GOLDEN * (hi - lo)
        else:
            lo, d_lo, m1, d1 = m1, d1, m2, d2
            s = m2 = lo + _GOLDEN * (hi - lo)
        # _sample_dist written out: a sample costs the one call of point
        try:
            d = abs(w - point(s))
        except OverflowError:
            d = math.inf
        if d != d:
            d = math.inf
        if left:
            d1 = d
        else:
            d2 = d
        if d < best:
            best = d
    return best


def _leftover_dist(w: complex, point: Callable, lo: float,
                   hi: float) -> float:
    """The least distance at the floats inside (lo, hi), _LEFTOVER of them
    at most, or +inf where there are none."""
    best = math.inf
    s = math.nextafter(lo, hi)
    for _ in range(_LEFTOVER):
        if not s < hi:
            break
        best = min(best, _sample_dist(w, point, s))
        s = math.nextafter(s, hi)
    return best


def _sample_dist(w: complex, point: Callable, s: float) -> float:
    """|w - point(s)|, or +inf where it is NaN or passes the float range:
    such a sample lies farther than any finite one."""
    try:
        d = abs(w - point(s))
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(d) else d


def _finite(d: float) -> float:
    if d == math.inf:
        raise EvaluationError("every distance to the curve leaves the float "
                              "range", overflow=True)
    return d


# ---------------------------------------------------------------------------
# base type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """A planar simply connected region.

    Subclasses implement ``contains``, ``_distance`` and ``imag_bounded``;
    ``exact_map`` (onto the unit disk) and the closed-form hyperbolic hooks
    are optional.  ``exact`` is a Riemann map of the region, not part of it:
    no constructor takes it, only ``with_riemann_map`` sets it, and
    equality, hashing and ``to_dict`` ignore it.
    """

    exact: Optional[MapExpr] = field(default=None, init=False, compare=False,
                                     repr=False)
    kind = "abstract"

    # -- core queries --------------------------------------------------

    def contains(self, w: complex) -> bool:
        raise NotImplementedError

    def boundary_distance(self, w: complex, strict: bool = True) -> float:
        w = complex(w)
        # membership too: a modulus past the float range overflows there
        try:
            if not self.contains(w):
                if strict:
                    raise DomainError(f"{w!r} is not in {self!r}")
                return 0.0
            return self._distance(w)
        except OverflowError as exc:
            raise EvaluationError(f"the boundary distance of {w!r} leaves "
                                  f"the float range", overflow=True) from exc

    def _distance(self, w: complex) -> float:
        raise NotImplementedError

    # contains over the map algebra's re/im pairs (confmap._ReIm), each
    # entry with the scalar method's bits; an entry whose scalar call
    # raises is marked a fault of the pairs.  By default the scalar method
    # runs per entry; a kind whose membership test is one expression that
    # also runs on the pairs sets contains_many = contains.

    def contains_many(self, w) -> np.ndarray:
        return w.per_entry(self.contains, bool)

    # -- optional exact structure ---------------------------------------
    # The three hyperbolic hooks give a closed form where the kind has one,
    # else the pullback through ``exact_map``, else None (no map, or the map
    # fails there), which sends callers to interval bounds.

    @property
    def exact_map(self) -> Optional[MapExpr]:
        return self.exact

    def hyperbolic_density(self, w: complex) -> Optional[float]:
        """lambda(w).  Default: lambda_D(h(w)) |h'(w)| through the exact map."""
        fmap = self.exact_map
        if fmap is None:
            return None
        try:
            z, dz = fmap.jet(complex(w), check=False)
            return hypgeo.disk_density(z) * abs(dz)
        except (EvaluationError, DomainError):
            return None

    def hyperbolic_distance(self, z: complex, w: complex) -> Optional[float]:
        """k(z, w).  Default: k_D(h(z), h(w)) through the exact map."""
        fmap = self.exact_map
        if fmap is None:
            return None
        try:
            return hypgeo.disk_distance(fmap.evaluate(complex(z), check=False),
                                        fmap.evaluate(complex(w), check=False))
        except (EvaluationError, DomainError):
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
            b, db = fmap.jet(complex(w), check=False)
            if 1.0 - abs(b) < 1e-14 or 1.0 - abs(a) < 1e-14:
                return None  # saturated pullback would freeze the kernel
            return abs(db) * hypgeo.disk_criterion_kernel(a, b)
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
        """(Im w bounded below, Im w bounded above) over the domain."""
        raise NotImplementedError

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
        """The JSON spec domain_from_dict reads back: the kind and the
        constructor fields, complex values as [re, im] and slits as
        {"x", "y"} objects; a field that is None is left out."""
        out = {"kind": self.kind}
        for f in _spec_fields(type(self)):
            v = getattr(self, f.name)
            if f.type == "complex":
                v = [complex(v).real, complex(v).imag]
            elif f.name == "slits":
                v = [{"x": x, "y": y} for x, y in v]
            elif f.type == "dict":
                v = dict(v)
            if v is not None:
                out[f.name] = v
        return out

    def truncation(self):
        """Truncation metadata recorded in downstream reports."""
        return None


def with_riemann_map(dom: Domain, koenigs: MapExpr) -> Domain:
    """dom as the domain of a semigroup whose Koenigs map koenigs has the
    unit disk as source, after one ``_riemann_verdict``: ScenarioError where
    a sample shows that koenigs does not map the disk onto dom; where every
    sample passes and dom has no Riemann map of its own, dom's copy whose
    ``exact_map`` is koenigs^{-1}; else dom as it is."""
    verdict = _riemann_verdict(dom, koenigs)
    if verdict is False:
        raise ScenarioError(f"koenigs does not map the unit disk onto the "
                            f"{dom.kind} domain")
    if verdict is None or dom.exact_map is not None:
        return dom
    out = copy.copy(dom)
    object.__setattr__(out, "exact", koenigs.inverted())
    return out


def _riemann_verdict(dom: Domain, koenigs: MapExpr):
    """Whether koenigs maps the unit disk onto dom, as far as
    _RIEMANN_SAMPLES seeded points of each tell: True where every sample
    passes, False where one shows that it does not, else None.

    At a point w of dom, koenigs^{-1}(w) must lie in the disk and pass
    ``invert``'s roundtrip, and the density it pulls back,
    1/((1 - |z|^2) |koenigs'(z)|), must lie in Koebe's [1/(4 delta),
    1/delta] that every Riemann map obeys; at a point z of the disk,
    koenigs(z) must lie in dom.  The Koebe test is what rejects a map onto
    a larger region (a strip's chain under a slit strip): near the slit its
    density stays below 1/(4 delta).

    A failed sample shows nothing where rounding may have made it fail: a
    map that overflows or whose closed form the roundtrip rejects, and a
    preimage with |1 - |z|^2| < _RIEMANN_GAP, which a scaled map gives
    (k i(1 + z)/(1 - z) for k >= 1e16 rounds the preimages of the sampled
    half-plane onto the unit circle)."""
    inconclusive = False
    for w in dom.interior_samples(_RIEMANN_SAMPLES, _RIEMANN_SEED):
        try:
            z = koenigs.invert(w, check=False)
            gap = 1.0 - abs(z) ** 2
            if gap <= 0.0:
                passed = False
            else:
                koebe = dom.boundary_distance(w) / (
                    gap * abs(koenigs.derivative(z, check=False)))
                passed = (0.25 * (1.0 - _KOEBE_SLACK) <= koebe
                          <= 1.0 + _KOEBE_SLACK)
        except (EvaluationError, InversionError, ZeroDivisionError):
            inconclusive = True
            continue
        if not passed:
            if abs(gap) >= _RIEMANN_GAP:
                return False
            inconclusive = True
    for z in unit_disk().interior_samples(_RIEMANN_SAMPLES, _RIEMANN_SEED):
        try:
            w = koenigs.evaluate(z, check=False)
        except EvaluationError:
            inconclusive = True
            continue
        if not dom.contains(w):
            return False
    return None if inconclusive else True


# _riemann_verdict's sample count and seed, the relative slack of its Koebe
# test (rounding in the density and the boundary distance), and the least
# |1 - |z|^2| at which a failed sample counts: 1 - |z|^2 carries a few ulps
# of 1 from rounding, and above 1e-6 that stays below the slack
_RIEMANN_SAMPLES = 64
_RIEMANN_SEED = 0
_KOEBE_SLACK = 1e-9
_RIEMANN_GAP = 1e-6


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
        object.__setattr__(self, "_rhp", _rhp_affine(self.orientation, self.offset))

    def _rhp_coord(self, w: complex) -> complex:
        return self._rhp.evaluate(complex(w))

    def contains(self, w: complex) -> bool:
        return self._rhp.evaluate(w).real > 0.0

    contains_many = contains

    def _distance(self, w: complex) -> float:
        return self._rhp_coord(w).real

    @property
    def exact_map(self) -> MapExpr:
        # RHP -> D Moebius, preceded by the affine normalization
        return MapExpr((self._rhp, Mobius(1, -1, 1, 1)), source=self,
                       target=unit_disk())

    def hyperbolic_density(self, w: complex) -> float:
        # 1 / (2 Re zeta) with the same bits, and not 0 where 2 Re zeta
        # overflows
        return 0.5 / self._rhp_coord(w).real

    def hyperbolic_distance(self, z: complex, w: complex) -> float:
        a, b = self._rhp_coord(z), self._rhp_coord(w)
        den = 2.0 * a.real * b.real
        try:
            num = abs(a - b) ** 2
        except OverflowError:
            num = math.inf
        tiny = sys.float_info.min
        if tiny <= num < math.inf and tiny <= den < math.inf:
            return 0.5 * hypgeo._arccosh1p(num / den)
        # u = 8 q^2 with q = |a/4 - b/4| / (sqrt(Re a) sqrt(Re b)), each
        # factor in range where the square or the product overflows or
        # underflows, and 0.5 arccosh(1 + 8 q^2) = asinh(2q)
        d = abs(0.25 * a - 0.25 * b)
        q = d / math.sqrt(a.real) / math.sqrt(b.real)
        if 2.0 * q < math.inf:
            return math.asinh(2.0 * q)
        # asinh(2q) = log(4q) + O(1/q^2), on log q, which stays in range
        # where q itself may not
        return (math.log(4.0) + math.log(d)
                - 0.5 * (math.log(a.real) + math.log(b.real)))

    def criterion_kernel(self, w0: complex, w: complex) -> Optional[float]:
        # lambda(w) e^{-2k} = 2 Re zeta0 / (|zeta0 + conj(zeta)|^2 (1+r)^2);
        # once the denominator overflows this reads 0 or NaN, so far out the
        # callers take the density and distance hooks instead
        a, b = self._rhp_coord(w0), self._rhp_coord(w)
        q = abs(a + b.conjugate())
        r = abs(a - b) / q
        den = q * q * (1.0 + r) ** 2
        return 2.0 * a.real / den if math.isfinite(den) else None

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
        return self._rhp.inverse().evaluate(zeta)


def _rhp_affine(orientation: str, offset: float) -> Affine:
    """The affine map of a half-plane onto {Re > 0}: the one orientation
    table (right: w - c, left: c - w, upper: -i(w - ic), lower: i(w - ic))."""
    if orientation == "right":
        return Affine(1.0, -offset)
    if orientation == "left":
        return Affine(-1.0, offset)
    if orientation == "upper":
        return Affine(-1j, -offset)
    return Affine(1j, offset)


@dataclass(frozen=True)
class Strip(Domain):
    half_width: float = 1.0
    center: float = 0.0

    kind = "strip"

    def __post_init__(self):
        if self.half_width <= 0:
            raise ParameterError("strip half-width must be positive")

    def contains(self, w: complex) -> bool:
        return abs(w.imag - self.center) < self.half_width

    contains_many = contains

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
        # halves first: the sum of two abscissae past 2^1023 overflows
        mid = 0.5 * complex(z).real + 0.5 * complex(w).real
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


@dataclass(frozen=True)
class HalfStrip(Domain):
    left: float = 0.0
    half_width: float = 1.0
    center: float = 0.0

    kind = "halfstrip"

    def __post_init__(self):
        if self.half_width <= 0:
            raise ParameterError("half-strip half-width must be positive")

    def contains(self, w: complex) -> bool:
        w = complex(w)
        return w.real > self.left and abs(w.imag - self.center) < self.half_width

    def _distance(self, w: complex) -> float:
        w = complex(w)
        return min(w.real - self.left,
                   self.half_width - abs(w.imag - self.center))

    def _halfstrip_coord(self, w: complex) -> complex:
        # u = i pi (w - left - i c) / (2 r): {|Re u| < pi/2, Im u > 0}
        w = complex(w)
        u = 1j * math.pi * (w - self.left - 1j * self.center) \
            / (2.0 * self.half_width)
        if not cmath.isfinite(u):
            # the same u from halves, divided before the product with pi
            u = 1j * math.pi * ((0.5 * w - 0.5 * self.left - 0.5j * self.center)
                                / self.half_width)
        return u

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
        z, w = complex(z), complex(w)
        uz, uw = self._halfstrip_coord(z), self._halfstrip_coord(w)
        if uz.imag > 30.0 and uw.imag > 30.0:
            # both deep: depths from the shared abscissa mid, as Strip does,
            # since w - left absorbs w once ulp(left) exceeds |w|
            mid = 0.5 * z.real + 0.5 * w.real
            scale = 0.5 * math.pi / self.half_width
            return hypgeo.uhp_distance_log(
                hypgeo.deep_sin_logpoint(uz.real, scale * (z.real - mid)),
                hypgeo.deep_sin_logpoint(uw.real, scale * (w.real - mid)))
        return hypgeo.uhp_distance_log(hypgeo.sin_logpoint(uz),
                                       hypgeo.sin_logpoint(uw))

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


@dataclass(frozen=True)
class Disk(Domain):
    center: complex = 0j
    radius: float = 1.0

    kind = "disk"

    def __post_init__(self):
        if self.radius <= 0:
            raise ParameterError("disk radius must be positive")

    def contains(self, w: complex) -> bool:
        return abs(w - self.center) < self.radius

    contains_many = contains

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
        # Re mu > 0: |exp(mu t) w| grows without bound, so the trace leaves
        return ("exits", None) if complex(mu).real > 0 else ("unknown", None)

    def imag_bounded(self) -> tuple:
        return (True, True)

    def _proposal(self, rng) -> complex:
        r = math.sqrt(rng.uniform(0, 1)) * self.radius * 0.999
        th = rng.uniform(-math.pi, math.pi)
        return self.center + r * cmath.exp(1j * th)


def unit_disk() -> Disk:
    return Disk(0j, 1.0)


@dataclass(frozen=True)
class SlitStrip(Domain):
    """Horizontal strip minus horizontal half-lines L[x, y] = {Re <= x, Im = y}."""

    half_width: float = 2.0
    slits: tuple = ()
    n_truncation: Optional[int] = None

    kind = "slitstrip"

    def __post_init__(self):
        if self.half_width <= 0:
            raise ParameterError("strip half-width must be positive")
        if self.n_truncation is not None and not self.slits:
            raise ParameterError("slitstrip.n_truncation labels the slits' "
                                 "truncation; a strip without slits has none")
        object.__setattr__(self, "slits", tuple((float(x), float(y))
                                                for x, y in self.slits))

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

    def truncation(self):
        return self.n_truncation


# -- channels ----------------------------------------------------------------

# The largest x whose math.exp is finite
_EXP_X_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class _NoParams:
    """The parameters of a profile that takes none."""


@dataclass(frozen=True)
class _InvLogParams:
    """The parameters of the inv_log profiles."""

    mouth_cap: float = 2.0

    def __post_init__(self):
        if self.mouth_cap <= 1.0:
            raise ParameterError("mouth cap must exceed the profile value 1 at -e")


@dataclass(frozen=True)
class Channel(Domain):
    """Channel domain defined by a named profile.

    ``Channel(profile=p, ...)`` builds p's kind, the subclass that
    ``_PROFILES`` names and that answers the hooks; ``params`` is the
    dataclass of the kind's profile parameters, whose values, defaults
    included, are ``profile_params`` and attributes of the channel.
    """

    profile: str = "inv_log"
    profile_params: dict = field(default_factory=dict)

    kind = "channel"
    params = _NoParams

    def __new__(cls, profile: str = "inv_log", *args, **kwargs):
        # a kind's own __new__ (copy, pickle) keeps the kind
        if cls is Channel:
            cls = _PROFILES.get(profile, cls)
        return super().__new__(cls)

    def __post_init__(self):
        if _PROFILES.get(self.profile) is not type(self):
            raise ParameterError(f"unknown channel profile {self.profile!r}")
        params = vars(self.params(**read_fields(
            fields(self.params), self.profile_params,
            f"{self.profile}.profile_params")))
        object.__setattr__(self, "profile_params", dict(params))
        for key, v in params.items():
            object.__setattr__(self, key, v)

    def __repr__(self) -> str:
        # every kind prints as the call that builds it
        args = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                         for f in fields(self) if f.repr)
        return f"Channel({args})"

    def is_convex_positive_exact(self) -> bool:
        # all shipped profiles have half-widths non-decreasing rightward
        return True

    def imag_bounded(self) -> tuple:
        # the shipped channels open into a half-plane or widen without bound
        return (False, False)

    def _edges_distance(self, w: complex, d: float, x_lo: float,
                        x_hi: float) -> float:
        """min(d, the distances from w to the upper edge x + i upper(x) and
        the lower edge x - i (upper(x) + lower_drop), x_lo <= x <= x_hi), for
        the two-edge kinds, whose upper(x) is >= 0 on the window.  Each
        edge is the pair of functions ``dist_to_curve`` takes: the kind's
        ``_upper_point`` and ``_upper_points``, and where it has a drop,
        ``_lower_point`` and ``_lower_points``.

        The upper edge lies in Im >= 0 and the lower one in Im <= -drop, so
        the vertical gaps max(0, -Im w) and max(0, Im w + drop) bound the
        distances to them.  The edges are measured nearest gap first, and an
        edge whose gap exceeds the running distance cannot hold the minimum.
        Without a drop the lower edge is the upper one's mirror image and is
        measured as the upper edge seen from conj(w): |w - conj c| and
        |conj w - c| round alike.  On the axis that is w itself, so one
        measurement serves both edges.
        """
        upper = self._upper_point, self._upper_points
        drop = self.lower_drop
        edges = [(max(0.0, -w.imag), w, upper)]
        if drop != 0.0:
            edges.append((max(0.0, w.imag + drop), w,
                          (self._lower_point, self._lower_points)))
        elif w.imag != 0.0:
            edges.append((max(0.0, w.imag), w.conjugate(), upper))
        edges.sort(key=lambda e: e[0])
        for gap, v, (point, points) in edges:
            # Rounding keeps |Im(v - c)| at or above the float gap, and
            # hypot, within 1 ulp, keeps |v - c| there too; the factor
            # leaves 4 ulps more before an edge counts as farther than d.
            if gap * (1.0 - 2.0 ** -50) > d:
                break
            d = min(d, dist_to_curve(v, point, points, x_lo, x_hi))
        return d


class _InvLogChannel(Channel):
    """Half-plane {Re > -1} spliced at x = -e with a 1/log channel.

    The exact profile 1/log|x| is used for x <= -e; on [-e, -1] the half-width
    blends linearly up to ``mouth_cap`` (the 1/log singularity at |x| = 1 is
    never evaluated).  The lower edge sits ``lower_drop`` below the mirror
    image of the upper one.
    """

    params = _InvLogParams
    lower_drop = 0.0

    def _upper(self, x: float) -> float:
        """Upper edge at x."""
        if x <= -_E:
            return 1.0 / math.log(-x)
        # linear blend from 1 at -e to mouth_cap at -1
        s = (x + _E) / (_E - 1.0)
        return 1.0 + s * (self.mouth_cap - 1.0)

    def _lower(self, x: float) -> float:
        return -self._upper(x) - self.lower_drop

    # the edges on x <= -e, the only part _distance samples, for a float
    # and for an array of x

    @staticmethod
    def _upper_point(x: float) -> complex:
        return complex(x, 1.0 / math.log(-x))

    @staticmethod
    def _upper_points(x: np.ndarray) -> np.ndarray:
        return x + 1j * (1.0 / np.log(-x))

    def _lower_point(self, x: float) -> complex:
        return complex(x, -(1.0 / math.log(-x)) - self.lower_drop)

    def _lower_points(self, x: np.ndarray) -> np.ndarray:
        return x + 1j * (-(1.0 / np.log(-x)) - self.lower_drop)

    def contains(self, w: complex) -> bool:
        w = complex(w)
        if w.real > -1.0:
            return True
        return self._lower(w.real) < w.imag < self._upper(w.real)

    def _distance(self, w: complex) -> float:
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
        # profile curves for x <= -e, on the window that can still matter;
        # there the upper edge has Im in (0, 1]
        x_hi = -_E
        x_lo = min(w.real - d0, x_hi - 1.0)
        return self._edges_distance(w, d0, x_lo, x_hi)

    def backward_ray_horizon(self, w: complex):
        # the leftward ray stays inside along the axis only
        if complex(w).imag == 0.0:
            return ("infinite", None)
        return ("exits", None)

    def _proposal(self, rng) -> complex:
        return complex(rng.uniform(-8.0, 4.0), rng.uniform(-3.5, 2.5))

    def truncation(self):
        return {"mouth_cap": self.mouth_cap, "lower_drop": self.lower_drop}


class _InvLogBelowChannel(_InvLogChannel):
    """The asymmetric variant, with lower edge -1 - 1/log|x|; it contains
    the strip {-1 < Im < 0}."""

    lower_drop = 1.0

    def backward_ray_horizon(self, w: complex):
        if -1.0 <= complex(w).imag <= 0.0:
            return ("infinite", None)
        return ("exits", None)


class _ExpChannel(Channel):
    """Two-sided exponential channel {|Im w| < exp(Re w)} (whole line)."""

    lower_drop = 0.0

    @staticmethod
    def _upper_point(x: float) -> complex:
        return complex(x, math.exp(x))

    @staticmethod
    def _upper_points(x: np.ndarray) -> np.ndarray:
        return x + 1j * np.exp(x)

    def contains(self, w: complex) -> bool:
        w = complex(w)
        # |y| < e^x  <=>  x > log|y|
        if w.imag == 0.0:
            return True
        return w.real > math.log(abs(w.imag))

    def _distance(self, w: complex) -> float:
        # d0, the distance to the edge point above x (above 700 past there,
        # where math.exp is still finite), bounds delta; the edges within d0
        # of w lie in x +/- d0, and beyond _EXP_X_MAX they lie farther
        x, y = w.real, abs(w.imag)
        d0 = math.exp(x) - y if x <= 700.0 else \
            math.hypot(x - 700.0, math.exp(700.0) - y)
        x_lo, x_hi = x - d0, min(x + d0, _EXP_X_MAX)
        return self._edges_distance(w, math.inf, x_lo, x_hi)

    def backward_ray_horizon(self, w: complex):
        w = complex(w)
        if w.imag == 0.0:
            return ("infinite", None)
        return ("finite", w.real - math.log(abs(w.imag)))

    def _proposal(self, rng) -> complex:
        x = rng.uniform(-4.0, 3.0)
        return complex(x, rng.uniform(-1, 1) * math.exp(x) * 0.999)


# the log-cos edge log cos(y) + i y, for a float and for an array of y

def _log_cos_point(y: float) -> complex:
    return complex(math.log(math.cos(y)), y)


def _log_cos_points(y: np.ndarray) -> np.ndarray:
    return np.log(np.cos(y)) + 1j * y


# the log-cos edge is measured on |y| <= _LOG_COS_Y from _LOG_COS_N samples
_LOG_COS_Y = 0.5 * math.pi * (1.0 - 1e-12)
_LOG_COS_N = 1200


@functools.cache
def _log_cos_samples() -> tuple:
    """dist_to_curve's samples of the log-cos edge,
    (ss, _log_cos_points(ss)), taken on the first call and kept
    read-only."""
    ss = _linspace(-_LOG_COS_Y, _LOG_COS_Y, _LOG_COS_N)
    cs = _log_cos_points(ss)
    ss.flags.writeable = cs.flags.writeable = False
    return ss, cs


class _LogCosChannel(Channel):
    """{|Im w| < pi/2, Re w > log cos(Im w)}: the strip minus a leftward
    tongue pinching at the origin.  Exact image of the unit disk under a
    Moebius/log chain (the ``channel`` builtin's Koenigs map)."""

    def contains(self, w: complex) -> bool:
        w = complex(w)
        if abs(w.imag) >= 0.5 * math.pi:
            return False
        return w.real > math.log(math.cos(w.imag))

    def contains_many(self, w) -> np.ndarray:
        # the scalar test's math.cos and math.log on each entry inside the
        # strip; an entry with a NaN part compares False on both routes
        y = w.imag
        inside = abs(y) < 0.5 * math.pi
        out = np.zeros(len(y), bool)
        cos = w.f.each(math.cos, y[inside].tolist())
        out[inside] = w.real[inside] > np.array(w.f.each(math.log, cos))
        return out

    def _distance(self, w: complex) -> float:
        d0 = 0.5 * math.pi - abs(w.imag)
        d = dist_to_curve(w, _log_cos_point, _log_cos_points, -_LOG_COS_Y,
                          _LOG_COS_Y, _LOG_COS_N, samples=_log_cos_samples())
        return min(d0, d)

    def backward_ray_horizon(self, w: complex):
        w = complex(w)
        return ("finite", w.real - math.log(math.cos(w.imag)))

    def imag_bounded(self) -> tuple:
        return (True, True)

    def _proposal(self, rng) -> complex:
        return complex(rng.uniform(-4.0, 4.0),
                       rng.uniform(-1, 1) * 0.5 * math.pi * 0.999)


# profile name -> the kind Channel(profile=name) builds
_PROFILES = {
    "inv_log": _InvLogChannel,
    "inv_log_below": _InvLogBelowChannel,
    "exp": _ExpChannel,
    "log_cos": _LogCosChannel,
}


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
        """min(|w|, the distances to the two edges exp(mu (s +/- i th))).

        The origin is a boundary point.  Edge th meets |zeta| = |w| at
        s = (log|w| + Im mu th)/Re mu, which depends on |w| alone, so w
        and its image across the cut of cmath.phase measure the same
        window, whose ends lie a factor exp(4 + 2 pi), about 28,500, in
        modulus either side of it.  Above the window the edge lies 2|w| or
        more from the origin, so no nearer to w than the origin.  The part
        below it, of modulus m or less, lies at least |w| - m from w; once
        both windows are measured, each steps down until that bound reaches
        the running distance (the edge that turns away from w reads about
        |w| alone, all of it from the part near the origin)."""
        w = complex(w)
        mu = self.mu
        r = abs(w)
        span = (4.0 + 2.0 * math.pi) / mu.real
        d = r
        windows = []
        for th in (self.half_angle, -self.half_angle):
            edge = self._edge(th)
            s_c = (math.log(r) + mu.imag * th) / mu.real
            d = min(d, dist_to_curve(w, *edge, s_c - span, s_c + span,
                                     n0=1500))
            windows.append((th, edge, s_c - span))
        for th, edge, s_lo in windows:
            # r less the modulus of the edge at s_lo
            while r - math.exp(mu.real * s_lo - mu.imag * th) < d:
                s_lo, s_hi = s_lo - 2.0 * span, s_lo
                d = min(d, dist_to_curve(w, *edge, s_lo, s_hi, n0=1500))
        return d

    def _edge(self, th: float) -> tuple:
        """The edge exp(mu (s + i th)) as dist_to_curve's point and points."""
        mu = self.mu

        def point(s: float) -> complex:
            return cmath.exp(mu * complex(s, th))

        def points(s: np.ndarray) -> np.ndarray:
            return np.exp(mu * (s + 1j * th))
        return point, points

    @property
    def exact_map(self) -> Optional[MapExpr]:
        if self.mu.imag != 0:
            return self.exact  # the sector winds; no single-branch chain
        alpha = self.mu.real * self.half_angle
        if alpha > math.pi:
            return self.exact
        return MapExpr((Power(0.5 * math.pi / alpha, 0.0), Mobius(1, -1, 1, 1)),
                       source=self, target=unit_disk())

    def is_convex_positive_exact(self) -> bool:
        """Whether the sector + t stays inside it for t >= 0.

        A real sector is {|arg w| < beta}, beta = mu half_angle.  With
        beta <= pi, adding t > 0 to w moves arg w monotonically toward 0,
        so w + t stays inside.  With beta > pi the sector is C minus {0},
        and -t + t = 0 leaves it.  A winding sector fails too: where it
        misses some direction, its complement spirals out to infinity
        and crosses the ray {w + t: t >= 0} of every w; where it covers
        C minus {0}, the ray from -1 hits 0."""
        return self.mu.imag == 0 and self.mu.real * self.half_angle <= math.pi

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


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def example1_domain(n: int = 40) -> SlitStrip:
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


def _spec_fields(cls) -> list:
    """The fields a domain's JSON spec carries, in order: those == reads."""
    return [f for f in fields(cls) if f.init and f.compare]


def domain_from_dict(data: dict) -> Domain:
    """The domain of a JSON spec {"kind": ..., <constructor fields>}; a
    malformed spec raises ScenarioError (a ParameterError)."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if not isinstance(kind, str) or kind not in _CANONICAL:
        raise ScenarioError(f"unknown domain kind {kind!r}")
    cls = _CANONICAL[kind]
    kwargs = read_fields(
        _spec_fields(cls), data, kind,
        scenario_schema()["definitions"]["domain"]["properties"], ("kind",))
    if "slits" in kwargs:
        ctx = f"{kind}.slits"
        if not isinstance(kwargs["slits"], list):
            raise ScenarioError(f"{ctx} must be a list")
        for s in kwargs["slits"]:
            check_keys(s, ("x", "y"), ("x", "y"), f"{ctx} item")
        kwargs["slits"] = tuple((json_float(s["x"], ctx), json_float(s["y"], ctx))
                                for s in kwargs["slits"])
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# sampled classification
# ---------------------------------------------------------------------------

_PROBE_TIMES = (0.1, 1.0, 10.0)
_FLOW_SAMPLES = 200


def is_convex_positive_direction(dom: Domain, seed: int = 11) -> bool:
    """Does dom + t stay inside dom?  Exact for built-in kinds."""
    exact = dom.is_convex_positive_exact()
    if exact is not None:
        return exact
    return _flow_keeps_samples(dom, NONELLIPTIC, None, seed)


def is_spirallike(dom: Domain, mu: complex, seed: int = 11) -> bool:
    """Does exp(-mu t) dom stay inside dom?  Exact for Disk(0, R) and for the
    matching spiral sector."""
    mu = complex(mu)
    if mu.real <= 0:
        raise ParameterError("spirallike check requires Re mu > 0")
    exact = dom.is_spirallike_exact(mu)
    if exact is not None:
        return exact
    return _flow_keeps_samples(dom, ELLIPTIC, mu, seed)


def _flow_keeps_samples(dom: Domain, kind: str, mu: Optional[complex],
                        seed: int) -> bool:
    """Does the forward Koenigs-plane flow keep sampled points inside dom?"""
    for w in dom.interior_samples(_FLOW_SAMPLES, seed):
        for t in _PROBE_TIMES:
            if not dom.contains(koenigs_flow(kind, mu, w, t)):
                return False
    return True
