"""Rectifiability and Lipschitz analysis of semigroup orbits.

Length audits, forward Lipschitz certificates, the hyperbolic-ratio backward
criterion with interval bounds and three-valued verdicts, regularity and
shift classification, Ahlfors-regularity measurement of spiral traces, and
bi-Lipschitz probes.

A finite sample cannot decide a limsup, so verdicts certify bounds and
detect trends; the heuristic knobs (tail window, growth factor per decade,
absolute threshold) are explicit and recorded in every report.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import hypgeo, quadpack
from .confmap import complex_abs
from .domains import Domain
from .errors import DiskflowError, DomainError, EvaluationError, ParameterError
from .hypgeo import Interval
from .semigroup import (ELLIPTIC, NONELLIPTIC, Horizon, OrbitSample,
                        Semigroup, T_MAX_PROBE, koenigs_flow, koenigs_horizon)
# re-exported because bench/tracer.py patches analysis.exit_time by name
from .semigroup import exit_time  # noqa: F401

CERTIFIED = "Certified"
REFUTED_TREND = "RefutedTrend"
INCONCLUSIVE = "Inconclusive"


# ---------------------------------------------------------------------------
# heuristics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Heuristic:
    """Verdict knobs: tail window size, refutation growth factor per decade,
    absolute refutation threshold, and the monotonicity tolerance used when
    deciding that a converged tail is non-increasing."""

    window: int = 5
    growth_factor: float = 1.2
    abs_threshold: float = 1.0e3
    monotone_rel_tol: float = 1.0e-9

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_HEURISTIC = Heuristic()


# ---------------------------------------------------------------------------
# backward tracks (map-backed or Koenigs-plane only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitTrack:
    """Backward-orbit handle: the Koenigs-plane trace plus, when a Koenigs
    map is available, generator moduli along the orbit."""

    omega: Domain
    w0: complex
    kind: str
    mu: Optional[complex] = None
    semigroup: Optional[Semigroup] = None
    z: Optional[complex] = None
    label: str = ""

    @classmethod
    def from_semigroup(cls, sg: Semigroup, z: complex,
                       label: str = "") -> "OrbitTrack":
        return cls(omega=sg.omega, w0=sg.koenigs_image(z), kind=sg.kind,
                   mu=sg.mu, semigroup=sg, z=complex(z),
                   label=label or sg.name)

    @classmethod
    def from_omega(cls, omega: Domain, w0: complex, kind: str = NONELLIPTIC,
                   mu: Optional[complex] = None, label: str = "") -> "OrbitTrack":
        if kind == ELLIPTIC and (mu is None or complex(mu).real <= 0):
            raise ParameterError("elliptic tracks need Re mu > 0")
        return cls(omega=omega, w0=complex(w0), kind=kind,
                   mu=complex(mu) if mu is not None else None, label=label)

    def w(self, t: float) -> complex:
        return koenigs_flow(self.kind, self.mu, self.w0, t, backward=True)

    def horizon(self) -> Horizon:
        # from the track's own w0 (which may be pinned exactly on a ray of
        # symmetry), never recomputed through the map
        return koenigs_horizon(self.omega, self.kind, self.mu, self.w0)

    def g_abs(self, t: float) -> Optional[float]:
        if self.semigroup is None:
            return None
        return abs(self.semigroup.generator_at_w(self.w(t)))

    def z_modulus(self) -> Optional[float]:
        """|z| for the generator sandwich, which reads it as a disk modulus:
        None without a start point or off a unit-disk source."""
        if self.z is None or not self.semigroup.disk_source:
            return None
        return abs(self.z)


def backward_tail_grid(track: OrbitTrack, t_max: float = T_MAX_PROBE) -> list:
    """(t, delta_Omega(w(t))) pairs at times accumulating at the horizon:
    t_j = T (1 - 2^-j), j <= 45, for finite T, the doubling times up to
    ``t_max`` otherwise, walked by ``probe_schedule``.  The first pair is
    t = 0, with delta None where w0 is not a finite point of the domain.
    Each delta is the one the probe measured, for callers to reuse instead
    of measuring it again."""
    probe0 = _probe(track.omega, track.w, 0.0)
    horizon = track.horizon()
    if horizon.finite:
        times = (horizon.value * (1.0 - 2.0 ** -j) for j in range(1, 46))
    else:
        times = doubling(1.0, t_max)
    return [(0.0, None if probe0 is None else probe0[0]),
            *probe_schedule(track.omega, track.w, times)]


def doubling(start: float, t_max: float):
    """The doubling times start, 2 start, 4 start, ... up to ``t_max``,
    ending before the first that is not finite."""
    t = start
    while t <= t_max and math.isfinite(t):
        yield t
        t *= 2.0


def probe_schedule(omega: Domain, path: Callable[[float], complex],
                   times: Iterable[float], collapse: bool = False):
    """(t, delta_Omega(w(t))) along the Koenigs-plane path w(t) at the
    increasing positive ``times``; a time not above the one before it is
    skipped, so a stream that names a time twice probes it once.

    The one stop rule of every tail probe after t = 0: w(t) is a usable
    point of the domain (see ``_probe``).  With ``collapse`` the first
    point of the domain that is not usable ends the schedule as its last
    item.  Each yielded delta is measured once, and callers pass it on
    instead of measuring it again."""
    last = 0.0
    for t in times:
        if t <= last:
            continue
        last = t
        probe = _probe(omega, path, t)
        if probe is None:
            return
        delta, usable = probe
        if usable or collapse:
            yield t, delta
        if not usable:
            return


def _probe(omega: Domain, path: Callable[[float], complex],
           t: float) -> Optional[tuple]:
    """(delta_Omega(w(t)), usable) when t is finite and w(t) is a point of
    the domain with a finite modulus, else None.  Usable: delta is at least
    the machine boundary cutoff and above four float spacings of |w(t)|, so
    distance bounds and enclosure fits still resolve the point."""
    if not math.isfinite(t):
        return None
    try:
        w = path(t)
        if not (cmath.isfinite(w) and omega.contains(w)):
            return None
        delta = omega.boundary_distance(w)
        usable = (delta >= hypgeo.BOUNDARY_CUTOFF
                  and delta > 4.0 * math.ulp(abs(w)))
    except (OverflowError, DiskflowError):
        # a flow past the float range (EvaluationError), or finite parts
        # whose modulus is not: abs(w) raises OverflowError
        return None
    return delta, usable


# ---------------------------------------------------------------------------
# arc length
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArcLength:
    value: float
    converged: bool  # QUADPACK's verdict: ier 0, and the value is finite
    abserr: float
    ier: int  # QUADPACK's return code, numbered as SciPy does (quadpack.quad)


def arc_length(g_abs: Callable[[float], float], t0: float,
               t1: float) -> ArcLength:
    """Length of an orbit piece as the integral of |G(gamma(t))| dt by
    ``quadpack.quad``, the package's port of QUADPACK's QAGS (finite span)
    and QAGI ([t0, inf)).  Its epsilon-algorithm extrapolation keeps a
    length finite and accurate when |G| blows up at an end, as on a
    backward orbit that is not Lipschitz.  The length is converged when
    QUADPACK returns ier 0 with a finite value; its divergence test flags
    a tail that decays too slowly."""
    value, abserr, ier = quadpack.quad(g_abs, t0, t1)
    return ArcLength(value, ier == 0 and math.isfinite(value), abserr, ier)


HAYMAN_WU_BOUND = 4.0 * math.pi


def hayman_wu_audit(sg: Semigroup, z: complex) -> dict:
    """Full-orbit length against the 4*pi line-preimage bound, a theorem
    about the unit disk.  It passes only when both pieces converged."""
    if sg.kind != NONELLIPTIC:
        raise ParameterError("the line-preimage audit applies to non-elliptic "
                             "semigroups")
    if not sg.disk_source:
        raise ParameterError("the line-preimage audit needs the unit disk "
                             "as source")
    w0 = sg.koenigs_image(z)
    horizon = sg.backward_horizon(z)
    g_fwd = lambda t: abs(sg.generator_at_w(sg.ray_w(w0, t)))
    g_bwd = lambda t: abs(sg.generator_at_w(sg.ray_w(w0, t, backward=True)))
    fwd = arc_length(g_abs=g_fwd, t0=0.0, t1=math.inf)
    bwd = arc_length(g_abs=g_bwd, t0=0.0, t1=horizon.value)
    length = fwd.value + bwd.value
    return {"length": length, "bound": HAYMAN_WU_BOUND,
            "pass": (fwd.converged and bwd.converged
                     and length <= HAYMAN_WU_BOUND + 1e-6),
            "forward": fwd, "backward": bwd, "horizon": horizon.value}


# ---------------------------------------------------------------------------
# Lipschitz quotients and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quotient:
    value: float
    pairs: int
    skipped: int


def lipschitz_quotient(sample: Callable[[np.ndarray], np.ndarray],
                       t0: float, t1: float) -> Quotient:
    """sup |gamma(t) - gamma(s)| / |t - s| over a log-spaced family of pairs
    (consecutive pairs of 60 offsets from each end, and adjacent fine pairs
    at relative step 1e-7).

    ``sample`` maps the distinct times of the pairs (one float64 array, in
    the order the pairs first use them) to gamma at those times (a complex
    array) in one call.  Samples that are NaN or otherwise not finite (e.g.
    past an overflow horizon) are skipped and counted.  An interval with an
    end that is not finite, or too short to hold one pair of times
    0.5e-7 max(1, |t|) apart, raises ParameterError.
    """
    plan = _pair_plan(t0, t1)
    return plan.quotient(sample(plan.times))


@dataclass(frozen=True)
class _PairPlan:
    """The pairs of lipschitz_quotient on one interval: its distinct
    ``times`` in the order the pairs first use them, and per pair the
    indices ``first``/``second`` of its two times and its ``step``."""

    times: np.ndarray
    first: np.ndarray
    second: np.ndarray
    step: np.ndarray

    def quotient(self, vals: np.ndarray) -> Quotient:
        """The Quotient of the samples ``vals`` at ``times`` (complex; a
        sample that is not finite, NaN for None, is skipped), with the bits
        of the scalar sup over |vb - va| / step."""
        ok = np.isfinite(vals.real) & np.isfinite(vals.imag)
        both = ok[self.first] & ok[self.second]
        a, b = vals[self.first[both]], vals[self.second[both]]
        with np.errstate(all="ignore"):
            dist, overflow = complex_abs(b.real - a.real, b.imag - a.imag)
            if overflow.any():
                raise EvaluationError("overflow in a Lipschitz quotient",
                                      overflow=True)
            q = dist / self.step[both]
        sup = float(q.max()) if q.size else 0.0
        return Quotient(max(0.0, sup), int(both.sum()), int((~ok).sum()))


# plans kept by _pair_plan: a run uses a handful of intervals
_PLAN_CACHE = 32


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _pair_plan(t0: float, t1: float) -> _PairPlan:
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ParameterError("the Lipschitz interval needs finite ends")
    if not t1 > t0:
        raise ParameterError("need a nondegenerate interval")
    span = t1 - t0
    fine_step = 1e-7
    offs = np.geomspace(max(span * 1e-9, 1e-9), span, 60)
    raw = {t0, t1}
    raw.update(float(t0 + o) for o in offs)      # dense toward t0
    raw.update(float(t1 - o) for o in offs)      # dense toward t1
    ts = []
    for t in sorted(raw):
        # drop near-duplicates: quotients over ulp-scale separations would
        # measure rounding noise, not the curve
        if ts and t - ts[-1] < 0.5 * fine_step * max(1.0, abs(t)):
            continue
        ts.append(t)
    # (a, b, b - a): consecutive pairs, then the adjacent pair at relative
    # step 1e-7 from each t
    steps = [(a, b, b - a) for a, b in zip(ts, ts[1:])]
    for t in ts:
        h = fine_step * max(1.0, abs(t))
        a, b = (t, t + h) if t + h <= t1 else (t - h, t)
        if a >= t0:
            steps.append((a, b, h))
    if not steps:
        raise ParameterError(
            f"[{t0!r}, {t1!r}] holds no pair of times "
            f"{0.5 * fine_step:g} max(1, |t|) apart")
    index = {}
    for a, b, _ in steps:
        index.setdefault(a, len(index))
        index.setdefault(b, len(index))
    plan = _PairPlan(np.array(list(index), dtype=float),
                     np.array([index[a] for a, _, _ in steps], dtype=np.intp),
                     np.array([index[b] for _, b, _ in steps], dtype=np.intp),
                     np.array([h for _, _, h in steps], dtype=float))
    for arr in (plan.times, plan.first, plan.second, plan.step):
        arr.flags.writeable = False
    return plan


@dataclass(frozen=True)
class Certificate:
    constant: float
    measured: float
    passed: bool


def forward_certificate(sg: Semigroup, z: complex) -> Certificate:
    """Forward-orbit Lipschitz certificate.

    Non-elliptic constant: 1/delta_Omega(h(z)).  Elliptic constant:
    |mu h(z)| / dist(orbit image, boundary), the distance in closed form
    where the domain has one (``Domain.spiral_gap``), else over a refined
    polyline of the image spiral.  The quotient measured over [0, 100] must
    not exceed the certificate by more than 5%.
    """
    w0 = sg.koenigs_image(z)
    if sg.kind == NONELLIPTIC:
        constant = 1.0 / sg.omega.boundary_distance(w0)
    else:
        gap = sg.omega.spiral_gap(w0, sg.mu)
        if gap is None:
            gap = _spiral_image_gap(sg.omega, w0, sg.mu)
        constant = abs(sg.mu * w0) / gap
    # every sample time in one array pullback (NaN where the step raises
    # EvaluationError, which the quotient skips)
    measured = lipschitz_quotient(lambda ts: sg.phi_from_image(ts, w0),
                                  0.0, 100.0).value
    return Certificate(constant, measured, measured <= constant * (1.0 + 5e-2))


def _spiral_image_gap(omega: Domain, w0: complex, mu: complex) -> float:
    """dist(gamma([0, inf)) image, boundary) for the spiral exp(-mu t) w0,
    by polyline refinement (doubling the density until stable)."""
    t_end = (math.log(max(abs(w0), 1e-12)) - math.log(1e-12)) / mu.real
    n = 256
    prev = None
    while True:
        ts = np.linspace(0.0, t_end, n)
        gap = min(omega.boundary_distance(koenigs_flow(ELLIPTIC, mu, w0, t),
                                          strict=False)
                  for t in ts)
        gap = min(gap, omega.boundary_distance(0j, strict=False))
        if prev is not None and abs(gap - prev) <= 1e-9 * max(1.0, gap):
            return gap
        prev = gap
        n *= 2
        if n > 65536:
            return gap


# ---------------------------------------------------------------------------
# backward generator tail and criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorTail:
    sup_tail: float
    trend: str  # "increasing" | "decreasing" | "flat" | "mixed"
    diverging: bool
    samples: tuple


def generator_tail(report: CriterionReport) -> GeneratorTail:
    """|G| along the backward orbit, read from the samples of a
    map-backed criterion report, whose heuristic sets the tail window and
    thresholds; a mapless report has no |G| to read."""
    samples = tuple((s.t, s.g_abs) for s in report.samples)
    if any(g is None for _, g in samples):
        raise ParameterError("the generator tail needs a map-backed "
                             "criterion report")
    heuristic = report.heuristic
    tail = [g for _, g in samples[-heuristic.window:]]
    trend = _trend(tail, heuristic.monotone_rel_tol)
    sup_tail = max(tail)
    diverging = trend == "increasing" and sup_tail > heuristic.abs_threshold
    return GeneratorTail(sup_tail, trend, diverging, samples)


def _trend(values: Sequence[float], rel_tol: float) -> str:
    inc = all(b >= a * (1.0 - rel_tol) - 1e-300 for a, b in zip(values, values[1:]))
    dec = all(b <= a * (1.0 + rel_tol) + 1e-300 for a, b in zip(values, values[1:]))
    if inc and dec:
        return "flat"
    if inc:
        return "increasing"
    if dec:
        return "decreasing"
    return "mixed"


@dataclass(frozen=True)
class CriterionSample:
    t: float
    ratio: Interval
    g_abs: Optional[float]


@dataclass(frozen=True)
class CriterionReport:
    """Sampled backward-criterion ratios with verdict and audit trail."""

    samples: tuple
    verdict: str
    bound: Optional[float]
    heuristic: Heuristic
    truncation: object
    kind: str
    mu: Optional[complex]
    w0: complex
    z_modulus: Optional[float]
    horizon: float
    sandwich_checked: bool
    sandwich_ok: bool
    sandwich_worst: float
    label: str = ""
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "bound": self.bound,
            "samples": [{"t": s.t, "ratio_lo": s.ratio.lo,
                         "ratio_hi": None if math.isinf(s.ratio.hi) else s.ratio.hi,
                         "g_abs": s.g_abs} for s in self.samples],
            "heuristic": self.heuristic.to_dict(),
            "truncation": self.truncation,
            "kind": self.kind,
            "mu": None if self.mu is None else [self.mu.real, self.mu.imag],
            "w0": [self.w0.real, self.w0.imag],
            "z_modulus": self.z_modulus,
            "horizon": None if math.isinf(self.horizon) else self.horizon,
            "sandwich": {"checked": self.sandwich_checked,
                         "ok": self.sandwich_ok,
                         "worst_slack": self.sandwich_worst},
            "label": self.label,
            "notes": self.notes,
        }


def criterion_ratio(track: OrbitTrack, t: float, enclosure=None,
                    delta=None, delta0=None) -> Interval:
    """The criterion ratio at one sample time, as an interval.

    Non-elliptic: lambda(h(z)-t) / exp(2 k(h(z), h(z)-t)); elliptic samples
    carry the exp(Re mu t) weight.  Endpoints combine in log space.
    ``delta`` and ``delta0`` are delta_Omega(w(t)) and delta_Omega(w0) where
    the caller has measured them (``backward_tail_grid`` gives both); each
    one not given is measured here when the interval route needs it.
    """
    w = track.w(t)
    if not track.omega.contains(w):
        raise DomainError(f"criterion sample {w!r} left the Koenigs domain")
    weight = track.mu.real * t if track.kind == ELLIPTIC else 0.0
    kernel = track.omega.criterion_kernel(track.w0, w)
    if kernel is not None:
        return Interval.exact(kernel * math.exp(weight))
    lam = hypgeo.domain_density(track.omega, w, delta)
    if t == 0.0:
        dist = Interval.exact(0.0)
    else:
        dist = hypgeo.domain_distance(track.omega, track.w0, w,
                                      enclosure=enclosure, delta_z=delta0,
                                      delta_w=delta)
    if lam.lo > 0 and math.isfinite(dist.hi):
        lo = math.exp(math.log(lam.lo) - 2.0 * dist.hi + weight)
    else:
        lo = 0.0
    if math.isfinite(lam.hi):
        hi = math.exp(math.log(lam.hi) - 2.0 * dist.lo + weight)
    else:
        hi = math.inf
    return Interval(min(lo, hi), hi)


def backward_criterion(track: OrbitTrack,
                       heuristic: Heuristic = DEFAULT_HEURISTIC,
                       enclosure_factory: Optional[Callable[[float], object]] = None,
                       t_max: float = T_MAX_PROBE) -> CriterionReport:
    """Evaluate the backward-orbit criterion and classify the tail.

    Certified: the tail window's upper endpoints are finite, below the
    absolute threshold, and non-increasing within tolerance (the recorded
    bound is their sup).  RefutedTrend: the lower endpoints grow
    monotonically by at least the heuristic factor per decade and exceed the
    threshold.  Anything else is Inconclusive, and so is a tail with fewer
    samples than the window, which ``notes["tail"]`` records.
    """
    horizon = track.horizon()
    grid = backward_tail_grid(track, t_max=t_max)
    delta0 = grid[0][1]
    samples = []
    worst_slack = 0.0
    sandwich_ok = True
    checked = False
    zmod = track.z_modulus()
    for t, delta in grid:
        enc = enclosure_factory(t) if (enclosure_factory and t > 0) else None
        ratio = criterion_ratio(track, t, enclosure=enc, delta=delta,
                                delta0=delta0)
        g = track.g_abs(t)
        if g is not None and zmod is not None:
            checked = True
            scale = abs(track.mu * track.w0) if track.kind == ELLIPTIC else 1.0
            lo_bound = (1.0 - zmod) / (1.0 + zmod) * scale * ratio.lo
            hi_bound = 4.0 * (1.0 + zmod) / (1.0 - zmod) * scale * ratio.hi
            slack_lo = lo_bound - g
            slack_hi = g - hi_bound
            worst_slack = max(worst_slack, slack_lo, slack_hi)
            if slack_lo > 1e-9 * max(1.0, g) or slack_hi > 1e-9 * max(1.0, g):
                sandwich_ok = False
        samples.append(CriterionSample(t, ratio, g))

    verdict, bound, why = _classify_tail(samples, horizon, heuristic)
    return CriterionReport(
        samples=tuple(samples), verdict=verdict, bound=bound,
        heuristic=heuristic, truncation=track.omega.truncation(),
        kind=track.kind, mu=track.mu, w0=track.w0,
        z_modulus=zmod, horizon=horizon.value,
        sandwich_checked=checked, sandwich_ok=sandwich_ok,
        sandwich_worst=worst_slack, label=track.label,
        notes={} if why is None else {"tail": why})


def _classify_tail(samples: Sequence[CriterionSample], horizon: Horizon,
                   heuristic: Heuristic):
    """(verdict, bound, why): ``why`` says why a tail shorter than the
    window is Inconclusive, and is None otherwise."""
    tail = [s for s in samples if s.t > 0.0][-heuristic.window:]
    if len(tail) < heuristic.window:
        return INCONCLUSIVE, None, (
            f"{len(tail)} tail samples, fewer than the window of "
            f"{heuristic.window}")
    if len(tail) < 2:
        return INCONCLUSIVE, None, None
    his = [s.ratio.hi for s in tail]
    los = [s.ratio.lo for s in tail]
    ts = [s.t for s in tail]

    if all(math.isfinite(h) for h in his):
        sup_hi = max(his)
        if sup_hi <= heuristic.abs_threshold and \
                _trend(his, heuristic.monotone_rel_tol) in ("decreasing", "flat"):
            return CERTIFIED, sup_hi, None

    if all(lo > 0 for lo in los) and _trend(los, 0.0) == "increasing":
        decades = _tail_decades(ts, horizon)
        if decades > 0:
            per_decade = (los[-1] / los[0]) ** (1.0 / decades)
            if per_decade >= heuristic.growth_factor and \
                    los[-1] > heuristic.abs_threshold:
                return REFUTED_TREND, None, None
    return INCONCLUSIVE, None, None


def _tail_decades(ts: Sequence[float], horizon: Horizon) -> float:
    """Decades spanned by the tail window: of t for infinite horizons, of the
    gap T - t for grids accumulating at a finite horizon."""
    if horizon.finite:
        g0 = horizon.value - ts[0]
        g1 = horizon.value - ts[-1]
        if g0 <= 0 or g1 <= 0:
            return 0.0
        return math.log10(g0 / g1)
    if ts[0] <= 0:
        return 0.0
    return math.log10(ts[-1] / ts[0])


# ---------------------------------------------------------------------------
# regularity / Euclidean sufficient test / shift
# ---------------------------------------------------------------------------

FINITE_HORIZON = "FiniteHorizon"
REGULAR = "Regular"
NON_REGULAR = "NonRegular"


@dataclass(frozen=True)
class RegularityResult:
    classification: str
    steps: tuple  # (t, Interval) unit-step hyperbolic distances
    horizon: float
    threshold: float


def regularity_classify(track: OrbitTrack,
                        t_max: float = T_MAX_PROBE) -> RegularityResult:
    """FiniteHorizon when T_z < inf; else Regular iff the unit-step
    hyperbolic distances k(gamma~(t), gamma~(t+1)) stay bounded with a
    non-growing trend over doubling times, NonRegular on detected monotone
    growth; bounded means below 50 over the last 5 steps.  Steps are
    evaluated in the Koenigs domain (conformal invariance), so no disk-side
    map is required."""
    threshold = 50.0
    horizon = track.horizon()
    if horizon.finite:
        return RegularityResult(FINITE_HORIZON, (), horizon.value, threshold)
    # each step pairs t with t + 1, and both must lie within t_max; one
    # stream probes both ends, 1, 2, 3, 4, 5, 8, 9, ..., so the end of
    # t = 1 is the probe of t = 2
    starts = list(doubling(1.0, t_max - 1.0))
    deltas = dict(probe_schedule(track.omega, track.w,
                                 (s for t in starts for s in (t, t + 1.0))))
    steps = [(t, hypgeo.domain_distance(track.omega, track.w(t),
                                        track.w(t + 1.0), delta_z=deltas[t],
                                        delta_w=deltas[t + 1.0]))
             for t in itertools.takewhile(lambda t: t + 1.0 in deltas, starts)]
    if len(steps) < 2:
        return RegularityResult(NON_REGULAR, tuple(steps), horizon.value,
                                threshold)
    tail = steps[-5:]
    los = [k.lo for _, k in tail]
    his = [k.hi for _, k in tail]
    growing_lo = _trend(los, 0.0) == "increasing" and los[-1] > los[0]
    if growing_lo:
        return RegularityResult(NON_REGULAR, tuple(steps), horizon.value,
                                threshold)
    if all(math.isfinite(h) for h in his) and max(his) < threshold and \
            _trend(his, 1e-9) in ("decreasing", "flat"):
        return RegularityResult(REGULAR, tuple(steps), horizon.value, threshold)
    return RegularityResult(NON_REGULAR, tuple(steps), horizon.value, threshold)


@dataclass(frozen=True)
class EuclideanTest:
    liminf_estimate: float
    passed: bool
    samples: tuple


def euclidean_sufficient_test(track: OrbitTrack,
                              t_max: float = T_MAX_PROBE) -> EuclideanTest:
    """Evaluate t * delta_Omega(h(z) - t) on doubling times; pass when the
    minimum over the last 5 samples stays at or above 1e-3 (a sufficient
    condition for the backward orbit to be Lipschitz, not a necessary one).
    Where delta collapses the collapse scale is the last sample."""
    if track.kind != NONELLIPTIC:
        raise ParameterError("the Euclidean test applies to non-elliptic tracks")
    if track.horizon().finite:
        raise ParameterError("the Euclidean test requires an infinite horizon")
    samples = tuple((t, t * delta) for t, delta in probe_schedule(
        track.omega, track.w, doubling(1.0, t_max), collapse=True))
    if not samples:
        return EuclideanTest(0.0, False, ())
    liminf = min(v for _, v in samples[-5:])
    return EuclideanTest(liminf, liminf >= 1e-3, samples)


SHIFT_FINITE = "Finite"
SHIFT_INFINITE = "Infinite"
SHIFT_NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class ShiftResult:
    classification: str
    sup_re: Optional[float]
    quotient: Optional[float]
    tau: Optional[complex]
    samples: tuple = ()


def shift_classify(sg: Semigroup, z: complex) -> ShiftResult:
    """Horodisk-avoidance classification through the Cayley transform.

    Applicable only when the Koenigs domain sits inside a horizontal
    half-plane but inside no horizontal strip; then Re C(gamma_z(t)) with
    C(z) = (tau+z)/(tau-z) is sampled on the doubling ``probe_schedule``
    of the forward Koenigs-plane ray: bounded means finite shift, monotone
    divergence means infinite shift.  The Lipschitz quotient of C(gamma_z)
    on [0, 100] is reported alongside.
    """
    if sg.kind != NONELLIPTIC:
        return ShiftResult(SHIFT_NOT_APPLICABLE, None, None, None)
    below, above = sg.omega.imag_bounded()
    if below == above:
        return ShiftResult(SHIFT_NOT_APPLICABLE, None, None, None)
    dw = sg.denjoy_wolff_estimate(z)
    if not dw.converged:
        raise DiskflowError("Denjoy-Wolff estimate did not converge "
                            f"(last diff {dw.last_diff:.3e})")
    tau = dw.point
    # h(z) once: the estimate above evaluated it, so it does not raise here
    w0 = sg.koenigs_image(z)

    def cayley(ts: np.ndarray) -> np.ndarray:
        # C(gamma_z(t)) from one array pullback, each entry in Python complex
        # arithmetic (CPython's bits); NaN where the step skipped (NaN) or
        # gamma_z(t) == tau
        return np.array([complex(math.nan, math.nan)
                         if cmath.isnan(zt) or zt == tau
                         else (tau + zt) / (tau - zt)
                         for zt in sg.phi_from_image(ts, w0).tolist()],
                        dtype=complex)

    probes = [t for t, _ in probe_schedule(sg.omega, lambda t: sg.ray_w(w0, t),
                                           doubling(1.0, T_MAX_PROBE))]
    res = []
    for t, v in zip(probes, cayley(np.array(probes, dtype=float)).tolist()):
        if cmath.isnan(v):
            break
        res.append((t, v.real))
    quo = lipschitz_quotient(cayley, 0.0, 100.0).value
    re_vals = [r for _, r in res]
    sup_re = max(re_vals) if re_vals else None
    tail = re_vals[-5:]
    diverging = len(tail) >= 3 and _trend(tail, 0.0) == "increasing" \
        and tail[-1] > 2.0 * max(tail[0], 1.0)
    cls = SHIFT_INFINITE if diverging else SHIFT_FINITE
    return ShiftResult(cls, sup_re, quo, tau, tuple(res))


# ---------------------------------------------------------------------------
# Ahlfors regularity of spiral traces
# ---------------------------------------------------------------------------

# audit disk radii are log-uniform in this range, times max(|w0|, 0.1)
_AHLFORS_RADII = (0.05, 3.0)
# windings searched for crossings in one disk; more are a ParameterError
_MAX_WINDINGS = 2 ** 16


@dataclass(frozen=True)
class SpiralSpec:
    """Trace gamma(t) = w0 * exp((alpha + i beta) t), t >= 0."""

    w0: complex
    alpha: float
    beta: float
    # the exponent alpha + i beta, formed once for the spiral-length kernel
    mu: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w0 = complex(self.w0)
        if w0 == 0 or not cmath.isfinite(w0):
            raise ParameterError("spiral base point must be finite, nonzero")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ParameterError("spiral exponents must be finite")
        if self.alpha == 0 and self.beta == 0:
            raise ParameterError("alpha = beta = 0 traces a single point")
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "mu", complex(self.alpha, self.beta))

    def point(self, t: float) -> complex:
        """gamma(t): the elliptic Koenigs flow of w0 at spectral value -mu."""
        return koenigs_flow(ELLIPTIC, -self.mu, self.w0, t)

    def speed_factor(self) -> float:
        return math.hypot(self.alpha, self.beta)


@dataclass(frozen=True)
class AhlforsResult:
    measured_sup: float
    bound: float
    passed: bool
    trivial: bool
    n_disks: int
    worst: Optional[dict] = None


def _spiral_window(spec: SpiralSpec, c: complex, r: float):
    """Plan the length of the trace inside |w - c| < r in scalar code:
    (the length, None) where no crossing is left to find, else (the inside
    tail's length, (t_enter, t_exit)): the window whose crossings
    ``_crossings`` finds.  Disks that need no search take their length
    here: the circle alpha = 0 and the ray beta = 0 in closed form, an
    annulus the trace misses, a window holding only the inside tail, and a
    trace that reaches the disk only past the float range of |w0|
    (measured from where it gets there)."""
    a, b = spec.alpha, spec.beta
    mod0 = abs(spec.w0)
    if a == 0.0:
        # the circle |w| = mod0: the arc where the angle from c is below
        # acos((mod0^2 + |c|^2 - r^2) / (2 mod0 |c|)), clipped, so a circle
        # wholly inside gives 2 pi mod0 and one wholly outside gives 0
        rho = abs(c)
        if rho == 0.0:
            return (2.0 * math.pi * mod0 if mod0 < r else 0.0), None
        k = (mod0 * mod0 + rho * rho - r * r) / (2.0 * mod0 * rho)
        return 2.0 * mod0 * math.acos(min(1.0, max(-1.0, k))), None
    if b == 0.0:
        # the ray rho u, u = w0 / |w0|: |rho u - c| < r is the chord
        # |rho - p| < sqrt((r - s)(r + s)), p and s the parts of c along and
        # across u, clipped to rho >= |w0| outward, 0 < rho <= |w0| inward
        z = c * (spec.w0 / mod0).conjugate()
        p, s = z.real, abs(z.imag)
        # where the product under- or overflows (r and s past about 1e-162
        # or 1e154) the root is taken factor by factor
        h2 = (r - s) * (r + s)
        h = (math.sqrt(h2) if sys.float_info.min <= h2 < math.inf
             else math.sqrt(r - s) * math.sqrt(r + s) if r > s else 0.0)
        lo, hi = (mod0, math.inf) if a > 0 else (0.0, mod0)
        return max(0.0, min(p + h, hi) - max(p - h, lo)), None

    # only times with |gamma| in [max(|c|-r, 0), |c|+r] can be inside
    hi_mod = abs(c) + r
    lo_mod = abs(c) - r
    # a trace that reaches that annulus only past the float range of |w0|
    # (|lo_mod| / |w0| underflows inward, lo_mod / |w0| overflows outward)
    # restarts where it gets there: nothing before is inside
    if a < 0:
        edge, past = hi_mod, mod0 > hi_mod and abs(lo_mod) / mod0 == 0.0
    else:
        edge, past = lo_mod, mod0 < lo_mod and lo_mod / mod0 == math.inf
    if past:
        t_s = (math.log(edge) - math.log(mod0)) / a
        turn = cmath.phase(spec.w0) + b * t_s
        if not math.isfinite(turn):
            raise ParameterError(
                f"spiral {spec} winds past the float range before it "
                f"reaches the disk |w - {c}| < {r!r}")
        return _spiral_length_in_disk(SpiralSpec(cmath.rect(edge, turn), a, b),
                                      c, r), None
    t_tail = None
    if a < 0:
        t_enter = 0.0 if mod0 <= hi_mod else math.log(hi_mod / mod0) / a
        if lo_mod <= 0:
            # once |gamma| < r - |c| the whole tail is inside
            rin = r - abs(c)
            if rin == 0.0:
                raise ParameterError(
                    f"disk |w - {c}| < {r!r} passes through the spiral's "
                    "centre 0: the tail crosses its edge infinitely often")
            t_tail = 0.0 if mod0 <= rin else math.log(rin / mod0) / a
            t_exit = t_tail
        else:
            t_exit = math.log(lo_mod / mod0) / a
    else:
        t_enter = 0.0 if lo_mod <= mod0 else math.log(lo_mod / mod0) / a
        if hi_mod < mod0:
            return 0.0, None
        if hi_mod / mod0 == math.inf:
            raise ParameterError(
                f"spiral {spec} leaves the disk |w - {c}| < {r!r} only past "
                "the float range of its modulus")
        t_exit = math.log(hi_mod / mod0) / a
    t_enter = max(0.0, t_enter)
    if t_exit < t_enter:
        return 0.0, None

    total = 0.0
    if t_tail is not None:
        # t_tail >= 0 and t_exit = t_tail: the window ends where the tail starts
        total += (spec.speed_factor() / abs(a)) * mod0 * math.exp(a * t_tail)
    return total, (t_enter, t_exit)


def _crossings(spec: SpiralSpec, c: complex, r: float, gap: Callable,
               t_enter: float, t_exit: float) -> list:
    """The times in [t_enter, t_exit] where gap(t) = |gamma(t) - c| - r < 0
    flips, in order, each found by ``_flip``; the trace spirals, beta != 0.

    In units of |c|, at modulus x |c| the disk spans the half angle
    A = acos((x + q/x) / 2) about arg c, with q = (1 - r/|c|)(1 + r/|c|).
    A is concave in log x where that cosine is >= 0, so winding k's band
    |t - t_k| < pi/|beta|, centred where arg gamma = arg c, meets the disk
    in one interval, where A - |beta| |t - t_k| > 0.  That function peaks
    at t_k clamped between the times of the moduli x - q/x =
    +-2 |beta| (r/|c|) / |mu|, where dA/dt = +-|beta|.  A disk that holds
    the origin (q < 0) is split at x = sqrt(-q): below it the outside half
    angle pi - A is the concave one, its bands centre where gamma points
    away from c, and its clamp moduli are the others reflected through
    sqrt(-q).  The decision is evaluated once at each band's peak; where it
    holds, each end of the interval is the single flip between the peak
    and the band's edge."""
    a, b = spec.alpha, spec.beta
    w0, mu = spec.w0, spec.mu
    mod0, rho = abs(w0), abs(c)
    if a > 0 and r > rho and mod0 < r - rho:
        # |gamma| < r - |c| lies wholly inside: no crossing before it leaves
        t_enter = max(t_enter, math.log((r - rho) / mod0) / a)
    if t_enter >= t_exit:
        return []
    psi0 = cmath.phase(w0) - cmath.phase(c)
    windings = abs(b) * (t_exit - t_enter) / math.tau
    if not windings <= _MAX_WINDINGS:
        raise ParameterError(
            f"spiral {spec} winds {windings:.3g} times through the disk "
            f"|w - {c}| < {r!r}; at most {_MAX_WINDINGS} are measured")

    def time(x):
        # the time where |gamma| = x |c|, infinite at x = 0
        ratio = x * rho / mod0
        return (math.log(ratio) if ratio > 0.0 else -math.inf) / a

    rh = r / rho
    q = (1.0 - rh) * (1.0 + rh)
    split = math.sqrt(-q) if q < 0.0 else 0.0
    e, sig = rh * abs(b) / abs(mu), rh * abs(a) / abs(mu)
    h = math.sqrt((1.0 - sig) * (1.0 + sig)) if sig < 1.0 else 0.0
    # the two clamp moduli on x >= split; the + root is e + h, and the -
    # root, q / (e + h), exists only for q > 0
    clamp = (max(split, e + h), max(split, q / (e + h) if q > 0.0 else 0.0))
    # (start, end, angle of the band centres from arg c, the decision
    # inside the bands' intervals, clamp times) per piece of the window
    inside = (0.0, True, sorted(time(x) for x in clamp))
    pieces = [(t_enter, t_exit) + inside]
    if q < 0.0:
        t_split = min(max(time(split), t_enter), t_exit)
        outside = (math.pi, False, sorted(time(-q / x) for x in clamp))
        first, second = (outside, inside) if a > 0 else (inside, outside)
        pieces = [(t_enter, t_split) + first, (t_split, t_exit) + second]

    found = []
    for lo, hi, turn, want, (t_lo, t_hi) in pieces:
        k_first, k_last = sorted(round((psi0 + b * t - turn) / math.tau)
                                 for t in (lo, hi))
        for k in range(k_first, k_last + 1):
            centre = math.tau * k + turn - psi0
            e1, e2 = (centre - math.pi) / b, (centre + math.pi) / b
            b_lo, b_hi = max(lo, min(e1, e2)), min(hi, max(e1, e2))
            if b_lo >= b_hi:
                continue
            peak = min(max(min(max(centre / b, t_lo), t_hi), b_lo), b_hi)
            f_peak = gap(peak)
            if (f_peak < 0.0) != want:
                continue
            f_lo = gap(b_lo)
            if (f_lo < 0.0) != want:
                found.append(_flip(gap, b_lo, f_lo, peak, f_peak))
            f_hi = gap(b_hi)
            if (f_hi < 0.0) != want:
                found.append(_flip(gap, peak, f_peak, b_hi, f_hi))
    return sorted(found)


def _flip(gap: Callable, lo: float, f_lo: float, hi: float,
          f_hi: float) -> float:
    """The time in [lo, hi] where the decision gap(t) < 0 flips, given
    f_lo = gap(lo) and f_hi = gap(hi), whose decisions differ.  Illinois
    (false-position) steps narrow the bracket to at most 16 ulps; halvings
    then run until the midpoint rounds onto an end, so the result is the
    midpoint of two adjacent floats whose decisions differ."""
    lo_in = f_lo < 0.0
    kept = 0
    for _ in range(32):
        # step at least 4 ulps in from either end, so a root that close to
        # one leaves a bracket of 4 ulps; where rounding makes the values
        # noisy the steps stall, or both values halve to 0, and halving ends
        inset = 4.0 * math.ulp(hi)
        if hi - lo <= 4.0 * inset or f_lo == f_hi:
            break
        t = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        t = max(lo + inset, min(hi - inset, t))
        f = gap(t)
        # the Illinois rule: an end kept twice running has its value halved
        if (f < 0.0) == lo_in:
            lo, f_lo = t, f
            if kept < 0:
                f_hi *= 0.5
            kept = -1
        else:
            hi, f_hi = t, f
            if kept > 0:
                f_lo *= 0.5
            kept = 1
    # bisect until the midpoint rounds onto an end; further halvings could
    # only leave it where it is
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (gap(mid) < 0.0) == lo_in:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _spiral_length_in_disk(spec: SpiralSpec, c: complex, r: float) -> float:
    """Exact-by-pieces length of the spiral trace inside |w - c| < r.

    ``_spiral_window`` plans the time window and takes the closed forms;
    ``_crossings`` finds each flip of the decision |gamma(t) - c| < r in
    the window, and each piece between two marks whose midpoint is inside
    contributes (speed/|alpha|) |w0| |e^{alpha t1} - e^{alpha t2}|.  An
    inward spiral (beta != 0) against a disk whose edge passes through its
    centre (r == |c|) is a ParameterError: the tail crosses that edge
    infinitely often."""
    total, window = _spiral_window(spec, c, r)
    if window is None:
        return total
    w0, mu, exp, a = spec.w0, spec.mu, cmath.exp, spec.alpha

    def gap(t):
        # |gamma(t) - c| - r, the kernel's one evaluation of the trace:
        # SpiralSpec.point on a float, inlined, since a call costs about 15%
        return abs(w0 * exp(mu * t) - c) - r

    marks = [window[0], *_crossings(spec, c, r, gap, *window), window[1]]
    scale = (spec.speed_factor() / abs(a)) * abs(w0)
    for t1, t2 in zip(marks, marks[1:]):
        if gap(0.5 * (t1 + t2)) < 0.0:
            total += scale * abs(math.exp(a * t1) - math.exp(a * t2))
    return total


def ahlfors_audit(spec: SpiralSpec, n_disks: int = 1000,
                  seed: int = 1234) -> AhlforsResult:
    """Measure sup over random disks of length(trace inside disk)/radius and
    compare against 2 sqrt(alpha^2 + beta^2)/|alpha| (degenerate alpha = 0:
    circle, trivially regular, reported with an infinite formal bound)."""
    if n_disks < 1:
        raise ParameterError("ahlfors_audit needs n_disks >= 1")
    r_lo, r_hi = _AHLFORS_RADII
    trivial = spec.alpha == 0.0 or spec.beta == 0.0
    if spec.alpha == 0.0:
        bound = math.inf
    else:
        bound = 2.0 * spec.speed_factor() / abs(spec.alpha)
    # centers biased onto and near the trace, radii log-uniform; each disk's
    # four uniforms come from one draw, row by row in the order that four
    # Generator.uniform calls took them, and the radii keep NumPy's exp
    u = np.random.default_rng(seed).random((n_disks, 4))

    def uniform(k, lo, hi):
        # Generator.uniform(lo, hi) computes lo + (hi - lo) * next_double
        return lo + (hi - lo) * u[:, k]

    t_refs = uniform(0, 0.0, 6.0 / max(abs(spec.alpha), 0.25)).tolist()
    radii = (np.exp(uniform(1, math.log(r_lo), math.log(r_hi)))
             * max(abs(spec.w0), 0.1)).tolist()
    offsets = uniform(2, -0.8, 0.8).tolist()
    turns = uniform(3, -math.pi, math.pi).tolist()
    sup = 0.0
    worst = None
    for t_ref, r, off, turn in zip(t_refs, radii, offsets, turns):
        c = spec.point(t_ref) + r * off * cmath.exp(1j * turn)
        ell = _spiral_length_in_disk(spec, c, r)
        ratio = ell / r
        if ratio > sup:
            sup = ratio
            worst = {"center": [c.real, c.imag], "radius": r, "length": ell}
    passed = sup <= bound * (1.0 + 1e-3)
    return AhlforsResult(sup, bound, passed, trivial, n_disks, worst)


# ---------------------------------------------------------------------------
# bi-Lipschitz probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilipschitzProbe:
    inf_g: float
    verdict: str  # "not_bilipschitz" | "bilipschitz_on_range"
    epsilon: Optional[float]


def bilipschitz_probe(samples: Sequence[OrbitSample]) -> BilipschitzProbe:
    """inf |G| over the sampled orbit: below 1e-3 with a downward tail
    trend means the parameterization cannot be bi-Lipschitz; otherwise it is
    bi-Lipschitz on the sampled range with the recorded lower constant."""
    if not samples:
        raise ParameterError("need orbit samples")
    gs = [s.g_abs for s in samples]
    inf_g = min(gs)
    k = min(5, len(gs))
    tail_down = _trend(gs[-k:], 1e-9) in ("decreasing", "flat")
    if inf_g < 1e-3 and tail_down:
        return BilipschitzProbe(inf_g, "not_bilipschitz", None)
    return BilipschitzProbe(inf_g, "bilipschitz_on_range", inf_g)
