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
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from . import hypgeo
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
        return {"window": self.window, "growth_factor": self.growth_factor,
                "abs_threshold": self.abs_threshold,
                "monotone_rel_tol": self.monotone_rel_tol}


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
        return abs(self.z) if self.z is not None else None


def backward_tail_grid(track: OrbitTrack, t_max: float = T_MAX_PROBE) -> list:
    """Times accumulating at the horizon: t_j = T (1 - 2^-j), j <= 45, for
    finite T, the doubling ``probe_schedule`` otherwise; both stop at the
    first time that is not usable."""
    horizon = track.horizon()
    ts = [0.0]
    if horizon.finite:
        T = horizon.value
        for j in range(1, 46):
            t = T * (1.0 - 2.0 ** -j)
            if t <= ts[-1]:
                continue
            if not _usable_time(track, t):
                break
            ts.append(t)
    else:
        ts.extend(t for t, _ in probe_schedule(track.omega, track.w, t_max))
    return ts


def probe_schedule(omega: Domain, path: Callable[[float], complex],
                   t_max: float = T_MAX_PROBE, start: float = 1.0,
                   collapse: bool = False):
    """Doubling probe times t = start, 2 start, 4 start, ... along the
    Koenigs-plane path w(t), yielded as (t, delta_Omega(w(t))).

    The one stop rule of every tail probe: t is finite and at most
    ``t_max``, and w(t) is a usable point of the domain (see ``_probe``).
    With ``collapse`` the first point of the domain that is not usable ends
    the schedule as its last item."""
    t = start
    while t <= t_max and (probe := _probe(omega, path, t)) is not None:
        delta, usable = probe
        if usable or collapse:
            yield t, delta
        if not usable:
            return
        t *= 2.0


def _probe(omega: Domain, path: Callable[[float], complex],
           t: float) -> Optional[tuple]:
    """(delta_Omega(w(t)), usable) when t is finite and w(t) is a finite
    point of the domain, else None.  Usable: delta is at least the machine
    boundary cutoff and above four float spacings of |w(t)|, so distance
    bounds and enclosure fits still resolve the point."""
    if not math.isfinite(t):
        return None
    try:
        w = path(t)
        if not (cmath.isfinite(w) and omega.contains(w)):
            return None
        delta = omega.boundary_distance(w)
    except (OverflowError, DiskflowError):
        # e.g. spiral traces past the representable modulus
        return None
    return delta, (delta >= hypgeo.BOUNDARY_CUTOFF
                   and delta > 4.0 * math.ulp(abs(w)))


def _usable_time(track: OrbitTrack, t: float) -> bool:
    probe = _probe(track.omega, track.w, t)
    return probe is not None and probe[1]


# ---------------------------------------------------------------------------
# arc length
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArcLength:
    value: float
    converged: bool
    tail_estimate: float = 0.0


def _quad(f, a, b):
    # full_output silences the roundoff warning for violently decaying tails
    res = quad(f, a, b, limit=400, full_output=1)
    return res[0], res[1]


def arc_length(samples: Optional[Sequence[OrbitSample]] = None,
               g_abs: Optional[Callable[[float], float]] = None,
               t0: float = 0.0, t1: Optional[float] = None,
               rtol: float = 1e-6) -> ArcLength:
    """Length of an orbit piece as the integral of |G(gamma(t))| dt.

    With a ``g_abs`` evaluator the integral is adaptive quadrature (infinite
    upper limits allowed); otherwise it is a Richardson-checked composite
    rule over the supplied samples.  The convergence flag additionally
    requires the contribution of the last time decade to be below 1e-4.
    """
    if g_abs is not None:
        if t1 is None:
            raise ParameterError("g_abs quadrature needs an upper time limit")
        value, abserr = _quad(g_abs, t0, t1)
        if math.isinf(t1):
            # walk decades until one contributes below the 1e-4 tail budget
            tail = math.inf
            for k in range(2, 16):
                tail, _ = _quad(g_abs, 10.0 ** k, 10.0 ** (k + 1))
                tail = abs(tail)
                if tail < 1e-4:
                    break
        else:
            tail, _ = _quad(g_abs, max(t0, t1 / 10.0), t1)
            tail = min(abs(tail), abserr)  # finite spans converge via abserr
        converged = abserr <= rtol * max(1.0, abs(value)) and tail < 1e-4
        return ArcLength(value, converged, tail)

    if samples is None or len(samples) < 2:
        raise ParameterError("need at least two samples with generator values")
    ts = [s.t for s in samples]
    for a, b in zip(ts, ts[1:]):
        if b <= a:
            raise ParameterError("non-monotone sample grid")
    gs = [s.g_abs for s in samples]
    full = np.trapezoid(gs, ts)
    half = np.trapezoid(gs[::2], ts[::2])
    converged = abs(full - half) <= rtol * max(1.0, abs(full))
    span = ts[-1] - ts[0]
    cut = ts[-1] - span / 10.0
    tail = np.trapezoid([g for t, g in zip(ts, gs) if t >= cut],
                        [t for t in ts if t >= cut])
    return ArcLength(float(full), bool(converged and tail < 1e-4), float(tail))


HAYMAN_WU_BOUND = 4.0 * math.pi


def hayman_wu_audit(sg: Semigroup, z: complex) -> dict:
    """Full-orbit length against the 4*pi line-preimage bound."""
    if sg.kind != NONELLIPTIC:
        raise ParameterError("the line-preimage audit applies to non-elliptic "
                             "semigroups")
    w0 = sg.koenigs_image(z)
    horizon = sg.backward_horizon(z)
    g_fwd = lambda t: abs(sg.generator_at_w(sg.ray_w(w0, t)))
    g_bwd = lambda t: abs(sg.generator_at_w(sg.ray_w(w0, t, backward=True)))
    fwd = arc_length(g_abs=g_fwd, t0=0.0, t1=math.inf)
    bwd = arc_length(g_abs=g_bwd, t0=0.0, t1=horizon.value)
    length = fwd.value + bwd.value
    return {"length": length, "bound": HAYMAN_WU_BOUND,
            "pass": length <= HAYMAN_WU_BOUND + 1e-6,
            "forward": fwd, "backward": bwd, "horizon": horizon.value}


# ---------------------------------------------------------------------------
# Lipschitz quotients and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quotient:
    value: float
    pairs: int
    skipped: int


def lipschitz_quotient(sampler: Callable[[float], Optional[complex]],
                       t0: float, t1: float) -> Quotient:
    """sup |gamma(t) - gamma(s)| / |t - s| over a log-spaced family of pairs
    (consecutive pairs of 60 offsets from each end, and adjacent fine pairs
    at relative step 1e-7).  Samples evaluating to None or a
    non-finite value (e.g. past an overflow horizon) are skipped and counted.
    """
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
    sup = 0.0
    pairs = 0
    skipped = 0
    vals = {}

    def get(t):
        nonlocal skipped
        if t not in vals:
            v = sampler(t)
            if v is not None and not (math.isfinite(v.real) and math.isfinite(v.imag)):
                v = None
            if v is None:
                skipped += 1
            vals[t] = v
        return vals[t]

    for a, b in zip(ts, ts[1:]):
        va, vb = get(a), get(b)
        if va is not None and vb is not None and b > a:
            sup = max(sup, abs(vb - va) / (b - a))
            pairs += 1
    for t in ts:
        h = fine_step * max(1.0, abs(t))
        a, b = (t, t + h) if t + h <= t1 else (t - h, t)
        if a < t0:
            continue
        va, vb = get(a), get(b)
        if va is not None and vb is not None:
            sup = max(sup, abs(vb - va) / h)
            pairs += 1
    return Quotient(sup, pairs, skipped)


def orbit_point_sampler(sg, z: complex) -> Callable[[float], Optional[complex]]:
    """Forward-orbit evaluator by Koenigs pullback (None on overflow)."""
    def sample(t: float) -> Optional[complex]:
        try:
            return sg.phi(t, z)
        except EvaluationError:
            return None
    return sample


@dataclass(frozen=True)
class Certificate:
    constant: float
    measured: float
    passed: bool


def forward_certificate(sg: Semigroup, z: complex) -> Certificate:
    """Forward-orbit Lipschitz certificate.

    Non-elliptic constant: 1/delta_Omega(h(z)).  Elliptic constant:
    |mu h(z)| / dist(orbit image, boundary), the distance taken over a
    refined polyline of the image spiral.  The quotient measured over
    [0, 100] must not exceed the certificate by more than 5%.
    """
    w0 = sg.koenigs_image(z)
    if sg.kind == NONELLIPTIC:
        constant = 1.0 / sg.omega.boundary_distance(w0)
    else:
        gap = _spiral_image_gap(sg.omega, w0, sg.mu)
        constant = abs(sg.mu * w0) / gap
    measured = lipschitz_quotient(orbit_point_sampler(sg, z), 0.0, 100.0).value
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


def backward_generator_limsup(sg: Semigroup, z: complex,
                              heuristic: Heuristic = DEFAULT_HEURISTIC) -> GeneratorTail:
    """|G| along the backward orbit on a grid accumulating at T_z."""
    track = OrbitTrack.from_semigroup(sg, z)
    ts = backward_tail_grid(track)
    samples = tuple((t, track.g_abs(t)) for t in ts)
    k = min(heuristic.window, len(samples))
    tail = [g for _, g in samples[-k:]]
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


def criterion_ratio(track: OrbitTrack, t: float,
                    enclosure=None) -> Interval:
    """The criterion ratio at one sample time, as an interval.

    Non-elliptic: lambda(h(z)-t) / exp(2 k(h(z), h(z)-t)); elliptic samples
    carry the exp(Re mu t) weight.  Endpoints combine in log space.
    """
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


def backward_criterion(track: OrbitTrack,
                       heuristic: Heuristic = DEFAULT_HEURISTIC,
                       enclosure_factory: Optional[Callable[[float], object]] = None,
                       t_max: float = T_MAX_PROBE,
                       notes: Optional[dict] = None) -> CriterionReport:
    """Evaluate the backward-orbit criterion and classify the tail.

    Certified: the tail window's upper endpoints are finite, below the
    absolute threshold, and non-increasing within tolerance (the recorded
    bound is their sup).  RefutedTrend: the lower endpoints grow
    monotonically by at least the heuristic factor per decade and exceed the
    threshold.  Anything else is Inconclusive.
    """
    horizon = track.horizon()
    ts = backward_tail_grid(track, t_max=t_max)
    samples = []
    worst_slack = 0.0
    sandwich_ok = True
    checked = False
    zmod = track.z_modulus()
    for t in ts:
        enc = enclosure_factory(t) if (enclosure_factory and t > 0) else None
        ratio = criterion_ratio(track, t, enclosure=enc)
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

    verdict, bound = _classify_tail(samples, horizon, heuristic)
    return CriterionReport(
        samples=tuple(samples), verdict=verdict, bound=bound,
        heuristic=heuristic, truncation=track.omega.truncation(),
        kind=track.kind, mu=track.mu, w0=track.w0,
        z_modulus=zmod, horizon=horizon.value,
        sandwich_checked=checked, sandwich_ok=sandwich_ok,
        sandwich_worst=worst_slack, label=track.label,
        notes=dict(notes or {}))


def _classify_tail(samples: Sequence[CriterionSample], horizon: Horizon,
                   heuristic: Heuristic):
    tail = [s for s in samples if s.t > 0.0][-heuristic.window:]
    if len(tail) < 2:
        return INCONCLUSIVE, None
    his = [s.ratio.hi for s in tail]
    los = [s.ratio.lo for s in tail]
    ts = [s.t for s in tail]

    if all(math.isfinite(h) for h in his):
        sup_hi = max(his)
        if sup_hi <= heuristic.abs_threshold and \
                _trend(his, heuristic.monotone_rel_tol) in ("decreasing", "flat"):
            return CERTIFIED, sup_hi

    if all(lo > 0 for lo in los) and _trend(los, 0.0) == "increasing":
        decades = _tail_decades(ts, horizon)
        if decades > 0:
            per_decade = (los[-1] / los[0]) ** (1.0 / decades)
            if per_decade >= heuristic.growth_factor and \
                    los[-1] > heuristic.abs_threshold:
                return REFUTED_TREND, None
    return INCONCLUSIVE, None


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
    steps = []
    # each step pairs t with t + 1, and both must lie within t_max
    for t, _ in probe_schedule(track.omega, track.w, t_max - 1.0):
        if not _usable_time(track, t + 1.0):
            break
        k = hypgeo.domain_distance(track.omega, track.w(t), track.w(t + 1.0))
        steps.append((t, k))
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
        track.omega, track.w, t_max, collapse=True))
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

    def c_of_gamma(t: float) -> Optional[complex]:
        try:
            zt = sg.phi(t, z)
        except DiskflowError:
            return None
        den = tau - zt
        if den == 0:
            return None
        return (tau + zt) / den

    res = []
    for t, _ in probe_schedule(sg.omega, lambda t: sg.orbit_w(z, t)):
        v = c_of_gamma(t)
        if v is None:
            break
        res.append((t, v.real))
    quo = lipschitz_quotient(c_of_gamma, 0.0, 100.0).value
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


@dataclass(frozen=True)
class SpiralSpec:
    """Trace gamma(t) = w0 * exp((alpha + i beta) t), t >= 0."""

    w0: complex
    alpha: float
    beta: float

    def __post_init__(self):
        w0 = complex(self.w0)
        if w0 == 0 or not cmath.isfinite(w0):
            raise ParameterError("spiral base point must be finite, nonzero")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ParameterError("spiral exponents must be finite")
        if self.alpha == 0 and self.beta == 0:
            raise ParameterError("alpha = beta = 0 traces a single point")
        object.__setattr__(self, "w0", w0)

    def point(self, t):
        """gamma(t).  A float t (np.float64 included) takes the cmath path,
        which rounds like NumPy's scalar path; an array keeps NumPy's array
        path, which rounds differently, so each input kind keeps its bits."""
        if isinstance(t, float):
            return self.w0 * cmath.exp(complex(self.alpha, self.beta) * t)
        return self.w0 * np.exp((self.alpha + 1j * self.beta) * t)

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


def _spiral_length_in_disk(spec: SpiralSpec, c: complex, r: float) -> float:
    """Exact-by-pieces length of the spiral trace inside |w - c| < r.

    Crossing times are bracketed on a winding-resolved grid and bisected
    until the midpoint rounds onto an end (at most 60 halvings); each inside
    piece contributes (speed/|alpha|) |w0| |e^{a t1} - e^{a t2}|.  The
    circle alpha = 0 takes the closed-form arc length.
    """
    a, b = spec.alpha, spec.beta
    speed = spec.speed_factor()
    mod0 = abs(spec.w0)
    if a == 0.0:
        # the circle |w| = mod0: the arc where the angle from c is below
        # acos((mod0^2 + |c|^2 - r^2) / (2 mod0 |c|)), clipped, so a circle
        # wholly inside gives 2 pi mod0 and one wholly outside gives 0
        rho = abs(c)
        if rho == 0.0:
            return 2.0 * math.pi * mod0 if mod0 < r else 0.0
        k = (mod0 * mod0 + rho * rho - r * r) / (2.0 * mod0 * rho)
        return 2.0 * mod0 * math.acos(min(1.0, max(-1.0, k)))

    # only times with |gamma| in [max(|c|-r, 0), |c|+r] can be inside
    hi_mod = abs(c) + r
    lo_mod = abs(c) - r
    if a < 0:
        t_enter = 0.0 if mod0 <= hi_mod else math.log(hi_mod / mod0) / a
        t_tail = None
        if lo_mod <= 0:
            # once |gamma| < r - |c| the whole tail is inside
            rin = r - abs(c)
            t_tail = 0.0 if mod0 <= rin else math.log(rin / mod0) / a
            t_exit = t_tail
        else:
            t_exit = math.log(lo_mod / mod0) / a
    else:
        if lo_mod > mod0:
            t_enter = math.log(lo_mod / mod0) / a
        else:
            t_enter = 0.0
        if hi_mod < mod0:
            return 0.0
        t_exit = math.log(hi_mod / mod0) / a
        t_tail = None
    t_enter = max(0.0, t_enter)
    if t_exit is not None and t_exit < t_enter:
        return 0.0

    total = 0.0
    if t_tail is not None and t_tail >= 0.0:
        total += (speed / abs(a)) * mod0 * math.exp(a * t_tail)
        window_hi = t_tail
    else:
        window_hi = t_exit
    if window_hi is None or window_hi <= t_enter:
        return total

    # winding-resolved grid
    span = window_hi - t_enter
    dt = min(math.pi / (6.0 * abs(b)) if b != 0 else span, span / 64.0)
    n = min(int(span / dt) + 2, 200000)
    ts = np.linspace(t_enter, window_hi, n)
    inside = np.abs(spec.point(ts) - c) < r
    cross = []
    for i in np.flatnonzero(inside[:-1] != inside[1:]):
        lo_t, hi_t, lo_in = float(ts[i]), float(ts[i + 1]), bool(inside[i])
        for _ in range(60):
            mid = 0.5 * (lo_t + hi_t)
            if mid == lo_t or mid == hi_t:
                # further halvings could only leave the midpoint where it is
                break
            if (abs(spec.point(mid) - c) < r) == lo_in:
                lo_t = mid
            else:
                hi_t = mid
        cross.append(0.5 * (lo_t + hi_t))
    marks = [t_enter] + cross + [window_hi]
    for i in range(len(marks) - 1):
        t_mid = 0.5 * (marks[i] + marks[i + 1])
        if abs(spec.point(t_mid) - c) < r:
            total += (speed / abs(a)) * mod0 * abs(math.exp(a * marks[i])
                                                   - math.exp(a * marks[i + 1]))
    return total


def ahlfors_audit(spec: SpiralSpec, n_disks: int = 1000,
                  radius_range=(0.05, 3.0), seed: int = 1234) -> AhlforsResult:
    """Measure sup over random disks of length(trace inside disk)/radius and
    compare against 2 sqrt(alpha^2 + beta^2)/|alpha| (degenerate alpha = 0:
    circle, trivially regular, reported with an infinite formal bound)."""
    if n_disks < 1:
        raise ParameterError("ahlfors_audit needs n_disks >= 1")
    r_lo, r_hi = radius_range
    if not 0.0 < r_lo <= r_hi < math.inf:
        raise ParameterError("radius_range must satisfy 0 < lo <= hi < inf")
    trivial = spec.alpha == 0.0 or spec.beta == 0.0
    if spec.alpha == 0.0:
        bound = math.inf
    else:
        bound = 2.0 * spec.speed_factor() / abs(spec.alpha)
    rng = np.random.default_rng(seed)
    sup = 0.0
    worst = None
    mod0 = abs(spec.w0)
    for _ in range(n_disks):
        # centers biased onto and near the trace, radii log-uniform
        t_ref = rng.uniform(0.0, 6.0 / max(abs(spec.alpha), 0.25))
        base = spec.point(t_ref)
        r = float(np.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
                  * max(mod0, 0.1))
        c = complex(base) + r * rng.uniform(-0.8, 0.8) * cmath.exp(
            1j * rng.uniform(-math.pi, math.pi))
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
