"""Semigroups from Koenigs data and dual-method orbit tracing.

The Koenigs map h linearizes the flow: h(phi_t(z)) = h(z) + t for
non-elliptic semigroups and h(phi_t(z)) = exp(-mu t) h(z) for elliptic
ones.  Orbits are traced by pullback through the inverse map and,
independently, by adaptive integration of the generator field; the two
traces must agree or the operation fails with diagnostics.

Generator values along orbits are evaluated as derivatives of the inverse
chain at the Koenigs image, which stays finite even when the disk point has
rounded onto the unit circle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .confmap import MapExpr, compose
from .domains import (Domain, is_convex_positive_direction, is_spirallike,
                      unit_disk)
from .errors import (CrossValidationError, EvaluationError, HorizonError,
                     InversionError, ParameterError)

T_MAX_PROBE = 1.0e4
_EXIT_BISECT_TOL = 1e-10
_CROSS_TOL = 1e-6
_ODE_TOL = 1e-9


@dataclass(frozen=True)
class OrbitSample:
    """One orbit point: time, disk point, Koenigs image, generator value,
    and the two boundary distances."""

    t: float
    z: complex
    w: complex
    g: complex
    delta_disk: float
    delta_omega: float

    @property
    def g_abs(self) -> float:
        return abs(self.g)


@dataclass(frozen=True)
class Horizon:
    """Backward horizon T_z; value may be math.inf."""

    value: float
    method: str  # "analytic" | "bisection" | "probe"
    probe_horizon: Optional[float] = None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass(frozen=True)
class DenjoyWolff:
    point: complex
    achieved_time: float
    converged: bool
    last_diff: float


def exit_time(inside: Callable[[float], bool], guaranteed: bool) -> Horizon:
    """First time the predicate fails, by doubling bracket + bisection.

    When the exit is not guaranteed, probing stops at T_MAX_PROBE and the
    +inf sentinel carries that probe horizon."""
    if not inside(0.0):
        return Horizon(0.0, "bisection")
    hi = 1.0
    lo = 0.0
    cap = math.inf if guaranteed else T_MAX_PROBE
    while inside(hi):
        lo = hi
        hi *= 2.0
        if hi > cap:
            return Horizon(math.inf, "probe", probe_horizon=T_MAX_PROBE)
        if hi > 1e300:
            raise HorizonError("exit-time bracketing diverged")
    while hi - lo > _EXIT_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return Horizon(0.5 * (lo + hi), "bisection")


# ---------------------------------------------------------------------------
# embedded Dormand-Prince 5(4) for complex scalar ODEs
# ---------------------------------------------------------------------------

_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
          -92097 / 339200, 187 / 2100, 1 / 40)


def integrate_complex(f: Callable[[float, complex], complex], z0: complex,
                      t_grid: Sequence[float], rtol: float = _ODE_TOL,
                      atol: float = _ODE_TOL) -> list:
    """Integrate z' = f(t, z) through the strictly increasing grid, returning
    the solution at every grid node (adaptive step, grid nodes hit exactly)."""
    ts = [float(t) for t in t_grid]
    out = [complex(z0)]
    t, z = ts[0], complex(z0)
    h = None
    for t_next in ts[1:]:
        span = t_next - t
        if span <= 0:
            raise ParameterError("time grid must be strictly increasing")
        if h is None or h <= 0:
            h = span / 16.0
        while t < t_next:
            h = min(h, t_next - t)
            k = [f(t, z)]
            for row in _DP_A:
                zi = z + h * sum(a * ki for a, ki in zip(row, k))
                k.append(f(t + h * sum(row), zi))
            z5 = z + h * sum(a * ki for a, ki in zip(_DP_A[-1], k))
            z4 = z + h * sum(b * ki for b, ki in zip(_DP_B4, k))
            scale = atol + rtol * max(abs(z), abs(z5))
            err = abs(z5 - z4) / scale
            if err <= 1.0:
                t += h
                z = z5
            factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
            if h < 1e-14 * max(1.0, abs(t_next)):
                raise CrossValidationError(
                    "ODE step size collapsed",
                    diagnostics={"t": t, "h": h, "err": err})
        out.append(z)
    return out


# ---------------------------------------------------------------------------
# Semigroup
# ---------------------------------------------------------------------------


ELLIPTIC = "elliptic"
NONELLIPTIC = "nonelliptic"


def koenigs_flow(kind: str, mu: Optional[complex], w0: complex, t: float,
                 backward: bool = False) -> complex:
    """Koenigs-plane orbit at time t: w0 +/- t, or w0 exp(-/+ mu t)."""
    if kind == NONELLIPTIC:
        return w0 - t if backward else w0 + t
    return w0 * cmath.exp(mu * t if backward else -mu * t)


def koenigs_horizon(omega: Domain, kind: str, mu: Optional[complex],
                    w0: complex) -> Horizon:
    """T = sup{t : the backward Koenigs-plane trace from w0 stays in omega
    up to t}; analytic when the domain knows it, else by exit-time search."""
    if kind == ELLIPTIC:
        if abs(w0) == 0.0:
            raise ParameterError(
                "the constant backward orbit at the Denjoy-Wolff point is excluded")
        hint, val = omega.spiral_horizon(w0, mu)
    else:
        hint, val = omega.backward_ray_horizon(w0)
    if hint == "infinite":
        return Horizon(math.inf, "analytic")
    if hint == "finite":
        return Horizon(val, "analytic")
    inside = lambda t: omega.contains(koenigs_flow(kind, mu, w0, t, backward=True))
    return exit_time(inside, guaranteed=(hint == "exits"))


@dataclass(frozen=True)
class Semigroup:
    """Koenigs data (kind, spectral value, Koenigs map, Koenigs domain)."""

    kind: str
    koenigs: MapExpr
    omega: Domain
    mu: Optional[complex] = None
    name: str = ""
    _inverse: MapExpr = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (ELLIPTIC, NONELLIPTIC):
            raise ParameterError(f"unknown semigroup kind {self.kind!r}")
        if self.kind == ELLIPTIC:
            if self.mu is None or complex(self.mu).real <= 0:
                raise ParameterError("elliptic semigroups need Re mu > 0")
            object.__setattr__(self, "mu", complex(self.mu))
        elif self.mu is not None:
            raise ParameterError("non-elliptic semigroups carry no spectral value")
        object.__setattr__(self, "_inverse", self.koenigs.inverted())

    # -- basic maps -----------------------------------------------------

    def koenigs_image(self, z: complex) -> complex:
        return self.koenigs.evaluate(z)

    def disk_point(self, w: complex, seed: Optional[complex] = None) -> complex:
        return self.koenigs.invert(w, seed=seed)

    @property
    def tau(self) -> complex:
        """Denjoy-Wolff point; for elliptic semigroups h(tau) = 0."""
        if self.kind == ELLIPTIC:
            return self.koenigs.invert(0.0)
        return self.denjoy_wolff_estimate().point

    def orbit_w(self, z: complex, t: float, backward: bool = False) -> complex:
        """Koenigs image of the orbit: h(z) +/- t, or exp(-/+ mu t) h(z)."""
        return self.ray_w(self.koenigs_image(z), t, backward)

    def ray_w(self, w0: complex, t: float, backward: bool = False) -> complex:
        return koenigs_flow(self.kind, self.mu, w0, t, backward)

    def phi(self, t: float, z: complex, seed: Optional[complex] = None) -> complex:
        """phi_t(z) by Koenigs pullback (t >= 0)."""
        if t < 0:
            raise ParameterError("phi is defined for t >= 0")
        w = self.orbit_w(z, t)
        return self.koenigs.invert(w, seed=seed if seed is not None else z)

    def generator(self, z: complex, check: bool = True) -> complex:
        """G(z) = 1/h'(z), or -mu h(z)/h'(z) for elliptic semigroups, through
        the forward map (independent of the inverse chain used by pullback)."""
        d = self.koenigs.derivative(z, check=check)
        if self.kind == NONELLIPTIC:
            return 1.0 / d
        return -self.mu * self.koenigs.evaluate(z, check=check) / d

    def generator_at_w(self, w: complex) -> complex:
        """Generator value at h^{-1}(w), via the inverse-chain derivative.

        Equal to ``generator(h^{-1}(w))`` but finite even when the disk point
        has rounded onto the unit circle."""
        try:
            d = self._inverse.derivative(w, check=False)
        except EvaluationError:
            d = complex(math.nan)
        if not (math.isfinite(d.real) and math.isfinite(d.imag)):
            # the inverse chain only overflows where h' has blown up, i.e.
            # where the generator itself vanishes
            return 0.0
        if self.kind == NONELLIPTIC:
            return d
        return -self.mu * w * d

    # -- horizons ---------------------------------------------------------

    def backward_horizon(self, z: complex) -> Horizon:
        """T_z = sup{t : the backward Koenigs image stays in omega up to t}."""
        return koenigs_horizon(self.omega, self.kind, self.mu,
                               self.koenigs_image(z))

    # -- orbit tracing ----------------------------------------------------

    def _sample(self, t: float, z: complex, w: complex) -> OrbitSample:
        return OrbitSample(
            t=t, z=z, w=w, g=self.generator_at_w(w),
            delta_disk=1.0 - abs(z) ** 2,
            delta_omega=self.omega.boundary_distance(w, strict=False))

    def _pullback_trace(self, z: complex, t_grid: Sequence[float],
                        backward: bool) -> list:
        w0 = self.koenigs_image(z)
        samples = []
        seed = complex(z)
        t_seed = 0.0
        for t in t_grid:
            w = self.ray_w(w0, t, backward)
            if t == 0.0:
                zt = complex(z)
            else:
                zt = self._continue_invert(w0, t_seed, seed, t, backward)
            seed, t_seed = zt, t
            samples.append(self._sample(t, zt, w))
        return samples

    def _continue_invert(self, w0: complex, t_from: float, z_from: complex,
                         t_to: float, backward: bool, depth: int = 0) -> complex:
        """Invert at time t_to seeded by the point at t_from, halving the
        time step when Newton continuation loses the root."""
        w = self.ray_w(w0, t_to, backward)
        try:
            return self.koenigs.invert(w, seed=z_from)
        except InversionError:
            if depth >= 20:
                raise
            t_mid = 0.5 * (t_from + t_to)
            z_mid = self._continue_invert(w0, t_from, z_from, t_mid,
                                          backward, depth + 1)
            return self._continue_invert(w0, t_mid, z_mid, t_to,
                                         backward, depth + 1)

    def _cross_check(self, samples: Sequence[OrbitSample], backward: bool):
        sign = -1.0 if backward else 1.0
        f = lambda t, y: sign * self.generator(y, check=False)
        grid = [s.t for s in samples]
        ode = integrate_complex(f, samples[0].z, grid)
        worst_t, worst = grid[0], 0.0
        for s, y in zip(samples, ode):
            d = abs(s.z - y)
            if d > worst:
                worst_t, worst = s.t, d
        if worst > _CROSS_TOL:
            raise CrossValidationError(
                f"pullback and ODE orbits disagree by {worst:.3e} at t={worst_t}",
                diagnostics={"sup_norm": worst, "t": worst_t,
                             "direction": "backward" if backward else "forward"})
        return worst

    def forward_orbit(self, z: complex, t_grid: Sequence[float],
                      cross_check: bool = True) -> list:
        t_grid = _validated_grid(t_grid, require_zero_start=True)
        samples = self._pullback_trace(z, t_grid, backward=False)
        if cross_check:
            self._cross_check(samples, backward=False)
        return samples

    def backward_orbit(self, z: complex, t_grid: Sequence[float],
                       cross_check: bool = True) -> list:
        t_grid = _validated_grid(t_grid, require_zero_start=False)
        horizon = self.backward_horizon(z)
        if t_grid[-1] >= horizon.value:
            raise HorizonError(
                f"grid reaches t={t_grid[-1]} beyond the backward horizon "
                f"T_z={horizon.value}", horizon=horizon.value)
        samples = self._pullback_trace(z, t_grid, backward=True)
        if cross_check and len(samples) >= 2 and t_grid[0] == 0.0:
            self._cross_check(samples, backward=True)
        return samples

    def full_orbit(self, z: complex, t_grid: Sequence[float],
                   cross_check: bool = True) -> list:
        """Splice of backward (t < 0) and forward (t >= 0) samples over a
        grid inside (-T_z, +infinity)."""
        ts = sorted(float(t) for t in t_grid)
        neg = [-t for t in ts if t < 0]
        pos = [t for t in ts if t >= 0]
        out = []
        if neg:
            back = self.backward_orbit(z, [0.0] + sorted(neg),
                                       cross_check=cross_check)[1:]
            out.extend(OrbitSample(-s.t, s.z, s.w, s.g, s.delta_disk,
                                   s.delta_omega) for s in reversed(back))
        if pos:
            grid = pos if pos[0] == 0.0 else [0.0] + pos
            fwd = self.forward_orbit(z, grid, cross_check=cross_check)
            if pos[0] != 0.0:
                fwd = fwd[1:]
            out.extend(fwd)
        return out

    # -- asymptotics --------------------------------------------------------

    def denjoy_wolff_estimate(self, z: complex = 0j,
                              tol: float = 1e-8,
                              max_time: float = 2.0 ** 60) -> DenjoyWolff:
        """Limit of phi_t(z) along a doubling grid (elliptic: h^{-1}(0)).

        The raw doubling limit converges like 1/T for parabolic-type
        approach, so the final estimate is Richardson-extrapolated and
        projected onto the unit circle."""
        if self.kind == ELLIPTIC:
            return DenjoyWolff(self.koenigs.invert(0.0), 0.0, True, 0.0)
        t_prev = 1.0
        p_prev = self.phi(t_prev, z)
        while True:
            t_cur = 2.0 * t_prev
            try:
                p_cur = self.phi(t_cur, z, seed=p_prev)
            except EvaluationError:
                # chain overflow past the representable horizon
                return DenjoyWolff(p_prev / max(abs(p_prev), 1e-300),
                                   t_prev, False, math.inf)
            diff = abs(p_cur - p_prev)
            if diff < tol:
                tau = 2.0 * p_cur - p_prev  # Richardson for ~c/T tails
                mag = abs(tau)
                if mag > 0:
                    tau /= mag
                return DenjoyWolff(tau, t_cur, True, diff)
            if t_cur >= max_time:
                return DenjoyWolff(p_cur, t_cur, False, diff)
            t_prev, p_prev = t_cur, p_cur

    # -- conjugation ---------------------------------------------------------

    def conjugate(self, f: MapExpr) -> "ConjugatedSemigroup":
        return ConjugatedSemigroup(self, f)

    # -- validation ------------------------------------------------------

    def validate(self, n: int = 40, seed: int = 3) -> dict:
        """Sampled type invariants; returns {check: (passed, worst)}."""
        rng = np.random.default_rng(seed)
        disk = unit_disk()
        zs = [0.8 * z for z in disk.interior_samples(n, seed)]
        worst_id = worst_law = worst_koenigs = 0.0
        for z in zs:
            worst_id = max(worst_id, abs(self.phi(0.0, z) - z))
            t, s = rng.uniform(0.05, 2.0, size=2)
            a = self.phi(t + s, z)
            b = self.phi(t, self.phi(s, z))
            worst_law = max(worst_law, abs(a - b))
            w = self.koenigs_image(self.phi(t, z))
            worst_koenigs = max(worst_koenigs, abs(w - self.orbit_w(z, t)))
        checks = {
            "identity": (worst_id < 1e-10, worst_id),
            "semigroup_law": (worst_law < 1e-8, worst_law),
            "koenigs_equation": (worst_koenigs < 1e-8, worst_koenigs),
        }
        if self.kind == ELLIPTIC:
            tau_resid = abs(self.koenigs_image(self.tau))
            checks["koenigs_vanishes_at_tau"] = (tau_resid < 1e-10, tau_resid)
            ok = is_spirallike(self.omega, self.mu, 200, seed)
            checks["omega_spirallike"] = (ok, 0.0)
        else:
            ok = is_convex_positive_direction(self.omega, 200, seed)
            checks["omega_convex_positive"] = (ok, 0.0)
        return checks


def _validated_grid(t_grid: Sequence[float], require_zero_start: bool) -> list:
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ParameterError("empty time grid")
    for a, b in zip(ts, ts[1:]):
        if b <= a:
            raise ParameterError("time grid must be strictly increasing")
    if ts[0] < 0:
        raise ParameterError("grid times must be nonnegative")
    if require_zero_start and ts[0] != 0.0:
        raise ParameterError("forward grids must start at t = 0")
    return ts


class ConjugatedSemigroup:
    """The D'-version phi_t^D = f . phi_t . f^{-1} of a semigroup.

    The conjugated Koenigs map h_D = h . f^{-1} shares the Koenigs domain, so
    orbits pull back through h_D directly; adjacent Moebius factors fuse, so
    the evaluation does not round through the disk boundary."""

    def __init__(self, base: Semigroup, f: MapExpr):
        self.base = base
        self.f = f
        self.koenigs = compose(base.koenigs, f.inverted())
        self.omega = base.omega
        self.kind = base.kind
        self.mu = base.mu

    def phi(self, t: float, zeta: complex, seed: Optional[complex] = None) -> complex:
        if t < 0:
            raise ParameterError("phi is defined for t >= 0")
        w = koenigs_flow(self.kind, self.mu,
                         self.koenigs.evaluate(zeta, check=False), t)
        return self.koenigs.invert(w, seed=seed if seed is not None else zeta,
                                   check=False)

    def generator(self, zeta: complex) -> complex:
        """G^D(zeta) = f'(f^{-1}(zeta)) G(f^{-1}(zeta)) (chain rule)."""
        z = self.f.invert(zeta, check=False)
        return self.f.derivative(z) * self.base.generator(z)

    def forward_orbit(self, zeta: complex, t_grid: Sequence[float]) -> list:
        ts = _validated_grid(t_grid, require_zero_start=True)
        out = []
        seed = complex(zeta)
        for t in ts:
            seed = self.phi(t, zeta, seed=seed) if t != 0.0 else complex(zeta)
            out.append((t, seed))
        return out

    def orbit_sampler(self, zeta: complex) -> Callable[[float], Optional[complex]]:
        """Point evaluator for quotient probes; None past the overflow horizon."""
        def sample(t: float) -> Optional[complex]:
            try:
                v = self.phi(t, zeta)
            except (EvaluationError, InversionError):
                return None
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                return None
            return v
        return sample
