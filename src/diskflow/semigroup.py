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

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .confmap import MapExpr, compose
from .domains import (ELLIPTIC, NONELLIPTIC, Domain,
                      is_convex_positive_direction, is_spirallike,
                      koenigs_flow, unit_disk)
from .errors import (CrossValidationError, EvaluationError, HorizonError,
                     InversionError, ParameterError)

T_MAX_PROBE = 1.0e4
_EXIT_BISECT_TOL = 1e-10
_CROSS_TOL = 1e-6
_ODE_TOL = 1e-9
_DW_TOL = 1e-8  # the Denjoy-Wolff doubling stops once |phi_2T - phi_T| < this
_VALIDATE_SAMPLES = 30


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
    """First time the predicate fails, by doubling bracket + bisection down
    to 1e-10 or to adjacent floats (the spacing passes 1e-10 beyond ~1e6).

    When the exit is not guaranteed, probing stops at T_MAX_PROBE with
    the +inf sentinel, whose method "probe" says how it was found."""
    if not inside(0.0):
        return Horizon(0.0, "bisection")
    hi = 1.0
    lo = 0.0
    cap = math.inf if guaranteed else T_MAX_PROBE
    while inside(hi):
        lo = hi
        hi *= 2.0
        if hi > cap:
            return Horizon(math.inf, "probe")
        if hi > 1e300:
            raise HorizonError("exit-time bracketing diverged")
    while hi - lo > _EXIT_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            if mid == lo:
                break
            lo = mid
        elif mid == hi:
            break
        else:
            hi = mid
    return Horizon(0.5 * (lo + hi), "bisection")


def integrate_complex(f: Callable[[float, complex], complex], z0: complex,
                      t_grid: Sequence[float]) -> list:
    """Integrate z' = f(t, z) through the strictly increasing grid, returning
    the solution at every grid node (SciPy's adaptive DOP853 with relative
    and absolute tolerance _ODE_TOL, read at the nodes from its dense
    output).  A failing or non-finite field value, or a failed step, ends the
    run with the "ODE step size collapsed" CrossValidationError."""
    ts = [float(t) for t in t_grid]
    for a, b in zip(ts, ts[1:]):
        if not b > a:  # a NaN time fails too
            raise ParameterError("time grid must be strictly increasing")
    if len(ts) == 1:
        return [complex(z0)]

    def rhs(t, y):
        try:
            v = f(float(t), complex(y[0]))
        except EvaluationError as exc:
            raise CrossValidationError(
                f"ODE step size collapsed: {exc}",
                diagnostics={"t": float(t), "z": complex(y[0])}) from exc
        # SciPy takes a NaN first step from a NaN field and never stops
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise CrossValidationError(
                f"ODE step size collapsed: non-finite field value at t={t}",
                diagnostics={"t": float(t), "z": complex(y[0]), "f": v})
        return [v]

    # imported on first use: SciPy takes most of a cold start, and only the
    # ODE cross-check needs it
    from scipy.integrate import solve_ivp

    with np.errstate(all="ignore"):
        sol = solve_ivp(rhs, (ts[0], ts[-1]), [complex(z0)], method="DOP853",
                        dense_output=True, rtol=_ODE_TOL, atol=_ODE_TOL)
        if sol.status != 0:
            raise CrossValidationError(
                f"ODE step size collapsed: {sol.message}",
                diagnostics={"t": float(sol.t[-1])})
        return [complex(z) for z in sol.sol(ts)[0]]


# ---------------------------------------------------------------------------
# Semigroup
# ---------------------------------------------------------------------------


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
    """Koenigs data (kind, spectral value, Koenigs map, Koenigs domain).

    The Koenigs map's source is any simply connected domain: the unit disk
    for the builtins and scenarios, f(D) for ``conjugate(f)``.  Orbits,
    generators and their cross-check hold on every source.  The outputs
    that read the disk's geometry hold on the unit disk only
    (``disk_source``): the criterion's generator sandwich, the Denjoy-Wolff
    estimate of a non-elliptic semigroup, the Hayman-Wu audit,
    ``OrbitSample.delta_disk`` (1 - |z|^2) and ``validate``'s sample
    points."""

    kind: str
    koenigs: MapExpr
    omega: Domain
    mu: Optional[complex] = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in (ELLIPTIC, NONELLIPTIC):
            raise ParameterError(f"unknown semigroup kind {self.kind!r}")
        if self.kind == ELLIPTIC:
            if self.mu is None or complex(self.mu).real <= 0:
                raise ParameterError("elliptic semigroups need Re mu > 0")
            object.__setattr__(self, "mu", complex(self.mu))
        elif self.mu is not None:
            raise ParameterError("non-elliptic semigroups carry no spectral value")

    # -- basic maps -----------------------------------------------------

    @property
    def disk_source(self) -> bool:
        """Whether the Koenigs map's source is the unit disk."""
        return self.koenigs.source == unit_disk()

    def koenigs_image(self, z: complex) -> complex:
        return self.koenigs.evaluate(z)

    @property
    def tau(self) -> complex:
        """Denjoy-Wolff point; for elliptic semigroups h(tau) = 0."""
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
        return self.phi_from_image(t, self.koenigs_image(z),
                                   seed if seed is not None else z)

    def phi_from_image(self, t: float, w0: complex, seed: complex) -> complex:
        """phi_t(z) from the known Koenigs image w0 = h(z), Newton seeded at
        ``seed`` (z itself in ``phi``): the pullback step ``phi`` shares with
        the orbit samplers, which evaluate h(z) once per orbit (t >= 0).

        An array of times gives a complex array with each scalar step's
        bits from one array pullback (``MapExpr.invert``): NaN where the
        step raises EvaluationError."""
        if (t < 0).any() if isinstance(t, np.ndarray) else t < 0:
            raise ParameterError("phi is defined for t >= 0")
        return self.koenigs.invert(koenigs_flow(self.kind, self.mu, w0, t),
                                   seed=seed)

    def generator(self, z: complex, check: bool = True) -> complex:
        """G(z) = 1/h'(z), or -mu h(z)/h'(z) for elliptic semigroups, through
        the forward map (independent of the inverse chain used by pullback)."""
        h, d = self.koenigs.jet(z, check=check)
        if self.kind == NONELLIPTIC:
            return 1.0 / d
        return -self.mu * h / d

    def generator_at_w(self, w: complex) -> complex:
        """Generator value at h^{-1}(w), via the inverse-chain derivative.

        Equal to ``generator(h^{-1}(w))`` but finite even when the disk point
        has rounded onto the unit circle."""
        try:
            d = self.koenigs.inverted().derivative(w, check=False)
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
        failed = False
        for s, y in zip(samples, ode):
            d = abs(s.z - y)
            if d > worst:
                worst_t, worst = s.t, d
            # relative past |z| = 1: on a half-plane source orbits run off
            # to infinity
            failed |= d > _CROSS_TOL * max(1.0, abs(s.z))
        if failed:
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
                              max_time: float = 2.0 ** 60) -> DenjoyWolff:
        """Limit of phi_t(z) along a doubling grid (elliptic: h^{-1}(0)).

        The raw doubling limit converges like 1/T for parabolic-type
        approach, so the final estimate is Richardson-extrapolated and
        projected onto the unit circle: a non-elliptic estimate needs the
        unit disk as source."""
        if self.kind == ELLIPTIC:
            return DenjoyWolff(self.koenigs.invert(0.0), 0.0, True, 0.0)
        if not self.disk_source:
            raise ParameterError("the non-elliptic Denjoy-Wolff estimate "
                                 "needs the unit disk as source")
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
            if diff < _DW_TOL:
                tau = 2.0 * p_cur - p_prev  # Richardson for ~c/T tails
                mag = abs(tau)
                if mag > 0:
                    tau /= mag
                return DenjoyWolff(tau, t_cur, True, diff)
            if t_cur >= max_time:
                return DenjoyWolff(p_cur, t_cur, False, diff)
            t_prev, p_prev = t_cur, p_cur

    # -- conjugation ---------------------------------------------------------

    def conjugate(self, f: MapExpr) -> "Semigroup":
        """The f(D)-version f . phi_t . f^{-1}: Koenigs map h . f^{-1} on the
        same Koenigs domain, whose adjacent Moebius factors fuse so that
        evaluation does not round through the disk boundary."""
        return Semigroup(self.kind, compose(self.koenigs, f.inverted()),
                         self.omega, self.mu, self.name)

    # -- validation ------------------------------------------------------

    def validate(self, seed: int = 3) -> dict:
        """Sampled type invariants at _VALIDATE_SAMPLES seeded points;
        returns {check: (passed, worst)}."""
        rng = np.random.default_rng(seed)
        disk = unit_disk()
        zs = [0.8 * z for z in disk.interior_samples(_VALIDATE_SAMPLES, seed)]
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
            ok = is_spirallike(self.omega, self.mu, seed)
            checks["omega_spirallike"] = (ok, 0.0)
        else:
            ok = is_convex_positive_direction(self.omega, seed)
            checks["omega_convex_positive"] = (ok, 0.0)
        return checks


def _validated_grid(t_grid: Sequence[float], require_zero_start: bool) -> list:
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ParameterError("empty time grid")
    for a, b in zip(ts, ts[1:]):
        if not b > a:  # a NaN time fails too
            raise ParameterError("time grid must be strictly increasing")
    if not ts[0] >= 0:
        raise ParameterError("grid times must be nonnegative")
    if require_zero_start and ts[0] != 0.0:
        raise ParameterError("forward grids must start at t = 0")
    return ts

