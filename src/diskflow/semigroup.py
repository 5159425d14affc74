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
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .confmap import MapExpr, _modulus, compose
from .domains import (ELLIPTIC, NONELLIPTIC, Domain,
                      is_convex_positive_direction, is_spirallike,
                      koenigs_flow, unit_disk, with_riemann_map)
from .errors import (CrossValidationError, DiskflowError, EvaluationError,
                     HorizonError, ParameterError)

T_MAX_PROBE = 1.0e4
_EXIT_BISECT_TOL = 1e-10
_CROSS_TOL = 1e-6
_ODE_TOL = 1e-9
_DW_TOL = 1e-8  # the Denjoy-Wolff doubling stops once |phi_2T - phi_T| < this
_VALIDATE_SAMPLES = 30
# step attempts, accepted and rejected, before the ODE cross-check gives up
_ODE_MAX_STEPS = 50_000

# DOP853 (Hairer, Norsett and Wanner, Solving Ordinary Differential
# Equations I, II.5-II.6), with the coefficients of Hairer's dop853.f as
# SciPy's DOP853 has them.  Stage s = 1..11 is taken at t + c_s h from the
# stages before it, weighted by row s of A; B gives the 8th-order step, whose
# derivative at the new point is stage 12; E5 and E3 weigh stages 0..11 into
# the 5th- and 3rd-order error estimates (E3 is B minus the 3rd-order
# weights).  The dense output adds stages 13..15 and weighs all 16 stages by
# the rows of D.
_DOP_C = (
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0)
_DOP_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
)
_DOP_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2)
_DOP_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1)
_DOP_E3 = tuple(b - b3 for b, b3 in zip(_DOP_B, (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1)))
_DOP_C_DENSE = (0.1, 0.2, 0.777777777777777777777777777778)
_DOP_A_DENSE = (
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0,
     0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_DOP_D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3),
)


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


def _dot(weights: Sequence[float], stages: Sequence[complex]) -> complex:
    return sum(map(operator.mul, weights, stages))


def _initial_step(rhs, t0: float, y0: complex, f0: complex,
                  span: float) -> float:
    """Hairer's initial step for an error estimate of order 7, as SciPy
    selects it: one trial Euler step measures how fast the field turns."""
    scale = _ODE_TOL + _modulus(y0) * _ODE_TOL
    d0 = _modulus(y0 / scale)
    d1 = _modulus(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    d2 = _modulus((rhs(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100.0 * h0, h1, span)


def _error_norm(k: Sequence[complex], h: float, y: complex,
                y_new: complex) -> float:
    """DOP853's error norm of one step: Hairer's blend h e5^2/hypot(e5, e3/10)
    of the 5th- and 3rd-order estimates, each in units of the scale
    _ODE_TOL * (1 + max(|y|, |y_new|)); NaN or inf where they overflow."""
    scale = _ODE_TOL + max(_modulus(y), _modulus(y_new)) * _ODE_TOL
    e5 = _dot(_DOP_E5, k) / scale
    e3 = _dot(_DOP_E3, k) / scale
    e5 = e5.real * e5.real + e5.imag * e5.imag
    e3 = e3.real * e3.real + e3.imag * e3.imag
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return h * e5 / math.sqrt(e5 + 0.01 * e3)


def _dense_output(rhs, t: float, y: complex, f_old: complex, h: float,
                  k: list, y_new: complex, f_new: complex):
    """The accepted step's 7th-order interpolant, as a function of
    x = (s - t)/h: three more stages, then SciPy's Horner form."""
    k = k + [f_new]
    for c, row in zip(_DOP_C_DENSE, _DOP_A_DENSE):
        k.append(rhs(t + c * h, y + _dot(row, k) * h))
    dy = y_new - y
    f0, f1, f2 = dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old)
    f3, f4, f5, f6 = (h * _dot(row, k) for row in _DOP_D)

    def at(x: float) -> complex:
        u = 1.0 - x
        return y + x * (f0 + u * (f1 + x * (f2 + u * (f3 + x * (
            f4 + u * (f5 + x * f6))))))
    return at


def integrate_complex(f: Callable[[float, complex], complex], z0: complex,
                      t_grid: Sequence[float]) -> list:
    """Integrate z' = f(t, z) through the strictly increasing grid of finite
    times, returning the solution at every grid node.

    The stepper is SciPy's DOP853 on one Python complex: Hairer's initial
    step, the E5/E3 error norm at relative and absolute tolerance _ODE_TOL,
    safety 0.9 and step factors in [0.2, 10].  A node inside a step is read
    from the step's 7th-order dense output, whose three extra stages are
    evaluated only on such steps; a node at a step's end takes the step's
    value.  A failing or non-finite field value, a step below 10 ulp(t) (to
    which a non-finite error norm shrinks the step) and _ODE_MAX_STEPS step
    attempts each end the run with the "ODE step size collapsed"
    CrossValidationError."""
    ts = _increasing_times(t_grid)
    z0 = complex(z0)
    if len(ts) == 1:
        return [z0]
    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        try:
            v = f(t, y)
        except EvaluationError as exc:
            raise CrossValidationError(
                f"ODE step size collapsed: {exc}",
                diagnostics={"t": t, "z": y}) from exc
        # checked at every evaluation: a NaN stage would only show as a NaN
        # error norm, which shrinks the step to its floor
        if not cmath.isfinite(v):
            raise CrossValidationError(
                f"ODE step size collapsed: non-finite field value at t={t}",
                diagnostics={"t": t, "z": y, "f": v})
        return v

    t, y, t_end = ts[0], z0, ts[-1]
    fy = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, fy, t_end - t)
    out = [y]
    node = 1
    accepted = rejected = 0
    while True:
        floor = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, floor)
        retried = False
        while True:
            if h_abs < floor or accepted + rejected == _ODE_MAX_STEPS:
                why = (f"step {h_abs:.3e} below 10 ulp" if h_abs < floor
                       else f"{_ODE_MAX_STEPS} step attempts")
                raise CrossValidationError(
                    f"ODE step size collapsed: {why} at t={t}",
                    diagnostics={"t": t, "nfev": nfev, "accepted": accepted,
                                 "rejected": rejected})
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            k = [fy]
            for c, row in zip(_DOP_C, _DOP_A):
                k.append(rhs(t + c * h, y + _dot(row, k) * h))
            y_new = y + h * _dot(_DOP_B, k)
            f_new = rhs(t_new, y_new)
            err = _error_norm(k, h, y, y_new)
            if err < 1.0:
                break
            # max() keeps 0.2 against a NaN norm
            h_abs = h * max(0.2, 0.9 * err ** -0.125)
            retried = True
            rejected += 1
        accepted += 1
        dense = None
        while ts[node] < t_new:
            if dense is None:
                dense = _dense_output(rhs, t, y, fy, h, k, y_new, f_new)
            out.append(dense((ts[node] - t) / h))
            node += 1
        if ts[node] == t_new:
            out.append(y_new)
            node += 1
            if node == len(ts):
                return out
        factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
        if retried:
            factor = min(1.0, factor)
        t, y, fy, h_abs = t_new, y_new, f_new, h * factor


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
    points.  On the unit disk h must map the disk onto omega: a sampled
    check that shows otherwise raises ScenarioError, and where every sample
    passes, a domain without a Riemann map of its own is replaced by its
    copy that carries h^{-1} (``domains.with_riemann_map``).  A conjugate
    runs no check and keeps omega as it is."""

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
        if self.disk_source:
            object.__setattr__(self, "omega",
                               with_riemann_map(self.omega, self.koenigs))

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

    def phi(self, t: float, z: complex) -> complex:
        """phi_t(z) by Koenigs pullback (t >= 0)."""
        _check_times(t)
        return self.phi_from_image(t, self.koenigs_image(z))

    def phi_from_image(self, t: float, w0: complex) -> complex:
        """phi_t(z) from the known Koenigs image w0 = h(z): the pullback
        step ``phi`` shares with the orbit samplers, which evaluate h(z)
        once per orbit (t >= 0 and finite).

        An array of times gives a complex array with each scalar step's
        bits from one array pullback (``MapExpr.invert``): NaN where the
        step raises EvaluationError."""
        _check_times(t)
        return self.koenigs.invert(koenigs_flow(self.kind, self.mu, w0, t))

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
        """The samples at the grid times, pulled back by one array invert.
        Where any time fails there, the scalar loop runs instead, so the
        first failing time raises its own error."""
        w0 = self.koenigs_image(z)
        ts = np.array(t_grid, dtype=float)
        try:
            ws = self.ray_w(w0, ts, backward)
            zs = self.koenigs.invert(ws)
        except DiskflowError:
            zs = None
        if zs is None or np.isnan(zs).any():
            samples = []
            for t in t_grid:
                w = self.ray_w(w0, t, backward)
                zt = complex(z) if t == 0.0 else self.koenigs.invert(w)
                samples.append(self._sample(t, zt, w))
            return samples
        zs[ts == 0.0] = complex(z)
        return [self._sample(t, zt, w) for t, zt, w in
                zip(t_grid, zs.tolist(), ws.tolist())]

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
        # the ODE starts from z at t = 0, so a grid that starts later is
        # checked with a leading sample at 0 that is not returned
        lead = [0.0] if cross_check and t_grid[0] != 0.0 else []
        samples = self._pullback_trace(z, lead + t_grid, backward=True)
        if cross_check and len(samples) >= 2:
            self._cross_check(samples, backward=True)
        return samples[len(lead):]

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
                p_cur = self.phi(t_cur, z)
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


def _increasing_times(t_grid: Sequence[float]) -> list:
    """The grid as floats: not empty, finite and strictly increasing."""
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ParameterError("empty time grid")
    if not all(map(math.isfinite, ts)):
        raise ParameterError("grid times must be finite")
    for a, b in zip(ts, ts[1:]):
        if not b > a:
            raise ParameterError("time grid must be strictly increasing")
    return ts


def _check_times(t) -> None:
    """Reject a pullback time, or an entry of an array of them, that is
    not finite or is negative."""
    if isinstance(t, np.ndarray):
        finite, negative = np.isfinite(t).all(), (t < 0).any()
    else:
        finite, negative = math.isfinite(t), t < 0
    if not finite:
        raise ParameterError("phi times must be finite")
    if negative:
        raise ParameterError("phi is defined for t >= 0")


def _validated_grid(t_grid: Sequence[float], require_zero_start: bool) -> list:
    ts = _increasing_times(t_grid)
    if not ts[0] >= 0:
        raise ParameterError("grid times must be nonnegative")
    if require_zero_start and ts[0] != 0.0:
        raise ParameterError("forward grids must start at t = 0")
    return ts

