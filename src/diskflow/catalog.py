"""Built-in semigroup scenarios and the example-domain audit fixtures.

Six map-backed scenarios: half-plane and strip translation flows, the
upper-half-plane domain flow, two elliptic flows on the disk (dilation and
spiral), and a channel flow whose Koenigs domain {Re w > log cos(Im w)} is
the exact image of a Moebius/log chain.  Each semigroup's domain reads its
hyperbolic quantities through the inverse Koenigs map, which ``Semigroup``
installs where the domain has no Riemann map of its own.  Four mapless
scenarios: the three example domains (slit strip and the two logarithmic
channels) and the exponential channel have no exact Riemann map inside the
chain algebra, so their audits run in Koenigs coordinates through interval
bounds.
"""

from __future__ import annotations

import math

from .analysis import OrbitTrack
from .confmap import Affine, Exp, Log, MapExpr, Mobius, Power
from .domains import (Channel, Domain, HalfPlane, HalfStrip, SlitStrip, Strip,
                      example1_domain, example2_domain, example3_domain,
                      exp_channel_domain, unit_disk)
from .errors import ParameterError
from .semigroup import ELLIPTIC, NONELLIPTIC, Semigroup

# literal, so that importing builds no semigroup; a test keeps them equal to
# the builtins' kinds and to the convexity of their domains, sampled
NONELLIPTIC_BUILTINS = ("halfplane", "strip", "uhp", "channel")
CONVEX_BUILTINS = ("halfplane", "strip", "uhp", "dilation", "spiral")
EXAMPLE_IDS = (1, 2, 3)


def halfplane_semigroup() -> Semigroup:
    """h(z) = (1+z)/(1-z) onto the right half-plane; phi_t(0) = t/(t+2)."""
    omega = HalfPlane("right", 0.0)
    h = MapExpr((Mobius(1, 1, -1, 1),), source=unit_disk(), target=omega)
    return Semigroup(NONELLIPTIC, h, omega, name="halfplane")


def strip_semigroup() -> Semigroup:
    """h(z) = (2/pi) log((1+z)/(1-z)) onto {|Im| < 1}; phi_t(0) = tanh(pi t/4)."""
    omega = Strip(1.0, 0.0)
    h = MapExpr((Mobius(1, 1, -1, 1), Log(0.0), Affine(2.0 / math.pi, 0.0)),
                source=unit_disk(), target=omega)
    return Semigroup(NONELLIPTIC, h, omega, name="strip")


def upper_halfplane_semigroup() -> Semigroup:
    """h(z) = i(1+z)/(1-z) onto {Im > 0}: the finite-shift fixture."""
    omega = HalfPlane("upper", 0.0)
    h = MapExpr((Mobius(1j, 1j, -1, 1),), source=unit_disk(), target=omega)
    return Semigroup(NONELLIPTIC, h, omega, name="uhp")


def elliptic_dilation_semigroup() -> Semigroup:
    """h = id, mu = 1: phi_t(z) = exp(-t) z."""
    omega = unit_disk()
    h = MapExpr((Affine(1.0, 0.0),), source=unit_disk(), target=omega)
    return Semigroup(ELLIPTIC, h, omega, mu=1.0, name="dilation")


def elliptic_spiral_semigroup() -> Semigroup:
    """h = id, mu = 1+i: phi_t(z) = exp(-(1+i)t) z."""
    omega = unit_disk()
    h = MapExpr((Affine(1.0, 0.0),), source=unit_disk(), target=omega)
    return Semigroup(ELLIPTIC, h, omega, mu=1.0 + 1.0j, name="spiral")


def channel_semigroup() -> Semigroup:
    """Chain-exact channel flow.

    D -> UHP -> {0<Im<pi} -> {0<Im<1} -> UHP minus disk(i/2, 1/2) -> log ->
    shift gives Omega = {|Im w| < pi/2, Re w > log cos(Im w)}: the strip with
    a leftward tongue removed, pinching into two exponentially narrowing
    edge channels.  h(0) = log 2.
    """
    chain = (
        Mobius(1j, 1j, -1, 1),          # D -> UHP
        Log(0.5 * math.pi),             # UHP -> {0 < Im < pi}, cut kept below
        Affine(1.0 / math.pi, 0.0),     # -> {0 < Im < 1}
        Mobius(0, -1, 1, 0),            # v -> -1/v: UHP minus disk(i/2, 1/2)
        Log(0.5 * math.pi),             # -> {x > log sin y, 0 < y < pi}
        Affine(1.0, -0.5j * math.pi),   # center the strip
    )
    omega = Channel(profile="log_cos")
    h = MapExpr(chain, source=unit_disk(), target=omega)
    return Semigroup(NONELLIPTIC, h, omega, name="channel")


def slit_tip_semigroup() -> Semigroup:
    """Strip {|Im| < 1} minus the half-line L[-1, 0]: the backward orbit from
    h^{-1}(1) lands on the slit tip at T_z = 2, where the generator blows up
    and the criterion ratio diverges (the refutation fixture)."""
    a = math.exp(-0.5 * math.pi)
    omega = SlitStrip(half_width=1.0, slits=((-1.0, 0.0),))
    omega_to_disk = MapExpr((
        Affine(0.5 * math.pi, 0.0),     # strip -> {|Im| < pi/2} minus slit
        Exp(),                          # -> RHP minus (0, a]
        Power(2.0, 0.0),                # -> C minus (-inf, a^2]
        Affine(1.0, -a * a),            # -> C minus (-inf, 0]
        Power(0.5, 0.0),                # -> RHP
        Mobius(1, -1, 1, 1),            # -> D
    ), source=omega, target=unit_disk())
    h = omega_to_disk.inverted()
    return Semigroup(NONELLIPTIC, h, omega, name="slit_tip")


# name -> (the semigroup's factory, the default start point)
_BUILTINS = {
    "halfplane": (halfplane_semigroup, 0j),
    "strip": (strip_semigroup, 0j),
    "uhp": (upper_halfplane_semigroup, 0j),
    "dilation": (elliptic_dilation_semigroup, 0.5 + 0j),
    "spiral": (elliptic_spiral_semigroup, 0.5 + 0j),
    "channel": (channel_semigroup, 0j),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def _builtin(name: str) -> tuple:
    if name not in _BUILTINS:
        raise ParameterError(f"unknown builtin scenario {name!r}; "
                             f"choose from {BUILTIN_NAMES}")
    return _BUILTINS[name]


def builtin_semigroup(name: str) -> Semigroup:
    return _builtin(name)[0]()


def builtin_start(name: str) -> complex:
    return _builtin(name)[1]


# ---------------------------------------------------------------------------
# Koenigs-plane example fixtures
# ---------------------------------------------------------------------------


# name -> (the Koenigs domain's factory, the default Koenigs-plane start);
# example 1's factory takes its slit truncation
_MAPLESS = {
    "example1": (example1_domain, 0j),
    "example2": (example2_domain, 0j),
    "example3": (example3_domain, 0j),
    "exp_channel": (exp_channel_domain, 0j),
}
MAPLESS_NAMES = tuple(_MAPLESS)


def mapless_builtin(name: str) -> tuple[Domain, complex]:
    """(domain, start w0) of a mapless builtin scenario."""
    if name not in _MAPLESS:
        raise ParameterError(f"unknown mapless builtin {name!r}; "
                             f"choose from {MAPLESS_NAMES}")
    factory, w0 = _MAPLESS[name]
    return factory(), w0


def example_track(example_id: int, truncation: int = 40) -> OrbitTrack:
    """Backward track from the start of the builtin ``example<id>``,
    example 1 with ``truncation`` slit pairs."""
    if example_id not in EXAMPLE_IDS:
        raise ParameterError("example id must be 1, 2 or 3")
    name = f"example{example_id}"
    factory, w0 = _MAPLESS[name]
    omega = factory(truncation) if example_id == 1 else factory()
    return OrbitTrack.from_omega(omega, w0, NONELLIPTIC, label=name)


def exp_channel_track() -> OrbitTrack:
    """Exponential channel: the euclidean sufficient test fails here."""
    omega, w0 = mapless_builtin("exp_channel")
    return OrbitTrack.from_omega(omega, w0, NONELLIPTIC, label="exp_channel")


def slit_tip_track() -> OrbitTrack:
    """Map-backed track for the refutation fixture, with w0 pinned exactly
    on the slit axis (the pullback roundtrip would leave ~1e-17 imaginary
    dust and the ray would sneak past the measure-zero slit)."""
    sg = slit_tip_semigroup()
    z0 = sg.koenigs.invert(1.0 + 0j)
    return OrbitTrack(omega=sg.omega, w0=1.0 + 0j, kind=NONELLIPTIC,
                      semigroup=sg, z=z0, label="slit_tip")


def example1_enclosure(t: float) -> HalfStrip | None:
    """The half-strip Sigma_t = {Re > -2^floor(t), |Im| < 1/floor(t)}
    used as a distance enclosure for k(0, -t) in the Example-1 domain.

    Beyond n = 500 the abscissa -2^n leaves double range; the automatically
    fitted half-strip (which is tighter anyway) takes over there."""
    n = math.floor(t)
    if not 1 <= n <= 500:
        return None
    return HalfStrip(left=-float(2 ** n), half_width=1.0 / n, center=0.0)


def example1_displayed_expression(t: float) -> float:
    """floor(t) (2^floor(t) - t) / (4 * 2^floor(t)): the shortcut
    lower-bound display for the Example-1 ratio (overflow-safe form
    n (1 - t 2^{-n}) / 4)."""
    n = math.floor(t)
    scale = 2.0 ** -n if n < 1074 else 0.0
    return n * (1.0 - t * scale) / 4.0


# the examples report's note on example 1's displayed expressions
EXAMPLE1_NOTE = (
    "The displayed shortcut bounds for this domain conflict with the exact "
    "geometry: delta(-t) <= 1/floor(t) fails because with slits starting at "
    "Re = -2^n the distance at -t is governed by slits with 2^n <= t, "
    "i.e. ~ 1/floor(log2 t); and the shortcut half-strip distance "
    "0.5 log(2^n/(2^n - t)) conflicts with the exact value "
    "0.5 (log sinh(pi n 2^n / 2) - log sinh(pi n (2^n - t)/2)) ~ pi n t / 4. "
    "All evaluations are reported side by side; no divergence verdict is "
    "asserted as ground truth.")
