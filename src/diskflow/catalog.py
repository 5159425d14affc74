"""Built-in semigroup scenarios and the example-domain audit fixtures.

Six map-backed scenarios: half-plane and strip translation flows, the
upper-half-plane domain flow, two elliptic flows on the disk (dilation and
spiral), and a channel flow whose Koenigs domain {Re w > log cos(Im w)} is
the exact image of a Moebius/log chain.  The three example domains (slit
strip and the two logarithmic channels) have no exact Riemann map inside
the chain algebra, so their audits run in Koenigs coordinates through
interval bounds.
"""

from __future__ import annotations

import math

from .analysis import OrbitTrack
from .confmap import Affine, Exp, Log, MapExpr, Mobius, Power
from .domains import (Channel, HalfPlane, HalfStrip, SlitStrip, Strip,
                      example1_domain, example2_domain, example3_domain,
                      exp_channel_domain, unit_disk)
from .errors import ParameterError
from .semigroup import ELLIPTIC, NONELLIPTIC, Semigroup

BUILTIN_NAMES = ("halfplane", "strip", "uhp", "dilation", "spiral", "channel")
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
    object.__setattr__(omega, "exact", h.inverted())
    return Semigroup(NONELLIPTIC, h, omega, name="channel")


def slit_tip_semigroup() -> Semigroup:
    """Strip {|Im| < 1} minus the half-line L[-1, 0]: the backward orbit from
    h^{-1}(1) lands on the slit tip at T_z = 2, where the generator blows up
    and the criterion ratio diverges (the refutation fixture)."""
    a = math.exp(-0.5 * math.pi)
    omega_to_disk = MapExpr((
        Affine(0.5 * math.pi, 0.0),     # strip -> {|Im| < pi/2} minus slit
        Exp(),                          # -> RHP minus (0, a]
        Power(2.0, 0.0),                # -> C minus (-inf, a^2]
        Affine(1.0, -a * a),            # -> C minus (-inf, 0]
        Power(0.5, 0.0),                # -> RHP
        Mobius(1, -1, 1, 1),            # -> D
    ))
    omega = SlitStrip(half_width=1.0, slits=((-1.0, 0.0),),
                      exact=omega_to_disk)
    object.__setattr__(omega_to_disk, "source", omega)
    object.__setattr__(omega_to_disk, "target", unit_disk())
    h = omega_to_disk.inverted()
    return Semigroup(NONELLIPTIC, h, omega, name="slit_tip")


_BUILTINS = {
    "halfplane": halfplane_semigroup,
    "strip": strip_semigroup,
    "uhp": upper_halfplane_semigroup,
    "dilation": elliptic_dilation_semigroup,
    "spiral": elliptic_spiral_semigroup,
    "channel": channel_semigroup,
}

_DEFAULT_STARTS = {
    "halfplane": 0j,
    "strip": 0j,
    "uhp": 0j,
    "dilation": 0.5 + 0j,
    "spiral": 0.5 + 0j,
    "channel": 0j,
}


def builtin_semigroup(name: str) -> Semigroup:
    if name not in _BUILTINS:
        raise ParameterError(f"unknown builtin scenario {name!r}; "
                             f"choose from {BUILTIN_NAMES}")
    return _BUILTINS[name]()


def builtin_start(name: str) -> complex:
    if name not in _DEFAULT_STARTS:
        raise ParameterError(f"unknown builtin scenario {name!r}")
    return _DEFAULT_STARTS[name]


# ---------------------------------------------------------------------------
# Koenigs-plane example fixtures
# ---------------------------------------------------------------------------


def example_track(example_id: int, truncation: int = 40) -> OrbitTrack:
    """Backward track from w0 = 0 in one of the example domains."""
    if example_id == 1:
        dom = example1_domain(truncation)
        label = "example1"
    elif example_id == 2:
        dom = example2_domain()
        label = "example2"
    elif example_id == 3:
        dom = example3_domain()
        label = "example3"
    else:
        raise ParameterError("example id must be 1, 2 or 3")
    return OrbitTrack.from_omega(dom, 0j, NONELLIPTIC, label=label)


def exp_channel_track() -> OrbitTrack:
    """Exponential channel: the euclidean sufficient test fails here."""
    return OrbitTrack.from_omega(exp_channel_domain(), 0j, NONELLIPTIC,
                                 label="exp_channel")


def slit_tip_track() -> OrbitTrack:
    """Map-backed track for the refutation fixture, with w0 pinned exactly
    on the slit axis (the pullback roundtrip would leave ~1e-17 imaginary
    dust and the ray would sneak past the measure-zero slit)."""
    sg = slit_tip_semigroup()
    z0 = sg.disk_point(1.0 + 0j)
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
