"""Composable conformal-map expressions.

A map is an ordered chain of invertible primitives (Moebius, affine, exp,
log, power, sin, tanh).  Chains evaluate, differentiate (chain rule), and
invert either primitive-by-primitive in closed form or by seeded Newton
iteration.  Branch-carrying primitives (log, power) store an explicit
branch-center angle; evaluation within 1e-13 of the cut is an error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    CompositionError,
    DomainError,
    EvaluationError,
    InversionError,
    ParameterError,
    ScenarioError,
    check_keys,
    json_complex,
    json_number,
)

_CUT_TOL = 1e-13
_ROUNDTRIP_TOL = 1e-10
_COMPOSE_SAMPLES, _COMPOSE_SEED = 64, 7
_CUT_PATH_STEPS = 16


def _branch_arg(z: complex, center: float) -> float:
    """Argument of z in the branch (center-pi, center+pi]; error near the cut."""
    if z == 0:
        raise EvaluationError("log/power branch point 0 reached")
    m = math.remainder(cmath.phase(z) - center, 2.0 * math.pi)
    if math.pi - abs(m) < _CUT_TOL:
        raise EvaluationError(
            f"value {z!r} lies within {_CUT_TOL} of the branch cut at angle "
            f"{center + math.pi:.6f}"
        )
    return center + m


# Float errors a primitive may raise; the chain walks catch them and type
# them through _typed, so primitive methods are plain expressions.
_FLOAT_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def _typed(exc: Exception, z: complex) -> EvaluationError:
    """The EvaluationError for a float error a primitive raised at input z."""
    if isinstance(exc, OverflowError):
        return EvaluationError(f"overflow evaluating at {z!r}", overflow=True)
    if isinstance(exc, ZeroDivisionError):
        return EvaluationError(f"pole reached at {z!r}")
    return EvaluationError(f"invalid value at {z!r}: {exc}")


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mobius:
    a: complex
    b: complex
    c: complex
    d: complex

    op_name = "mobius"

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det == 0:
            raise ParameterError("Moebius coefficients must satisfy ad - bc != 0")

    def evaluate(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def derivative(self, z: complex) -> complex:
        det = self.a * self.d - self.b * self.c
        return det / (self.c * z + self.d) ** 2

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def matrix(self):
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class Affine:
    a: complex
    b: complex

    op_name = "affine"

    def __post_init__(self):
        if self.a == 0:
            raise ParameterError("affine scale must be nonzero")

    def evaluate(self, z: complex) -> complex:
        return self.a * z + self.b

    def derivative(self, z: complex) -> complex:
        return self.a

    def inverse(self) -> "Affine":
        return Affine(1.0 / self.a, -self.b / self.a)

    def matrix(self):
        return (self.a, self.b, 0j, 1 + 0j)


@dataclass(frozen=True)
class Exp:
    op_name = "exp"

    def evaluate(self, z: complex) -> complex:
        return cmath.exp(z)

    def derivative(self, z: complex) -> complex:
        return cmath.exp(z)

    def inverse(self) -> "Log":
        return Log()


@dataclass(frozen=True)
class Log:
    center: float = 0.0

    op_name = "log"

    def evaluate(self, z: complex) -> complex:
        arg = _branch_arg(z, self.center)
        return complex(math.log(abs(z)), arg)

    def derivative(self, z: complex) -> complex:
        _branch_arg(z, self.center)
        return 1.0 / z

    def inverse(self) -> Exp:
        return Exp()


@dataclass(frozen=True)
class Power:
    p: float
    center: float = 0.0

    op_name = "power"

    def __post_init__(self):
        if self.p == 0:
            raise ParameterError("power exponent must be nonzero")

    def evaluate(self, z: complex) -> complex:
        arg = _branch_arg(z, self.center)
        return cmath.exp(self.p * complex(math.log(abs(z)), arg))

    def derivative(self, z: complex) -> complex:
        arg = _branch_arg(z, self.center)
        return self.p * cmath.exp((self.p - 1.0) * complex(math.log(abs(z)), arg))

    def inverse(self) -> "Power":
        return Power(1.0 / self.p, self.center * self.p)


@dataclass(frozen=True)
class Sin:
    op_name = "sin"

    def evaluate(self, z: complex) -> complex:
        return cmath.sin(z)

    def derivative(self, z: complex) -> complex:
        return cmath.cos(z)

    def inverse(self) -> "Asin":
        return Asin()


@dataclass(frozen=True)
class Tanh:
    op_name = "tanh"

    def evaluate(self, z: complex) -> complex:
        return cmath.tanh(z)

    def derivative(self, z: complex) -> complex:
        c = cmath.cosh(z)
        return 1.0 / (c * c)

    def inverse(self) -> "Atanh":
        return Atanh()


@dataclass(frozen=True)
class Asin:
    """Principal arcsine; internal inverse of Sin (not scenario-serializable)."""

    op_name = "asin"

    def evaluate(self, z: complex) -> complex:
        return cmath.asin(z)

    def derivative(self, z: complex) -> complex:
        return 1.0 / cmath.sqrt(1.0 - z * z)

    def inverse(self) -> Sin:
        return Sin()


@dataclass(frozen=True)
class Atanh:
    """Principal artanh; internal inverse of Tanh (not scenario-serializable)."""

    op_name = "atanh"

    def evaluate(self, z: complex) -> complex:
        return cmath.atanh(z)

    def derivative(self, z: complex) -> complex:
        return 1.0 / (1.0 - z * z)

    def inverse(self) -> Tanh:
        return Tanh()


_PRIMITIVES = {
    cls.op_name: cls for cls in (Mobius, Affine, Exp, Log, Power, Sin, Tanh)
}


def _params(prim) -> dict:
    """The JSON parameters of a primitive, which from_dict reads back: its
    fields, complex values as [re, im] pairs."""
    out = {}
    for f in fields(prim):
        v = getattr(prim, f.name)
        out[f.name] = [complex(v).real, complex(v).imag] if f.type == "complex" else v
    return out


def _fuse_chain(chain: Sequence) -> tuple:
    """Fuse adjacent Moebius/affine primitives and drop exact identities.

    Fusing matters numerically: a composed chain like f^{-1} followed by a
    Moebius Koenigs map can saturate near the disk boundary if evaluated in
    two steps, while the fused single Moebius stays well-conditioned.  A
    lone identity is kept as given, so a fused chain's primitive-wise
    inverse is fused as it stands and inverts with the same bits (the
    inverse of Affine(1, 0) is Affine(1, -0.0)).
    """
    out: list = []
    for prim in chain:
        if isinstance(prim, (Mobius, Affine)) and out and isinstance(out[-1], (Mobius, Affine)):
            a1, b1, c1, d1 = out[-1].matrix()
            a2, b2, c2, d2 = prim.matrix()
            # prim applied after out[-1]: matrix product A2 @ A1
            fused = (a2 * a1 + b2 * c1, a2 * b1 + b2 * d1,
                     c2 * a1 + d2 * c1, c2 * b1 + d2 * d1)
            out[-1] = _demote(Mobius(*fused))
        else:
            out.append(prim)
    cleaned = [p for p in out if not (isinstance(p, Affine) and p.a == 1 and p.b == 0)]
    return tuple(cleaned or out or [Affine(1.0, 0.0)])


def _demote(m: Mobius):
    if m.c == 0:
        return Affine(m.a / m.d, m.b / m.d)
    return m


# ---------------------------------------------------------------------------
# MapExpr
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapExpr:
    """A conformal map given as a composition chain.

    ``chain[0]`` is applied first.  ``source``/``target`` are Domain values
    (or None for unchecked); membership is enforced on ``evaluate`` and
    ``invert`` entry points, not on internal iterations.
    """

    chain: tuple
    source: object = None
    target: object = None

    def __post_init__(self):
        object.__setattr__(self, "chain", _fuse_chain(self.chain))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, z: complex, check: bool = True) -> complex:
        z = complex(z)
        if check and self.source is not None and not self.source.contains(z):
            raise DomainError(f"{z!r} is not in the map source")
        return self._evaluate_unchecked(z)

    def _evaluate_unchecked(self, z: complex) -> complex:
        w = z
        try:
            for prim in self.chain:
                w = prim.evaluate(w)
        except _FLOAT_ERRORS as exc:
            raise _typed(exc, w) from exc
        return w

    def jet(self, z: complex, check: bool = True) -> tuple:
        """(h(z), h'(z)) in one walk of the chain (chain rule)."""
        z = complex(z)
        if check and self.source is not None and not self.source.contains(z):
            raise DomainError(f"{z!r} is not in the map source")
        w, deriv = z, 1.0 + 0.0j
        try:
            for prim in self.chain:
                deriv *= prim.derivative(w)
                w = prim.evaluate(w)
        except _FLOAT_ERRORS as exc:
            raise _typed(exc, w) from exc
        return w, deriv

    def derivative(self, z: complex, check: bool = True) -> complex:
        return self.jet(z, check)[1]

    def __call__(self, z: complex) -> complex:
        return self.evaluate(z)

    # -- inversion ---------------------------------------------------------

    def invert(self, w: complex, seed: Optional[complex] = None,
               check: bool = True) -> complex:
        w = complex(w)
        if check and self.target is not None and not self.target.contains(w):
            raise DomainError(f"{w!r} is not in the map target")
        try:
            abs(w)  # the roundtrip tolerances scale with |w|
            z, overflow = self.inverted()._evaluate_unchecked(w), None
        except OverflowError as exc:
            raise _typed(exc, w) from exc
        except EvaluationError as exc:
            z, overflow = None, (exc if exc.overflow else None)
        if z is not None and not cmath.isfinite(z):
            # complex arithmetic overflows to inf or nan without raising
            z, overflow = None, _typed(OverflowError(), w)
        if z is not None and self._closed_form_acceptable(z, w):
            return z
        try:
            return self._invert_newton(w, seed if seed is not None else z)
        except InversionError:
            # the forward map passes through the same overflowing
            # intermediate at the true preimage, so Newton cannot reach it:
            # w lies past the representable horizon
            if overflow is None:
                raise
            raise overflow from None

    def _closed_form_acceptable(self, z: complex, w: complex) -> bool:
        # Near the source boundary a verified roundtrip would itself overflow;
        # the closed form is trusted there.
        if self.source is not None:
            try:
                if not self.source.boundary_distance(z, strict=False) > 1e-12:
                    return True
            except Exception:
                pass
        try:
            hz, dz = self.jet(z, check=False)
        except EvaluationError:
            # forward evaluation only fails in singular/boundary territory,
            # where the primitive-wise inverse is the trustworthy route
            return True
        # one ulp of z-space error is |h'(z)| ulp in w-space; do not reject
        # an inverse for noise the roundtrip cannot avoid.  Past the float
        # range a residual rejects and a noise bound accepts.
        try:
            resid = abs(hz - w)
        except OverflowError:
            return False
        try:
            noise = abs(dz) * (1.0 + abs(z)) * 1e-12
        except OverflowError:
            return True
        return resid <= max(_ROUNDTRIP_TOL * max(1.0, abs(w)), noise)

    def _invert_newton(self, w: complex, seed: Optional[complex]) -> complex:
        if seed is None:
            raise InversionError(
                f"closed-form inversion failed at {w!r} and no Newton seed given")
        x = complex(seed)
        best_x, best_r = x, math.inf
        tol = _ROUNDTRIP_TOL * max(1.0, abs(w))
        for _ in range(100):
            try:
                fx, dfx = self.jet(x, check=False)
                r = abs(fx - w)
            except (EvaluationError, OverflowError):
                break
            if r < best_r:
                best_x, best_r = x, r
            if r <= tol:
                return x
            if dfx == 0:
                break
            step = (fx - w) / dfx
            # step halving on non-improvement
            accepted = False
            for _ in range(20):
                cand = x - step
                try:
                    rc = abs(self._evaluate_unchecked(cand) - w)
                except (EvaluationError, OverflowError):
                    rc = math.inf
                if rc < r:
                    x = cand
                    accepted = True
                    break
                step /= 2.0
            if not accepted:
                break
        if best_r <= tol:
            return best_x
        raise InversionError(
            f"Newton inversion failed at {w!r}",
            best_residual=best_r, best_point=best_x)

    # -- structure ---------------------------------------------------------

    def inverted(self) -> "MapExpr":
        """The inverse map as an expression (internal primitives allowed),
        built on the first call and kept."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "MapExpr":
        return MapExpr(tuple(p.inverse() for p in reversed(self.chain)),
                       source=self.target, target=self.source)

    def serializable(self) -> bool:
        return all(p.op_name in _PRIMITIVES for p in self.chain)

    def to_dict(self) -> dict:
        if not self.serializable():
            raise ParameterError("chain contains internal-only primitives")
        return {"chain": [{"op": p.op_name, **_params(p)} for p in self.chain]}

    @classmethod
    def from_dict(cls, data: dict, source=None, target=None) -> "MapExpr":
        """The map of {"chain": [{"op": name, <parameters>}, ...]}; a
        malformed spec raises ScenarioError (a ParameterError)."""
        check_keys(data, ("chain",), ("chain",), "map")
        if not isinstance(data["chain"], list):
            raise ScenarioError("map chain must be a list")
        prims = []
        for item in data["chain"]:
            op = item.get("op") if isinstance(item, dict) else None
            if op not in _PRIMITIVES:
                raise ScenarioError(f"unknown map primitive {op!r}")
            kind = _PRIMITIVES[op]
            params = fields(kind)
            check_keys(item, ["op", *(f.name for f in params)],
                        [f.name for f in params if f.default is MISSING],
                        f"{op} primitive")
            prims.append(kind(**{
                f.name: (json_complex if f.type == "complex" else json_number)(
                    item[f.name], f"{op}.{f.name}")
                for f in params if f.name in item}))
        return cls(tuple(prims), source=source, target=target)

    @classmethod
    def identity(cls, domain=None) -> "MapExpr":
        return cls((Affine(1.0, 0.0),), source=domain, target=domain)


def compose(outer: MapExpr, inner: MapExpr) -> MapExpr:
    """outer after inner.

    Validation is sampled at 64 seeded interior points of the inner source:
    inner images must land in the outer source, and the composite is
    evaluated along fine paths between sample points so a branch cut
    crossing the image is rejected (never silently re-rotated).
    """
    composed = MapExpr(inner.chain + outer.chain,
                       source=inner.source, target=outer.target)
    if inner.target is not None and outer.source is not None:
        pts = [] if inner.source is None else inner.source.interior_samples(
            _COMPOSE_SAMPLES, _COMPOSE_SEED)
        for z in pts:
            try:
                w = inner.evaluate(z, check=False)
            except EvaluationError:
                continue
            if not outer.source.contains(w):
                raise CompositionError(
                    f"inner image point {w!r} (of {z!r}) escapes the outer source")
        for a, b in zip(pts, pts[1:]):
            _reject_cut_crossings(composed, a, b)
    return composed


def _branch_args_along(m: MapExpr, z: complex):
    """Branch arguments seen by each Log/Power stage when evaluating at z."""
    w = z
    args = []
    try:
        for prim in m.chain:
            if isinstance(prim, (Log, Power)):
                args.append(_branch_arg(w, prim.center))
            w = prim.evaluate(w)
    except _FLOAT_ERRORS as exc:
        raise _typed(exc, w) from exc
    return args


def _reject_cut_crossings(m: MapExpr, a: complex, b: complex):
    """Walk a path of _CUT_PATH_STEPS steps from a to b; a branch argument
    jumping by more than pi between neighbouring path points means an
    intermediate value crossed a cut, which is rejected rather than
    re-rotated."""
    prev = None
    for k in range(_CUT_PATH_STEPS + 1):
        z = a + (b - a) * k / _CUT_PATH_STEPS
        if m.source is not None and not m.source.contains(z):
            prev = None
            continue
        try:
            args = _branch_args_along(m, z)
        except EvaluationError:
            prev = None
            continue
        if prev is not None and len(prev) == len(args):
            for p, q in zip(prev, args):
                if abs(q - p) > math.pi:
                    raise CompositionError(
                        f"composite crosses a branch cut near {z!r} "
                        f"(branch argument jumped {p:.3f} -> {q:.3f})")
        prev = args
