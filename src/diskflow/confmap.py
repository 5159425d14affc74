"""Composable conformal-map expressions.

A map is an ordered chain of invertible primitives (Moebius, affine, exp,
log, power, sin, tanh).  Chains evaluate, differentiate (chain rule), and
invert primitive-by-primitive in closed form, which the roundtrip
h(h^{-1}(w)) = w gates.  Branch-carrying primitives (log, power) store an
explicit branch-center angle; evaluation within 1e-13 of the cut is an
error.

``MapExpr.invert`` also takes a complex array.  Each primitive's expression
then runs once on re/im pairs of float64 arrays whose arithmetic replays
CPython's complex formulas, so every entry has the bits of the scalar call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import repeat
from types import ModuleType
from typing import Sequence

import numpy as np

from .errors import (
    CompositionError,
    DomainError,
    EvaluationError,
    InversionError,
    ParameterError,
    ScenarioError,
    check_keys,
    read_fields,
    scenario_schema,
)

_CUT_TOL = 1e-13
_ROUNDTRIP_TOL = 1e-10
_COMPOSE_SAMPLES, _COMPOSE_SEED = 64, 7
_CUT_PATH_STEPS = 16


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
# The two number types of a primitive's expression
# ---------------------------------------------------------------------------
#
# A primitive's value expression runs on a Python complex or on a _ReIm,
# which holds float64 arrays of real and imaginary parts.  The functions it
# calls come from a namespace ``f``: _SCALAR (math and cmath themselves)
# for a complex, and a _ReImMath for a _ReIm, which makes the same
# math/cmath call on each entry's Python value.  A jet runs on a Python
# complex alone and calls math and cmath directly.  NumPy's own complex
# arithmetic, arctan2, log and remainder round differently from CPython's
# in the last bits, so they are not used.  Where the scalar expression
# would raise, the _ReIm marks the entry in its namespace's ``faults`` and
# goes on.

# _SCALAR is a module object because CPython specializes attribute loads
# from modules: the scalar route then runs at the speed of direct calls.
_SCALAR = ModuleType("diskflow.confmap.scalar")
vars(_SCALAR).update(
    exp=cmath.exp, sin=cmath.sin, tanh=cmath.tanh, asin=cmath.asin,
    atanh=cmath.atanh, phase=cmath.phase, log=math.log,
    remainder=math.remainder, complex=complex, fails=bool)


def _operand(x) -> tuple:
    """(re, im) of an operand of _ReIm arithmetic.  A Python number becomes
    complex(x, 0.0) first, as Python 3.11 promotes an int or float before
    mixing it with a complex."""
    if type(x) is _ReIm:
        return x.real, x.imag
    x = complex(x)
    return x.real, x.imag


def _prod(ar, ai, br, bi) -> tuple:
    """_Py_c_prod."""
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(ar, ai, br, bi) -> tuple:
    """_Py_c_quot, and where the divisor is 0 (a ZeroDivisionError on the
    scalar route).  Smith's method scales by the larger part of the
    divisor; an entry with a NaN part in the divisor takes the second
    branch, which gives NaN as C does."""
    br, bi = np.asarray(br, float), np.asarray(bi, float)
    by_im = ~(abs(br) >= abs(bi))
    ratio = bi / br
    denom = br + bi * ratio
    re, im = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    if by_im.any():
        ratio = br / bi
        denom = br * ratio + bi
        np.copyto(re, (ar * ratio + ai) / denom, where=by_im)
        np.copyto(im, (ai * ratio - ar) / denom, where=by_im)
    return re, im, (br == 0) & (bi == 0)


def complex_abs(re, im) -> tuple:
    """abs(complex(re, im)) entry by entry with the scalar bits (_Py_c_abs
    is hypot), and where the scalar abs raises OverflowError: an infinite
    result from finite parts."""
    h = np.hypot(re, im)
    overflow = np.isinf(h)
    if overflow.any():
        overflow &= np.isfinite(re) & np.isfinite(im)
    return h, overflow


def _modulus(z: complex) -> float:
    """abs(z), and inf where it overflows, as np.hypot gives it."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


class _ReIm:
    """Complex entries held as float64 arrays of real and imaginary parts.

    Arithmetic replays CPython 3.11's complex formulas on the parts, so each
    entry has the bits of the scalar expression: z + w and z - w part by
    part, a * z as _Py_c_prod, z / w as _Py_c_quot, and abs as hypot: the
    operations the primitives' ``evaluate`` makes.  Where the scalar
    expression raises (division by 0, an overflowing abs), the entry is
    marked in ``f.faults``."""

    __slots__ = ("real", "imag", "f")
    __array_ufunc__ = None  # a NumPy scalar operand defers to the methods
    __hash__ = None

    def __init__(self, real, imag, f):
        self.real, self.imag, self.f = real, imag, f

    def __add__(self, other):
        br, bi = _operand(other)
        return _ReIm(self.real + br, self.imag + bi, self.f)

    def __sub__(self, other):
        br, bi = _operand(other)
        return _ReIm(self.real - br, self.imag - bi, self.f)

    def __rmul__(self, other):
        return _ReIm(*_prod(*_operand(other), self.real, self.imag), self.f)

    def __truediv__(self, other):
        re, im, zero = _quot(self.real, self.imag, *_operand(other))
        self.f.faults |= zero
        return _ReIm(re, im, self.f)

    def hypot(self) -> tuple:
        return complex_abs(self.real, self.imag)

    def __abs__(self):
        h, overflow = self.hypot()
        self.f.faults |= overflow
        return h

    def __eq__(self, other):
        br, bi = _operand(other)
        return (self.real == br) & (self.imag == bi)

    def finite(self) -> np.ndarray:
        return np.isfinite(self.real) & np.isfinite(self.imag)

    def tolist(self) -> list:
        z = np.empty(len(self.real), complex)
        z.real, z.imag = self.real, self.imag
        return z.tolist()

    def per_entry(self, fn, dtype) -> np.ndarray:
        """fn on each entry's Python complex; an entry whose call raises
        anything is a fault (and reads 0), so it takes the scalar route,
        which raises or catches the error as it does alone."""
        out = np.zeros(len(self.real), dtype)
        for k, z in enumerate(self.tolist()):
            try:
                out[k] = fn(z)
            except Exception:
                self.f.faults[k] = True
        return out

    def apart(self) -> "_ReIm":
        """The same entries under a fresh namespace: the faults of what is
        computed from them are read apart from this one's."""
        return _ReImMath(len(self.real)).complex(self.real, self.imag)


def _entrywise(fn):
    """A _ReImMath function making the math/cmath call ``fn`` per entry."""
    def apply(self, z):
        return self.values(self.each(fn, z.tolist()))
    return apply


class _ReImMath:
    """The namespace ``f`` of a _ReIm expression, holding its faults.  Each
    function makes the scalar route's math/cmath call on every entry's
    Python value; an entry whose call raises a float error is a fault and
    reads NaN."""

    def __init__(self, n: int):
        self.faults = np.zeros(n, bool)

    def fails(self, cond) -> bool:
        """A scalar route's raising test: mark the entries and go on."""
        self.faults |= cond
        return False

    def complex(self, re: np.ndarray, im: np.ndarray) -> _ReIm:
        return _ReIm(re, im, self)

    def of_array(self, z: np.ndarray) -> _ReIm:
        if z.ndim != 1:
            raise ParameterError("the array route takes 1-d arrays")
        return self.complex(z.real, z.imag)

    def each(self, fn, *columns) -> list:
        try:
            return list(map(fn, *columns))
        except _FLOAT_ERRORS:
            out = []
            for k, args in enumerate(zip(*columns)):
                try:
                    out.append(fn(*args))
                except _FLOAT_ERRORS:
                    self.faults[k] = True
                    out.append(math.nan)
            return out

    def values(self, vals: list) -> _ReIm:
        z = np.array(vals, dtype=complex)
        return _ReIm(z.real, z.imag, self)

    def phase(self, z: _ReIm) -> np.ndarray:
        return np.array(self.each(cmath.phase, z.tolist()))

    def log(self, x: np.ndarray) -> np.ndarray:
        return np.array(self.each(math.log, x.tolist()))

    def remainder(self, x: np.ndarray, y: float) -> np.ndarray:
        return np.array(self.each(math.remainder, x.tolist(), repeat(y)))

    exp = _entrywise(cmath.exp)
    sin = _entrywise(cmath.sin)
    tanh = _entrywise(cmath.tanh)
    asin = _entrywise(cmath.asin)
    atanh = _entrywise(cmath.atanh)


def _branch_arg(z: complex, center: float, f=_SCALAR) -> float:
    """Argument of z in the branch (center-pi, center+pi]; error at the
    branch point 0 and near the cut."""
    m = f.remainder(f.phase(z) - center, 2.0 * math.pi)
    if f.fails((z == 0) | (math.pi - abs(m) < _CUT_TOL)):
        if z == 0:
            raise EvaluationError("log/power branch point 0 reached")
        raise EvaluationError(
            f"value {z!r} lies within {_CUT_TOL} of the branch cut at angle "
            f"{center + math.pi:.6f}"
        )
    return center + m


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

    def evaluate(self, z: complex, f=_SCALAR) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def jet(self, z: complex) -> tuple:
        q = self.c * z + self.d
        deriv = (self.a * self.d - self.b * self.c) / q ** 2
        return (self.a * z + self.b) / q, deriv

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

    def evaluate(self, z: complex, f=_SCALAR) -> complex:
        return self.a * z + self.b

    def jet(self, z: complex) -> tuple:
        return self.a * z + self.b, self.a

    def inverse(self) -> "Affine":
        return Affine(1.0 / self.a, -self.b / self.a)

    def matrix(self):
        return (self.a, self.b, 0j, 1 + 0j)


@dataclass(frozen=True)
class Exp:
    op_name = "exp"

    def evaluate(self, z: complex, f=_SCALAR) -> complex:
        return f.exp(z)

    def jet(self, z: complex) -> tuple:
        v = cmath.exp(z)
        return v, v

    def inverse(self) -> "Log":
        return Log()


@dataclass(frozen=True)
class Log:
    center: float = 0.0

    op_name = "log"

    def evaluate(self, z: complex, f=_SCALAR) -> complex:
        arg = _branch_arg(z, self.center, f)
        return f.complex(f.log(abs(z)), arg)

    def jet(self, z: complex) -> tuple:
        arg = _branch_arg(z, self.center)
        deriv = 1.0 / z
        return complex(math.log(abs(z)), arg), deriv

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

    def evaluate(self, z: complex, f=_SCALAR) -> complex:
        arg = _branch_arg(z, self.center, f)
        return f.exp(self.p * f.complex(f.log(abs(z)), arg))

    def jet(self, z: complex) -> tuple:
        arg = _branch_arg(z, self.center)
        log_z = complex(math.log(abs(z)), arg)
        deriv = self.p * cmath.exp((self.p - 1.0) * log_z)
        return cmath.exp(self.p * log_z), deriv

    def inverse(self) -> "Power":
        return Power(1.0 / self.p, self.center * self.p)


@dataclass(frozen=True)
class Sin:
    op_name = "sin"

    def evaluate(self, z: complex, f=_SCALAR) -> complex:
        return f.sin(z)

    def jet(self, z: complex) -> tuple:
        deriv = cmath.cos(z)
        return cmath.sin(z), deriv

    def inverse(self) -> "Asin":
        return Asin()


@dataclass(frozen=True)
class Tanh:
    op_name = "tanh"

    def evaluate(self, z: complex, f=_SCALAR) -> complex:
        return f.tanh(z)

    def jet(self, z: complex) -> tuple:
        c = cmath.cosh(z)
        deriv = 1.0 / (c * c)
        return cmath.tanh(z), deriv

    def inverse(self) -> "Atanh":
        return Atanh()


@dataclass(frozen=True)
class Asin:
    """Principal arcsine; internal inverse of Sin (not scenario-serializable)."""

    op_name = "asin"

    def evaluate(self, z: complex, f=_SCALAR) -> complex:
        return f.asin(z)

    def jet(self, z: complex) -> tuple:
        deriv = 1.0 / cmath.sqrt(1.0 - z * z)
        return cmath.asin(z), deriv

    def inverse(self) -> Sin:
        return Sin()


@dataclass(frozen=True)
class Atanh:
    """Principal artanh; internal inverse of Tanh (not scenario-serializable)."""

    op_name = "atanh"

    def evaluate(self, z: complex, f=_SCALAR) -> complex:
        return f.atanh(z)

    def jet(self, z: complex) -> tuple:
        deriv = 1.0 / (1.0 - z * z)
        return cmath.atanh(z), deriv

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
    """Fuse adjacent Moebius/affine primitives, demote every Moebius map
    with c = 0 to an affine one, and drop exact identities.

    Fusing matters numerically: a composed chain like f^{-1} followed by a
    Moebius Koenigs map can saturate near the disk boundary if evaluated in
    two steps, while the fused single Moebius stays well-conditioned.
    Demoting a lone Moebius map too gives each map one canonical form.  A
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
            out.append(_demote(prim) if isinstance(prim, Mobius) else prim)
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

    def _evaluate_unchecked(self, z: complex, f=_SCALAR) -> complex:
        """The value walk; ``f`` is the namespace of z's number type."""
        w = z
        try:
            for prim in self.chain:
                w = prim.evaluate(w, f)
        except _FLOAT_ERRORS as exc:
            raise _typed(exc, w) from exc
        return w

    def jet(self, z: complex, check: bool = True) -> tuple:
        """(h(z), h'(z)) in one walk of the chain (chain rule)."""
        z = complex(z)
        if check and self.source is not None and not self.source.contains(z):
            raise DomainError(f"{z!r} is not in the map source")
        return self._jet(z)

    def _jet(self, z: complex) -> tuple:
        w, deriv = z, 1.0 + 0.0j
        try:
            for prim in self.chain:
                w, d = prim.jet(w)
                deriv *= d
        except _FLOAT_ERRORS as exc:
            raise _typed(exc, w) from exc
        return w, deriv

    def derivative(self, z: complex, check: bool = True) -> complex:
        return self.jet(z, check)[1]

    # -- inversion ---------------------------------------------------------

    def invert(self, w: complex, check: bool = True) -> complex:
        """h^{-1}(w) in closed form: the value walk of the inverse chain,
        returned where the roundtrip accepts it.  A closed form that
        overflows or is not finite raises EvaluationError(overflow=True);
        any other fault of it, and a closed form the roundtrip rejects,
        raise InversionError.

        ``w`` may be a 1-d complex array, which gives a complex array with
        each scalar call's bits: NaN where the scalar call raises
        EvaluationError, and any other error raised as the first entry
        (in array order) raises it."""
        if isinstance(w, np.ndarray):
            return self._invert_array(w, check)
        w = complex(w)
        if check and self.target is not None and not self.target.contains(w):
            raise DomainError(f"{w!r} is not in the map target")
        try:
            abs(w)  # the roundtrip tolerances scale with |w|
            z = self.inverted()._evaluate_unchecked(w)
        except OverflowError as exc:
            raise _typed(exc, w) from exc
        except EvaluationError as exc:
            if exc.overflow:
                raise
            raise InversionError(
                f"closed-form inversion failed at {w!r}: {exc}") from exc
        if not cmath.isfinite(z):
            # complex arithmetic overflows to inf or nan without raising
            raise _typed(OverflowError(), w)
        if not self._closed_form_acceptable(z, w):
            resid = _modulus(self._evaluate_unchecked(z) - w)
            raise InversionError(
                f"closed form {z!r} at {w!r} fails the roundtrip: "
                f"residual {resid:.3e}")
        return z

    def _invert_array(self, w: np.ndarray, check: bool) -> np.ndarray:
        """invert over an array: the target check, the closed form and its
        acceptance run once on the re/im pairs of w.  An entry that any of
        them faults on or rejects takes the scalar invert, which types its
        error, so every entry has the scalar call's outcome."""
        w = np.asarray(w, dtype=complex)
        n = w.size
        with np.errstate(all="ignore"):
            wp = _ReImMath(n).of_array(w)
            if check and self.target is not None:
                wp.f.fails(~self.target.contains_many(wp))
            w_abs = abs(wp)
            z = self.inverted()._evaluate_unchecked(wp, wp.f)
            done = self._accepts(z, wp, w_abs, ~wp.f.faults & z.finite())
        out = np.empty(n, complex)
        out.real, out.imag = z.real, z.imag
        for k in np.flatnonzero(~done):
            try:
                out[k] = self.invert(w[k].item(), check)
            except EvaluationError:
                out[k] = complex(math.nan, math.nan)
        return out

    def _accepts(self, z: _ReIm, w: _ReIm, w_abs: np.ndarray,
                 todo: np.ndarray) -> np.ndarray:
        """The entries of ``todo`` where _closed_form_acceptable(z, w)
        accepts (|w| = w_abs), with the scalar bits and in its stage order.
        The value walk runs on the pairs; the few entries it leaves take
        the scalar jet, as the pairs' fixed cost per primitive would
        outweigh them."""
        zv = z.apart()  # the walk's faults, read apart from the inversion's
        resid, overflow = (self._evaluate_unchecked(zv, zv.f) - w).hypot()
        # Python's max(a, b) is b only where b > a
        tol = _ROUNDTRIP_TOL * np.where(w_abs > 1.0, w_abs, 1.0)
        ok = todo & (zv.f.faults | (~overflow & (resid <= tol)))
        for k in np.flatnonzero(todo & ~ok):
            ok[k] = self._jet_accepts(complex(z.real[k], z.imag[k]),
                                      None if overflow[k] else resid[k].item(),
                                      tol[k].item())
        return ok

    def _closed_form_acceptable(self, z: complex, w: complex) -> bool:
        """Whether invert returns the closed form z for w (it raises
        InversionError otherwise); _accepts answers the same on arrays.
        Forward evaluation only fails in singular or boundary territory,
        where the primitive-wise inverse is the trustworthy route.
        Elsewhere a residual past the float range rejects, and any other
        must lie within max(1e-10 max(1, |w|), noise): one ulp of z-space
        error is |h'(z)| ulp in w-space, and the noise bound
        |h'(z)| (1 + |z|) 1e-12 does not reject an inverse for what the
        roundtrip cannot avoid.

        The stages run in that order: the value walk first, and the jet,
        whose derivative feeds only the noise, where a fault of the value
        walk or a residual within 1e-10 max(1, |w|) has not already
        accepted."""
        try:
            hz = self._evaluate_unchecked(z)
        except EvaluationError:
            return True
        tol = _ROUNDTRIP_TOL * max(1.0, abs(w))
        try:
            resid = abs(hz - w)
        except OverflowError:
            resid = None
        if resid is not None and resid <= tol:
            return True
        return self._jet_accepts(z, resid, tol)

    def _jet_accepts(self, z: complex, resid, tol: float) -> bool:
        """The jet stage of _closed_form_acceptable: the jet faults, or a
        residual that did not overflow (``resid`` is None where it did)
        lies within max(tol, noise)."""
        try:
            dz = self._jet(z)[1]
        except EvaluationError:
            return True
        return resid is not None and resid <= max(
            tol, _modulus(dz) * (1.0 + _modulus(z)) * 1e-12)

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
        schema = scenario_schema()["definitions"]["map"]["properties"]["chain"][
            "items"]["properties"]
        prims = []
        for item in data["chain"]:
            op = item.get("op") if isinstance(item, dict) else None
            if not isinstance(op, str) or op not in _PRIMITIVES:
                raise ScenarioError(f"unknown map primitive {op!r}")
            kind = _PRIMITIVES[op]
            prims.append(kind(**read_fields(fields(kind), item, op, schema, ("op",))))
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
