"""The chain walks of ``MapExpr``: value, jet and closed-form inversion.

A written-out copy of the previous walks (separate value and derivative
walks with each primitive's own derivative formula, a closed form that
rebuilt each inverse primitive per call, and the roundtrip acceptance
check that ran the whole jet first) runs beside the package on seeded
points of every shipped chain; both must give the same ``repr``, errors
included.
Further tests pin the float-error typing at the walk (overflow in Log and
Power used to escape as a raw ``OverflowError``) and count the work one
inversion does.
"""

import ast
import cmath
import inspect
import math
from collections import Counter

import numpy as np
import pytest

from diskflow import EvaluationError, MapExpr, catalog, unit_disk
from diskflow import confmap
from diskflow.confmap import (Affine, Asin, Atanh, Exp, Log, Mobius, Power,
                              Sin, Tanh, _branch_arg, _reject_cut_crossings)
from diskflow.domains import Domain, HalfStrip
from diskflow.errors import DiskflowError, InversionError

from conftest import disk_points

PRIMITIVES = (Mobius, Affine, Exp, Log, Power, Sin, Tanh, Asin, Atanh)


# ---------------------------------------------------------------------------
# the previous walks, written out
# ---------------------------------------------------------------------------


def _ref_safe(fn, z):
    try:
        return fn(z)
    except OverflowError as exc:
        raise EvaluationError(f"overflow evaluating at {z!r}",
                              overflow=True) from exc
    except ZeroDivisionError as exc:
        raise EvaluationError(f"pole reached at {z!r}") from exc
    except ValueError as exc:
        raise EvaluationError(f"invalid value at {z!r}: {exc}") from exc


def ref_evaluate(m, z):
    w = complex(z)
    for prim in m.chain:
        w = _ref_safe(prim.evaluate, w)
    return w


def _mobius_derivative(p, z):
    det = p.a * p.d - p.b * p.c
    return det / (p.c * z + p.d) ** 2


def _log_derivative(p, z):
    _branch_arg(z, p.center)
    return 1.0 / z


def _power_derivative(p, z):
    arg = _branch_arg(z, p.center)
    return p.p * cmath.exp((p.p - 1.0) * complex(math.log(abs(z)), arg))


def _tanh_derivative(p, z):
    c = cmath.cosh(z)
    return 1.0 / (c * c)


# the derivative formula each primitive had before its jet
REF_DERIVATIVES = {
    Mobius: _mobius_derivative,
    Affine: lambda p, z: p.a,
    Exp: lambda p, z: cmath.exp(z),
    Log: _log_derivative,
    Power: _power_derivative,
    Sin: lambda p, z: cmath.cos(z),
    Tanh: _tanh_derivative,
    Asin: lambda p, z: 1.0 / cmath.sqrt(1.0 - z * z),
    Atanh: lambda p, z: 1.0 / (1.0 - z * z),
}


def ref_derivative(m, z):
    w = complex(z)
    deriv = 1.0 + 0.0j
    for prim in m.chain:
        deriv *= _ref_safe(lambda u: REF_DERIVATIVES[type(prim)](prim, u), w)
        w = _ref_safe(prim.evaluate, w)
    return deriv


def ref_closed_form(m, w):
    z = w
    for prim in reversed(m.chain):
        z = _ref_safe(prim.inverse().evaluate, z)
    return z


def _ref_modulus(v):
    try:
        return abs(v)
    except OverflowError:
        return math.inf


def ref_acceptable(m, z, w):
    try:
        hz, dz = ref_evaluate(m, z), ref_derivative(m, z)
    except EvaluationError:
        return True
    try:
        resid = abs(hz - w)
    except OverflowError:
        return False
    cond = _ref_modulus(dz) * (1.0 + _ref_modulus(z)) * 1e-12
    return resid <= max(1e-10 * max(1.0, abs(w)), cond)


def ref_invert(m, w):
    w = complex(w)
    try:
        z = ref_closed_form(m, w)
    except EvaluationError as exc:
        if exc.overflow:
            raise
        raise InversionError(
            f"closed-form inversion failed at {w!r}: {exc}") from None
    if not cmath.isfinite(z):
        raise EvaluationError(f"overflow evaluating at {w!r}", overflow=True)
    if not ref_acceptable(m, z, w):
        resid = _ref_modulus(ref_evaluate(m, z) - w)
        raise InversionError(f"closed form {z!r} at {w!r} fails the "
                             f"roundtrip: residual {resid:.3e}")
    return z


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except DiskflowError as exc:
        return (f"{type(exc).__name__}: {exc} "
                f"(overflow={getattr(exc, 'overflow', None)})")


# ---------------------------------------------------------------------------
# the maps and their seeded points
# ---------------------------------------------------------------------------

SIGNED_ZEROS = [complex(-0.0, 0.25), complex(0.25, -0.0), complex(-0.0, -0.0),
                complex(0.0, -0.5), complex(-0.5, 0.0)]


def _disk_inputs(seed):
    rng = np.random.default_rng(seed)
    pts = disk_points(rng, 30, 0.95)
    pts += [0.999999 * complex(math.cos(a), math.sin(a)) for a in (0.3, 2.0, -2.7)]
    return pts + SIGNED_ZEROS


def _domain_inputs(dom, seed):
    return dom.interior_samples(25, seed) + SIGNED_ZEROS


def _maps():
    """(label, map, points fed to evaluate/derivative, points fed to invert)."""
    out = []
    shift = MapExpr((Mobius(1, -0.3 + 0.1j, -0.3 - 0.1j, 1),),
                    source=unit_disk(), target=unit_disk())
    sgs = dict(((n, catalog.builtin_semigroup(n))
                for n in catalog.BUILTIN_NAMES),
               slit_tip=catalog.slit_tip_semigroup())
    for k, (name, sg) in enumerate(sorted(sgs.items())):
        h = sg.koenigs
        zs = _disk_inputs(100 + k)
        ws = [sg.orbit_w(z, t) for z in zs[:10] for t in (0.0, 0.5, 5.0, 50.0)]
        ws += _domain_inputs(sg.omega, 200 + k)
        out.append((f"{name}:koenigs", h, zs, ws))
        out.append((f"{name}:inverse", h.inverted(), ws, zs))
    channel = sgs["channel"].omega.exact_map
    out.append(("channel:exact", channel,
                _domain_inputs(sgs["channel"].omega, 7), _disk_inputs(8)))
    for name in ("halfplane", "strip"):
        conj = sgs[name].conjugate(shift).koenigs
        zs = _disk_inputs(9)
        out.append((f"{name}:conjugated", conj, zs,
                    [conj.evaluate(z, check=False) + 0.5 for z in zs]))
    hs = HalfStrip(-4.0, 0.5)
    ws = _domain_inputs(hs, 10)
    out.append(("halfstrip:exact", hs.exact_map, ws, _disk_inputs(11)))
    out.append(("halfstrip:asin", hs.exact_map.inverted(), _disk_inputs(12), ws))
    return out


MAPS = _maps()


@pytest.mark.parametrize("label,m,zs,ws", MAPS, ids=[m[0] for m in MAPS])
def test_value_and_jet_keep_the_bits(label, m, zs, ws):
    for z in zs:
        value = outcome(ref_evaluate, m, z)
        deriv = outcome(ref_derivative, m, z)
        assert outcome(m.evaluate, z, False) == value
        assert outcome(m.derivative, z, False) == deriv
        if "Error" in value + deriv:
            with pytest.raises(EvaluationError):
                m.jet(z, check=False)
        else:
            assert repr(m.jet(z, check=False)) == repr(
                (ref_evaluate(m, z), ref_derivative(m, z)))


@pytest.mark.parametrize("label,m,zs,ws", MAPS, ids=[m[0] for m in MAPS])
def test_invert_keeps_the_bits(label, m, zs, ws):
    for w in ws:
        assert outcome(m.invert, w, False) == outcome(ref_invert, m, w)


def test_closed_form_on_the_half_strip_edge_is_rejected():
    # w = -0.5j lies on the edge of HalfStrip(-4, 0.5).  Its closed form
    # 0.9999999999027077-1.39e-5j sits next to asin's branch point z = 1,
    # and the forward walk maps it 8 away from w.  Newton from the closed
    # form returned 0.9999999999027075-1.39e-5j here.
    m = HalfStrip(-4.0, 0.5).exact_map.inverted()
    with pytest.raises(InversionError, match=r"residual 8\.000e\+00"):
        m.invert(-0.5j, check=False)


def test_identity_inverse_keeps_the_sign_of_zero():
    # Affine(1, 0) inverts to Affine(1, -0.0); re-fusing it to Affine(1, 0)
    # would turn -0.0 real parts of the dilation and spiral pullbacks into 0.0
    h = catalog.builtin_semigroup("dilation").koenigs
    assert repr(h.inverted().chain) == repr((Affine(1.0, -0.0),))
    assert repr(h.invert(complex(-0.0, 0.25))) == "(-0+0.25j)"


# ---------------------------------------------------------------------------
# float errors are typed by the walk
# ---------------------------------------------------------------------------

HUGE = 1.5e308 + 1.5e308j


@pytest.mark.parametrize("prim", [Log(), Power(0.5)], ids=["log", "power"])
@pytest.mark.parametrize("method", ["evaluate", "derivative", "jet"])
def test_overflow_in_a_primitive_is_typed(prim, method):
    with pytest.raises(EvaluationError) as info:
        getattr(MapExpr((prim,)), method)(HUGE)
    assert info.value.overflow
    assert str(info.value) == f"overflow evaluating at {HUGE!r}"


def test_overflow_in_the_closed_form_is_typed():
    # the inverse chain of Exp is Log, which overflows in |w|
    with pytest.raises(EvaluationError) as info:
        MapExpr((Exp(),)).invert(HUGE)
    assert info.value.overflow


def test_overflow_on_a_composition_path_is_skipped():
    # the branch-argument walk types the overflow, so the cut check skips
    # the point instead of crashing
    # |z| passes the float range on the first path points
    _reject_cut_crossings(MapExpr((Log(),)), 1.3e308 + 1.3e308j,
                          1.2e308 + 1.2e308j)


def test_pole_and_invalid_value_messages():
    with pytest.raises(EvaluationError, match=r"pole reached at \(-1\+0j\)"):
        MapExpr((Mobius(1, 0, 1, 1),)).evaluate(-1.0)
    for prim in (Log(), Power(0.5)):
        # the branch argument is taken before log |z|, which would raise a
        # math domain error at 0
        for method in ("evaluate", "derivative", "jet"):
            with pytest.raises(EvaluationError,
                               match=r"log/power branch point 0 reached"):
                getattr(MapExpr((prim,)), method)(0.0)


# ---------------------------------------------------------------------------
# work per inversion
# ---------------------------------------------------------------------------


def _fresh_channel_map():
    h = catalog.builtin_semigroup("channel").koenigs
    return MapExpr(h.chain, source=h.source, target=h.target)


def test_invert_constructs_no_primitive_after_the_first_call(monkeypatch):
    h = _fresh_channel_map()
    w = h.evaluate(0.3 + 0.2j)
    built = []
    for cls in PRIMITIVES:
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__",
            lambda self, *a, _init=init, **k: (built.append(type(self)),
                                               _init(self, *a, **k))[1])
    h.invert(w)
    assert len(built) >= len(h.chain)  # the inverse chain, built once
    built.clear()
    for _ in range(3):
        h.invert(w)
    assert built == []


def _count_primitive_calls(monkeypatch) -> Counter:
    calls = Counter()
    for cls in PRIMITIVES:
        for name in ("evaluate", "jet"):
            fn = getattr(cls, name)
            monkeypatch.setattr(
                cls, name,
                # a value walk passes its namespace, a jet does not
                lambda self, *args, _fn=fn, _name=name: (
                    calls.update([(id(self), _name)]), _fn(self, *args))[1])
    return calls


@pytest.mark.parametrize("t,jets", [(0.0, 0), (20.0, 1)],
                         ids=["within-tolerance", "within-noise"])
def test_accepted_closed_form_walks_the_forward_chain_once(monkeypatch, t,
                                                           jets):
    # at t = 20 the residual, 2.6e-8, passes 1e-10 max(1, |w|) = 2.0e-9,
    # so only the jet's noise bound accepts the closed form
    h = _fresh_channel_map()
    z = 0.3 + 0.2j
    w = h.evaluate(z) + t
    h.invert(w)
    calls = _count_primitive_calls(monkeypatch)
    got = h.invert(w)
    if t == 0.0:
        assert abs(got - z) < 1e-12
    forward = [id(p) for p in h.chain]
    inverse = [id(p) for p in h.inverted().chain]
    assert [calls[(i, "evaluate")] for i in forward] == [1] * len(forward)
    assert [calls[(i, "jet")] for i in forward] == [jets] * len(forward)
    assert [calls[(i, "evaluate")] for i in inverse] == [1] * len(inverse)
    assert sum(calls.values()) == (1 + jets) * len(forward) + len(inverse)


def test_no_primitive_keeps_a_derivative_method():
    # each primitive's value and derivative come from one jet; only
    # MapExpr.derivative, the chain's, is left
    tree = ast.parse(inspect.getsource(confmap))
    defines = {node.name: {f.name for f in node.body
                           if isinstance(f, ast.FunctionDef)}
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert [c for c, names in defines.items()
            if "derivative" in names] == ["MapExpr"]
    assert all("jet" in defines[cls.__name__] for cls in PRIMITIVES)


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_scalar_invert_measures_no_boundary_distance(name, monkeypatch):
    h = catalog.builtin_semigroup(name).koenigs
    ws = [h.evaluate(z) for z in _disk_inputs(13)]
    measured = []
    boundary_distance = Domain.boundary_distance

    def counted(self, *args, **kwargs):
        measured.append(args)
        return boundary_distance(self, *args, **kwargs)

    monkeypatch.setattr(Domain, "boundary_distance", counted)
    for w in ws:
        h.invert(w)
    assert measured == []
