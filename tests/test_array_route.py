"""The array route of the map algebra keeps the scalar route's bits.

``MapExpr.invert`` on a complex array runs each primitive's expression once
on re/im pairs of float64 arrays (``confmap._ReIm``), whose arithmetic
replays CPython's complex formulas and whose transcendental functions make
the scalar route's own math/cmath call per entry.  Entries the pairs fault
on or the acceptance check rejects take the scalar ``invert``.  Every test
here compares the array route against scalar calls, entry by entry, by
``repr`` or by the type of the error raised.
"""

import cmath
import math
import operator
from collections import Counter

import numpy as np
import pytest

from diskflow import analysis, catalog
from diskflow.analysis import (Certificate, forward_certificate,
                               lipschitz_quotient)
from diskflow.confmap import (Affine, Exp, Log, MapExpr, Mobius, Power,
                              _ReImMath, complex_abs)
from diskflow.domains import (ELLIPTIC, NONELLIPTIC, Disk, HalfPlane, Strip,
                              koenigs_flow, unit_disk)
from diskflow.errors import (DiskflowError, DomainError, EvaluationError,
                             InversionError, ParameterError)
from diskflow.scenario import GridSpec
from diskflow.semigroup import Semigroup

from conftest import disk_points, each_time, scalar_orbit

SPECIALS = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324,
            -5e-324, 2.2e-308, 1.7976931348623157e308, -1.7976931348623157e308,
            1e154, 1e-154]


def _parts(rng, n):
    """n float64 values: signs and exponents across the whole float range,
    with zeros, infinities, NaN, subnormals and the extremes mixed in."""
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-325, 308.25, n)
    x[rng.random(n) < 0.1] = rng.normal(size=n)[:1]  # some ties
    pick = rng.random(n) < 0.05
    x[pick] = rng.choice(SPECIALS, int(pick.sum()))
    return x


def _complexes(rng, n):
    with np.errstate(over="ignore"):
        re, im = _parts(rng, n), _parts(rng, n)
    return re, im


def _scalar(fn, *args):
    """repr of the scalar result, or the type of the error it raises."""
    try:
        return repr(fn(*args))
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        return type(exc)


def _assert_entries(f, got, expected):
    """Faulted entries must be exactly those whose scalar call raises; every
    other entry has the scalar call's repr."""
    values = got.tolist() if hasattr(got, "tolist") else got
    for k, (g, e) in enumerate(zip(values, expected)):
        if isinstance(e, type):
            assert f.faults[k], (k, e)
        else:
            assert not f.faults[k], (k, e)
            assert repr(g) == e, (k, g, e)


N_ARITH = 100_000


class TestArithmeticReplaysCPython:
    """>= 1e5 seeded inputs per operation, special values mixed in."""

    @pytest.mark.parametrize("op", ["add", "sub", "truediv"])
    def test_binary_operations(self, op):
        # + and - round once per part; / carries the formula
        n = N_ARITH if op == "truediv" else N_ARITH // 5
        rng = np.random.default_rng([5, len(op)])
        ar, ai = _complexes(rng, n)
        br, bi = _complexes(rng, n)
        fn = getattr(operator, op)
        f = _ReImMath(n)
        with np.errstate(all="ignore"):
            got = fn(f.complex(ar, ai), f.complex(br, bi))
        expected = [_scalar(fn, complex(a, b), complex(c, d)) for a, b, c, d
                    in zip(ar.tolist(), ai.tolist(), br.tolist(), bi.tolist())]
        _assert_entries(f, got.tolist(), expected)

    # the side of a Python number that each operation takes: a * z, and
    # z + x, z - x and z / x
    PAIR_ON_LEFT = {"add": True, "sub": True, "mul": False, "truediv": True}

    @pytest.mark.parametrize("other", [2, 0.5, -0.0, 0, 1j, complex(-0.0, 3.0)])
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
    def test_python_numbers_are_promoted_as_in_3_11(self, op, other):
        # an int or float operand becomes complex(x, 0.0)
        rng = np.random.default_rng([6, len(op)])
        re, im = _complexes(rng, 4000)
        fn = getattr(operator, op)
        zs = [complex(a, b) for a, b in zip(re.tolist(), im.tolist())]
        left = self.PAIR_ON_LEFT[op]
        f = _ReImMath(len(zs))
        pair = f.complex(re, im)
        with np.errstate(all="ignore"):
            got = fn(pair, other) if left else fn(other, pair)
        expected = [_scalar(fn, z, other) if left else _scalar(fn, other, z)
                    for z in zs]
        _assert_entries(f, got.tolist(), expected)

    def test_numpy_scalars_defer_to_the_pairs(self):
        f = _ReImMath(3)
        pair = f.complex(np.array([1.0, -0.0, 3.0]), np.array([0.5, 2.0, -0.0]))
        with np.errstate(all="ignore"):
            assert repr((np.float64(0.25) * pair).tolist()) == \
                repr((0.25 * pair).tolist())

    def test_abs_is_hypot(self):
        # pins np.hypot, the one NumPy call of the route with a rounding
        # choice, against abs(complex) on 2e5 inputs
        rng = np.random.default_rng(8)
        for _ in range(2):
            re, im = _complexes(rng, N_ARITH)
            f = _ReImMath(N_ARITH)
            with np.errstate(all="ignore"):
                got = abs(f.complex(re, im))
            expected = [_scalar(abs, complex(a, b))
                        for a, b in zip(re.tolist(), im.tolist())]
            _assert_entries(f, got.tolist(), expected)
            with np.errstate(all="ignore"):
                h, overflow = complex_abs(re, im)
            assert np.array_equal(overflow, f.faults)


class TestEntrywiseFunctions:
    @pytest.mark.parametrize("name", ["exp", "sin", "tanh", "asin", "atanh"])
    def test_complex_functions_make_the_cmath_call(self, name):
        rng = np.random.default_rng([9, len(name)])
        re, im = _complexes(rng, 5000)
        re[:2000] = rng.normal(0.0, 400.0, 2000)  # exp/sinh overflows
        f = _ReImMath(re.size)
        got = getattr(f, name)(f.complex(re, im))
        fn = getattr(cmath, name)
        expected = [_scalar(fn, complex(a, b))
                    for a, b in zip(re.tolist(), im.tolist())]
        _assert_entries(f, got.tolist(), expected)

    def test_phase_log_and_remainder(self):
        rng = np.random.default_rng(10)
        re, im = _complexes(rng, 5000)
        f = _ReImMath(re.size)
        z = f.complex(re, im)
        _assert_entries(f, f.phase(z).tolist(),
                        [_scalar(cmath.phase, v) for v in z.tolist()])
        x = _parts(rng, 5000)
        for fn, got in ((math.log, lambda g: g.log(x)),
                        (lambda v: math.remainder(v, 2.0 * math.pi),
                         lambda g: g.remainder(x, 2.0 * math.pi))):
            g = _ReImMath(x.size)
            _assert_entries(g, got(g).tolist(), [_scalar(fn, v) for v in x.tolist()])


# ---------------------------------------------------------------------------
# MapExpr.invert on arrays
# ---------------------------------------------------------------------------


def _invert_outcome(m, w, check):
    try:
        return repr(m.invert(w, check))
    except Exception as exc:
        return type(exc)


def _array_outcomes(m, ws, check):
    got = m.invert(np.array(ws, dtype=complex), check)
    return [EvaluationError if cmath.isnan(v) else repr(v) for v in got.tolist()]


def _assert_invert_matches(m, ws, check):
    """One array call over ws gives each scalar call's outcome: NaN where it
    raises EvaluationError, and the first other error (in array order) is
    raised by the whole call."""
    expected = [_invert_outcome(m, w, check) for w in ws]
    raising = [e for e in expected if isinstance(e, type)
               and e is not EvaluationError]
    if raising:
        with pytest.raises(raising[0]):
            m.invert(np.array(ws, dtype=complex), check)
    else:
        assert _array_outcomes(m, ws, check) == expected
    return expected


def _assert_each_entry_matches(m, ws, check):
    for w in ws:
        expected = _invert_outcome(m, w, check)
        try:
            got = m.invert(np.array([w], dtype=complex), check)[0].item()
        except Exception as exc:
            assert type(exc) is expected, (w, exc)
            continue
        if expected is EvaluationError:
            assert cmath.isnan(got), w
        else:
            assert repr(got) == expected, (w, got)


def _maps():
    sgs = {n: catalog.builtin_semigroup(n) for n in catalog.BUILTIN_NAMES}
    sgs["slit_tip"] = catalog.slit_tip_semigroup()
    f = MapExpr((Mobius(1, 0, -1, 1),), source=unit_disk())
    sgs["strip_conjugated"] = sgs["strip"].conjugate(f)
    return sgs


SEMIGROUPS = _maps()
N_POINTS = 10_000


def _orbit_images(sg, rng, n_starts, n_times, radius=1.0):
    """Koenigs images of forward orbits from n_starts seeded starts with
    |z| up to radius (1 - 1e-15) whose image is finite, at seeded times in
    [0, 100], and the starts."""
    times = np.concatenate([[0.0], 100.0 * 10.0 ** rng.uniform(-9, 0, n_times - 1)])
    out = []
    while len(out) < n_starts:
        r = radius * (1.0 - 10.0 ** rng.uniform(-15, 0))
        z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        try:
            w0 = sg.koenigs_image(z)
        except EvaluationError:
            continue
        out.append((z, [koenigs_flow(sg.kind, sg.mu, w0, float(t)) for t in times]))
    return out


@pytest.mark.parametrize("name", sorted(SEMIGROUPS))
def test_orbit_pullbacks_keep_the_bits(name):
    sg = SEMIGROUPS[name]
    rng = np.random.default_rng([12, len(name)])
    # the conjugated source f(D) is {Re > -1/2}
    orbits = _orbit_images(sg, rng, 100, 100,
                           0.5 if name == "strip_conjugated" else 1.0)
    everything = [w for _, ws in orbits for w in ws]
    assert len(everything) == N_POINTS
    _assert_invert_matches(sg.koenigs, everything, True)


@pytest.mark.parametrize("name", sorted(SEMIGROUPS))
def test_domain_points_keep_the_bits(name):
    sg = SEMIGROUPS[name]
    ws = sg.omega.interior_samples(N_POINTS, 13)
    _assert_invert_matches(sg.koenigs, ws, True)
    _assert_invert_matches(sg.koenigs, ws, False)


def _edge_points(sg):
    h = sg.koenigs
    out = [0j, -1 + 0j, 1 + 0j, 1j, -1j, 2j, -2j, -1e-300 + 0j, 5e-324j,
           complex(math.nan, 0.0), complex(0.0, math.nan),
           complex(math.inf, 0.0), complex(-math.inf, 1.0),
           1.5e308 + 1.5e308j, -1.5e308 + 0j, 1.5e308j, 1e200 + 1e-200j,
           -5.0 + 0j, -5.0 + 1e-17j, -5.0 - 1e-17j, 1e-17j - 0.5]
    # images of points within 1e-13 of the unit circle, and of the pole z = 1
    for gap in (1e-13, 3e-14, 1e-15, 1e-16):
        for th in (0.0, 1e-8, 0.7, -2.0, math.pi):
            z = (1.0 - gap) * cmath.exp(1j * th)
            try:
                out.append(h.evaluate(z, check=False))
            except EvaluationError:
                pass
    return out


@pytest.mark.parametrize("name", sorted(SEMIGROUPS))
def test_edge_entries_each_keep_the_outcome(name):
    sg = SEMIGROUPS[name]
    ws = _edge_points(sg)
    for check in (True, False):
        _assert_each_entry_matches(sg.koenigs, ws, check)
        _assert_invert_matches(sg.koenigs, ws, check)


CUT_MAPS = {
    "exp": MapExpr((Exp(),)),                # closed form Log: cut on (-inf, 0]
    "log": MapExpr((Log(1.0),)),
    "power": MapExpr((Power(0.5, 0.3), Affine(2.0, 1j))),
    "mobius": MapExpr((Mobius(1, 0, 1, 1),)),  # pole at z = -1
}


def _cut_points():
    rng = np.random.default_rng(14)
    ws = [complex(x, y) for x, y in zip(rng.normal(0, 3, 2000), rng.normal(0, 3, 2000))]
    ws += [complex(x, s * 0.0) for x in (-3.0, -1.0, -1e-300, 0.0, 1.0)
           for s in (1.0, -1.0)]
    ws += [cmath.exp(1j * (math.pi - d)) for d in (0.0, 1e-14, 1e-13, 2e-13)]
    ws += [-1 + 0j, 1 + 0j, 1.5e308 + 0j, -1.5e308 + 1.5e308j]
    return ws


@pytest.mark.parametrize("m", CUT_MAPS.values(), ids=CUT_MAPS.keys())
def test_cuts_poles_and_branch_points(m):
    ws = _cut_points()
    _assert_each_entry_matches(m, ws[-20:], False)
    _assert_invert_matches(m, ws, False)


def test_array_input_must_be_one_dimensional():
    h = SEMIGROUPS["strip"].koenigs
    with pytest.raises(ParameterError):
        h.invert(np.zeros((2, 2), complex))
    assert h.invert(np.zeros(0, complex)).shape == (0,)


# ---------------------------------------------------------------------------
# the array acceptance is the scalar rule
# ---------------------------------------------------------------------------


def _branch(m, z, w):
    """The stage of the scalar roundtrip rule that decides on the closed
    form z of w, in the order ``_closed_form_acceptable`` runs them."""
    try:
        hz = m._evaluate_unchecked(z)
    except EvaluationError:
        return "value fault"
    try:
        resid = abs(hz - w)
    except OverflowError:
        resid = None
    if resid is not None and resid <= 1e-10 * max(1.0, abs(w)):
        return "within tolerance"
    try:
        m._jet(z)
    except EvaluationError:
        return "jet fault"
    if resid is None:
        return "residual overflow"
    return ("within noise only" if m._closed_form_acceptable(z, w)
            else "beyond noise")


ACCEPTING = ("value fault", "within tolerance", "jet fault",
             "within noise only")


def _filter_marks(m, ws) -> Counter:
    """Assert that ``MapExpr._accepts`` marks an entry of ws exactly when
    ``_closed_form_acceptable`` accepts its closed form, on every entry the
    scalar invert reaches with that closed form; count those entries by
    the stage that decides on them."""
    seen = []
    accepts = MapExpr._accepts

    def recorded(self, z, w, w_abs, todo):
        mask = accepts(self, z, w, w_abs, todo)
        seen.append((z.tolist(), mask.tolist()))
        return mask

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MapExpr, "_accepts", recorded)
        try:
            m.invert(np.array(ws, dtype=complex), False)
        except InversionError:
            pass  # an entry the filter left failed on the scalar route
    [(zs, mask)] = seen
    branches = Counter()
    for w, z, accepted in zip(ws, zs, mask):
        try:
            abs(w)  # the scalar invert's first step, as in invert
            closed = m.inverted()._evaluate_unchecked(w)
        except (OverflowError, EvaluationError):
            continue  # the pairs faulted here: the entry was never done
        if not cmath.isfinite(closed):
            continue
        assert repr(closed) == repr(z), w
        assert accepted == m._closed_form_acceptable(closed, w), w
        branch = _branch(m, closed, w)
        assert accepted == (branch in ACCEPTING), (w, branch)
        branches[branch] += 1
    return branches


def _marked(branches: Counter) -> int:
    return sum(branches[b] for b in ACCEPTING)


@pytest.mark.parametrize("name", sorted(SEMIGROUPS))
def test_the_filter_marks_what_the_scalar_rule_accepts(name):
    sg = SEMIGROUPS[name]
    rng = np.random.default_rng([21, len(name)])
    re, im = _complexes(rng, 2000)
    ws = (_edge_points(sg) + _cut_points()
          + [complex(a, b) for a, b in zip(re.tolist(), im.tolist())]
          + sg.omega.interior_samples(500, 22))
    assert _marked(_filter_marks(sg.koenigs, ws)) > 500


# the half-plane's Cayley map, and a square root scaled by |a| = 1e300:
# the closed form of 8.5e307 (1 + i) lies off the root's half-plane, so the
# forward walk gives -w and the residual's parts, 1.7e308 each, pass the
# float range in hypot
_CAYLEY = SEMIGROUPS["halfplane"].koenigs
_SCALED_ROOT = MapExpr((Power(0.5), Affine(
    -1.4331037181038496e+299 - 9.896777947047055e+299j, 0.0)))
BRANCHES = {
    "value fault": (_CAYLEY, 1e17 + 0j),           # closed form 1, the pole
    "within tolerance": (_CAYLEY, 0.5 + 0.5j),
    # closed form 1 + 5.6e-228j: (1 - z)^2 underflows to 0 in h'
    "jet fault": (_CAYLEY, 2.062274877865497e+48 - 1.2915731779650978e-170j),
    "residual overflow": (_SCALED_ROOT, 8.5e307 + 8.5e307j),
    "within noise only": (_CAYLEY, 3e9 + 0j),      # closed form 1 - 6.7e-10
}


@pytest.mark.parametrize("branch", BRANCHES)
def test_the_filter_marks_what_the_scalar_rule_accepts_on_each_branch(branch):
    m, w = BRANCHES[branch]
    assert _filter_marks(m, [w]) == Counter({branch: 1})


@pytest.mark.parametrize("name", sorted(CUT_MAPS))
def test_the_filter_marks_what_the_scalar_rule_accepts_on_cuts(name):
    branches = _filter_marks(CUT_MAPS[name], _cut_points())
    assert _marked(branches) > 500
    if name in ("log", "power"):
        # closed forms off the branch's image: the residual rejects them
        assert branches["beyond noise"] > 100


# ---------------------------------------------------------------------------
# the layers above confmap
# ---------------------------------------------------------------------------


class TestDomainArrays:
    DOMAINS = [unit_disk(), Disk(0.5 - 0.25j, 2.0), Strip(1.0, 0.0),
               Strip(0.5, -1.0), *(HalfPlane(o, 0.5) for o in
                                   ("right", "left", "upper", "lower")),
               catalog.builtin_semigroup("channel").omega]

    @pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: repr(d)[:40])
    def test_membership_keeps_the_bits(self, dom):
        rng = np.random.default_rng(15)
        re, im = _complexes(rng, 3000)
        re[:1500], im[:1500] = rng.normal(0, 2, (2, 1500))
        zs = [complex(a, b) for a, b in zip(re.tolist(), im.tolist())]
        f = _ReImMath(len(zs))
        with np.errstate(all="ignore"):
            got = dom.contains_many(f.complex(re, im))
        expected = []
        for z in zs:
            try:
                expected.append(repr(dom.contains(z)))
            except Exception as exc:
                expected.append(type(exc))
        _assert_entries(f, got.tolist(), expected)


    def test_log_cos_membership_keeps_the_bits(self):
        # the edges of the strip |Im w| < pi/2 and of the tongue
        # Re w > log cos(Im w), one ulp either side, and non-finite parts
        dom = catalog.builtin_semigroup("channel").omega
        rng = np.random.default_rng(16)
        half = 0.5 * math.pi
        ys = [half, math.nextafter(half, 0.0), math.nextafter(half, 4.0),
              2.0, 3.5, 1e300, *rng.uniform(-1.6, 1.6, 300).tolist()]
        ys += [-y for y in ys]
        zs = [complex(x, y) for y in ys for x in rng.uniform(-5.0, 5.0, 2)]
        for y in ys[6:12] + rng.uniform(-half, half, 100).tolist():
            if abs(y) < half:
                x = math.log(math.cos(y))
                zs += [complex(x, y), complex(math.nextafter(x, -math.inf), y),
                       complex(math.nextafter(x, math.inf), y)]
        for a in (0.0, -40.0, math.inf, -math.inf, math.nan):
            for b in (0.0, 1.0, half, math.inf, -math.inf, math.nan):
                zs += [complex(a, b), complex(b, a)]
        f = _ReImMath(len(zs))
        got = dom.contains_many(f.complex(np.array([z.real for z in zs]),
                                          np.array([z.imag for z in zs])))
        assert got.tolist() == [dom.contains(z) for z in zs]
        # math.log never meets the cosine of a point outside the strip,
        # which is negative from |Im w| = 2 on and would fault the entry
        assert not f.faults.any()

    def test_channel_certificates_check_targets_on_the_pairs(
            self, monkeypatch):
        sg = SEMIGROUPS["channel"]
        w0 = sg.koenigs_image(0.3 - 0.2j)
        calls = []
        contains = type(sg.omega).contains

        def counted(self, w):
            calls.append(w)
            return contains(self, w)

        monkeypatch.setattr(type(sg.omega), "contains", counted)
        forward_certificate(sg, 0.3 - 0.2j)
        # only the start's boundary distance asks the scalar test
        assert calls == [w0]


class TestFlowAndStep:
    @pytest.mark.parametrize("kind,mu,w0", [
        (NONELLIPTIC, None, 0.3 - 0.0j), (NONELLIPTIC, None, complex(-0.0, -0.0)),
        (ELLIPTIC, 1.0 + 0j, 0.5j), (ELLIPTIC, 1.0 + 1.0j, 0.3 - 0.2j),
        (ELLIPTIC, 0.2 - 3.0j, complex(-0.0, 0.7))])
    def test_koenigs_flow_arrays_keep_the_bits(self, kind, mu, w0):
        rng = np.random.default_rng(16)
        ts = np.concatenate([[0.0, -0.0, 1e-300, 800.0],
                             rng.uniform(0, 100, 500)])
        for backward in (False, True):
            expected = []
            for t in ts.tolist():
                try:
                    expected.append(repr(koenigs_flow(kind, mu, w0, t, backward)))
                except EvaluationError as exc:
                    assert exc.overflow
                    expected.append(None)
            if None in expected:
                # exp(mu t) past the float range raises, as the scalar call
                with pytest.raises(EvaluationError, match="overflow"):
                    koenigs_flow(kind, mu, w0, ts, backward)
                assert backward
                expected = expected[1:3]
                ts = ts[1:3]
            got = koenigs_flow(kind, mu, w0, ts, backward)
            assert [repr(v) for v in got.tolist()] == expected

    @pytest.mark.parametrize("name", sorted(SEMIGROUPS))
    def test_pullback_step_arrays_keep_the_bits(self, name):
        sg = SEMIGROUPS[name]
        plan = analysis._pair_plan(0.0, 100.0)
        rng = np.random.default_rng([17, len(name)])
        # the conjugated source f(D) is {Re > -1/2}
        radius = (0.5 if name == "strip_conjugated" else
                  0.9 if sg.kind == NONELLIPTIC else 0.45)
        for z in disk_points(rng, 4, radius):
            w0 = sg.koenigs_image(z)
            got = sg.phi_from_image(plan.times, w0)
            for t, g in zip(plan.times.tolist(), got.tolist()):
                try:
                    assert repr(g) == repr(sg.phi_from_image(t, w0))
                except EvaluationError:
                    assert cmath.isnan(g)

    def test_negative_times_are_parameter_errors(self):
        sg = SEMIGROUPS["halfplane"]
        with pytest.raises(ParameterError):
            sg.phi_from_image(np.array([0.0, -1.0]), 1.0 + 0j)

    def test_starts_outside_the_source_are_domain_errors(self):
        # z lies outside f(D) = {Re > -1/2}: its image under h . f^{-1} is
        # outside the strip, and the step checks the map's target
        sg = SEMIGROUPS["strip_conjugated"]
        z = -0.8 + 0.3j
        w0 = sg.koenigs_image(z)
        with pytest.raises(DomainError):
            sg.phi_from_image(1.0, w0)
        with pytest.raises(DomainError):
            sg.phi_from_image(np.array([0.0, 1.0]), w0)


def _scalar_trace(sg, z, t_grid, backward):
    """The trace loop before the array pullback: one scalar invert per
    time."""
    w0 = sg.koenigs_image(z)
    samples = []
    for t in t_grid:
        w = sg.ray_w(w0, t, backward)
        zt = complex(z) if t == 0.0 else sg.koenigs.invert(w)
        samples.append(sg._sample(t, zt, w))
    return samples


def _trace_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except DiskflowError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestTraces:
    @pytest.mark.parametrize("name", sorted(SEMIGROUPS))
    def test_traces_keep_the_bits_of_the_scalar_loop(self, name,
                                                     monkeypatch):
        sg = SEMIGROUPS[name]
        rng = np.random.default_rng([23, len(name)])
        grid = GridSpec("linear", 0.0, 10.0, 101).times()
        # the conjugated source f(D) is {Re > -1/2}
        starts = disk_points(rng, 3, 0.5 if name == "strip_conjugated"
                             else 0.8)
        cases = []
        for z in starts:
            span = min(10.0, 0.5 * sg.backward_horizon(z).value)
            back = [span * k / 100 for k in range(101)]
            cases += [(z, grid, False), (z, back, True)]
        wants = [_trace_outcome(_scalar_trace, sg, *case) for case in cases]
        calls = []
        invert = MapExpr.invert

        def counted(self, w, *args, **kwargs):
            calls.append(isinstance(w, np.ndarray))
            return invert(self, w, *args, **kwargs)

        monkeypatch.setattr(MapExpr, "invert", counted)
        for (z, ts, backward), want in zip(cases, wants):
            trace = sg.backward_orbit if backward else sg.forward_orbit
            assert _trace_outcome(trace, z, ts, False) == want
        # each trace takes one array invert, and scalar ones only where a
        # time fails and the scalar loop raises its error
        assert calls.count(True) == len(cases)
        assert (False in calls) == any("Error" in w for w in wants)


    def test_the_first_failing_time_raises_its_own_error(self):
        # the strip's inverse chain overflows in exp from t = 452 on, and a
        # target disk of radius 1000 ends at t = 1000: the array invert
        # raises the DomainError of t = 2000, the scalar loop the
        # EvaluationError of t = 500
        strip = SEMIGROUPS["strip"]
        h = MapExpr(strip.koenigs.chain, source=unit_disk(),
                    target=Disk(0j, 1000.0))
        sg = Semigroup(NONELLIPTIC, h, strip.omega)
        grid = [0.0, 1.0, 500.0, 2000.0]
        with pytest.raises(DomainError):
            h.invert(np.array([sg.orbit_w(0j, t) for t in grid]))
        with pytest.raises(EvaluationError) as info:
            sg.forward_orbit(0j, grid, cross_check=False)
        assert str(info.value) == \
            "overflow evaluating at (785.3981633974482+0j)"


class TestCertificates:
    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_certificates_equal_the_sampled_quotient(self, name):
        sg = SEMIGROUPS[name]
        rng = np.random.default_rng([18, len(name)])
        for z in disk_points(rng, 10, 0.8) + [catalog.builtin_start(name)]:
            cert = forward_certificate(sg, z)
            q = lipschitz_quotient(each_time(scalar_orbit(sg, z)), 0.0, 100.0)
            assert repr(cert) == repr(Certificate(
                cert.constant, q.value, q.value <= cert.constant * (1.0 + 5e-2)))

    @pytest.mark.parametrize("name", sorted(catalog.BUILTIN_NAMES))
    def test_one_array_pullback_and_no_scalar_inverts(self, name, monkeypatch):
        # on the built-in orbits every sample is taken by the array route
        sg = SEMIGROUPS[name]
        calls = []
        invert = MapExpr.invert

        def counted(self, w, *args, **kwargs):
            calls.append(isinstance(w, np.ndarray))
            return invert(self, w, *args, **kwargs)

        monkeypatch.setattr(MapExpr, "invert", counted)
        rng = np.random.default_rng([19, len(name)])
        for z in disk_points(rng, 10, 0.8):
            forward_certificate(sg, z)
        assert calls == [True] * 10

    def test_the_plan_is_shared_read_only(self):
        plan = analysis._pair_plan(0.0, 100.0)
        assert plan is analysis._pair_plan(0.0, 100.0)
        assert plan.times.size == 212
        with pytest.raises(ValueError):
            plan.times[0] = 1.0

    def test_certificates_build_no_plan_after_the_first(self):
        # a plan costs about half a certificate: a miss per certificate
        # would add half again to each
        sg = SEMIGROUPS["halfplane"]
        forward_certificate(sg, 0j)
        misses = analysis._pair_plan.cache_info().misses
        rng = np.random.default_rng(20)
        for z in disk_points(rng, 10, 0.8):
            forward_certificate(sg, z)
        assert analysis._pair_plan.cache_info().misses == misses


# ---------------------------------------------------------------------------
# ROADMAP 8(a): a closed form outside the map's source is still accepted
# ---------------------------------------------------------------------------


@pytest.mark.xfail(strict=True, reason="ROADMAP 8(a): no acceptance stage "
                   "tests source membership, and the other branch of the log "
                   "passes the roundtrip")
@pytest.mark.parametrize("route", ["scalar", "array"])
def test_wrong_branch_of_the_log_is_rejected(route):
    h = MapExpr((Affine(0.5, 1.5j * math.pi), Exp()), source=unit_disk())
    z = 0.1 + 0.2j
    w = h.evaluate(z)
    if route == "scalar":
        got = h.invert(w)
    else:
        got = h.invert(np.array([w]))[0]
    assert abs(got - z) < 1e-12, got
