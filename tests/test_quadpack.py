"""The package's QUADPACK port against ``scipy.integrate.quad(limit=400)``.

``quadpack.quad`` ports QAGS and QAGI as SciPy runs them, so on the bench's
Hayman-Wu integrands it must return SciPy's value and error estimate bit for
bit, and SciPy's return code ``ier``, after as many integrand evaluations.
On integrands that blow up at an end of the span, the case of a backward
orbit that is not Lipschitz, the epsilon-algorithm extrapolation must keep
the length as accurate, and as cheap, as SciPy's; on tails that decay too
slowly, QUADPACK's divergence test must flag the length.  SciPy comes from
the ``test`` extra."""

import math

import pytest
from scipy.integrate import quad as scipy_quad

from diskflow import quadpack
from diskflow.analysis import arc_length
from diskflow.errors import ParameterError
from test_bench_workloads import _workloads


def counted(f):
    """f, and a one-item list counting its calls."""
    calls = [0]

    def g(t):
        calls[0] += 1
        return f(t)

    return g, calls


# SciPy names a nonzero ier only by the message its full output appends
SCIPY_MESSAGES = {1: "The maximum number of subdivisions",
                  2: "The occurrence of roundoff error",
                  3: "Extremely bad integrand behavior",
                  4: "The algorithm does not converge",
                  5: "The integral is probably divergent"}


def scipy_route(f, a, b):
    """``scipy.integrate.quad(limit=400)`` as (value, abserr, ier)."""
    value, abserr, _, *message = scipy_quad(f, a, b, limit=400,
                                            full_output=1)
    if not message:
        return value, abserr, 0
    (ier,) = [k for k, head in SCIPY_MESSAGES.items()
              if message[0].startswith(head)]
    return value, abserr, ier


def bits(res) -> tuple:
    """The value and abserr bits, then ier."""
    value, abserr, ier = res
    return value.hex(), abserr.hex(), ier


def test_hayman_wu_bench_calls_keep_scipy_bits(monkeypatch):
    build, make_ops = _workloads().WORKLOADS["mapped_orbits"]
    ops = [op for op in make_ops(1, build()) if op.kind == "hayman_wu_audit"]
    calls = []
    port = quadpack.quad

    def recorded(f, a, b):
        calls.append((f, a, b))
        return port(f, a, b)

    monkeypatch.setattr(quadpack, "quad", recorded)
    for op in ops:
        op.run()
    assert (len(ops), len(calls)) == (8, 16)
    for f, a, b in calls:
        g_port, n_port = counted(f)
        g_ref, n_ref = counted(f)
        assert bits(port(g_port, a, b)) == bits(scipy_route(g_ref, a, b)), \
            (a, b)
        assert n_port == n_ref


# |G| along an orbit piece: blow-ups at the end of a finite span (a backward
# orbit that is not Lipschitz, with T = 1), at its start, a logarithmic one,
# slowly and fast decaying tails, and a tail with a blow-up at t = 0
INTEGRANDS = {
    "(1-t)^-0.9": (lambda t: (1.0 - t) ** -0.9, 1.0, 10.0),
    "(1-t)^-1/2": (lambda t: 1.0 / math.sqrt(1.0 - t), 1.0, 2.0),
    "(1+t)^-1.1": (lambda t: (1.0 + t) ** -1.1, math.inf, 10.0),
    "t^-1/2": (lambda t: 1.0 / math.sqrt(t), 1.0, 2.0),
    "1/(1+t^2)": (lambda t: 1.0 / (1.0 + t * t), math.inf, math.pi / 2.0),
    "e^-t": (lambda t: math.exp(-t), math.inf, 1.0),
    "-log(1-t)": (lambda t: -math.log(1.0 - t), 1.0, 1.0),
    "t^-1/2 e^-t": (lambda t: math.exp(-t) / math.sqrt(t), math.inf,
                    math.sqrt(math.pi)),
}


@pytest.mark.parametrize("f,t1,exact", INTEGRANDS.values(), ids=INTEGRANDS)
def test_singular_lengths_match_scipy(monkeypatch, f, t1, exact):
    g, calls = counted(f)
    got = arc_length(g_abs=g, t0=0.0, t1=t1)
    monkeypatch.setattr(quadpack, "quad", scipy_route)
    g_ref, ref_calls = counted(f)
    ref = arc_length(g_abs=g_ref, t0=0.0, t1=t1)
    assert (got.converged, got.ier) == (ref.converged, ref.ier) == (True, 0)
    assert got.value == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert calls[0] == ref_calls[0]


# tails that decay too slowly: the extrapolation returns a finite number,
# and the divergence test says what it is worth
DIVERGENT = {
    "(1+t)^-1/2": lambda t: 1.0 / math.sqrt(1.0 + t),
    "(1+t)^-1/2 + 5e^-t": lambda t: 1.0 / math.sqrt(1.0 + t)
    + 5.0 * math.exp(-t),
}


@pytest.mark.parametrize("f", DIVERGENT.values(), ids=DIVERGENT)
def test_divergent_tails_read_ier_5(f):
    res = quadpack.quad(f, 0.0, math.inf)
    assert bits(res) == bits(scipy_route(f, 0.0, math.inf))
    assert res[2] == 5 and math.isfinite(res[0])
    length = arc_length(g_abs=f, t0=0.0, t1=math.inf)
    assert (length.ier, length.converged) == (5, False)


@pytest.mark.parametrize("t1", [1.0, math.inf])
def test_nan_and_infinite_integrands_do_not_converge(t1):
    nan = arc_length(g_abs=lambda t: math.nan, t0=0.0, t1=t1)
    assert math.isnan(nan.value) and not nan.converged
    assert nan.ier == 2 == scipy_route(lambda t: math.nan, 0.0, t1)[2]
    # QUADPACK's error estimate is inf as well, and it returns ier 0
    inf = arc_length(g_abs=lambda t: math.inf, t0=0.0, t1=t1)
    assert inf.value == math.inf and not inf.converged
    assert inf.ier == 0 == scipy_route(lambda t: math.inf, 0.0, t1)[2]


def test_an_oscillating_integrand_ends_at_the_cap():
    # 400 subintervals of 21 points on [0, 1]: 42 * 400 - 21 evaluations
    g, calls = counted(lambda t: math.sin(1.0 / t))
    res = arc_length(g_abs=g, t0=0.0, t1=1.0)
    assert (res.converged, res.ier) == (False, 1)
    assert calls[0] == 16_779


def test_limits_as_scipy_reads_them():
    f = lambda t: t * t
    g, calls = counted(f)
    assert quadpack.quad(g, 0.5, 0.5) == (0.0, 0.0, 0) and calls[0] == 0
    assert bits(quadpack.quad(f, 2.0, 1.0)) == bits(scipy_route(f, 2.0, 1.0))
    for a, b in [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 0.0),
                 (0.0, -math.inf)]:
        with pytest.raises(ParameterError):
            quadpack.quad(f, a, b)
    with pytest.raises(TypeError):
        quadpack.quad(lambda t: 1j * t, 0.0, 1.0)
