"""Adaptive Gauss-Kronrod quadrature: QUADPACK's QAGS and QAGI.

A port of the double-precision routines of Piessens, de Doncker-Kapenga,
Ueberhuber and Kahaner, *QUADPACK: A Subroutine Package for Automatic
Integration* (Springer, 1983), as ``scipy.integrate.quad`` runs them with
``limit=400`` and its default tolerances:

- ``_qk21`` is ``dqk21``, the 10-point Gauss and 21-point Kronrod pair on a
  finite span;
- ``_qk15i`` is ``dqk15i``, the 7/15-point pair on a subinterval of (0, 1]
  after the map t = a + (1 - u)/u of [a, inf);
- ``_qpsrt`` is ``dqpsrt``, which keeps the error list in descending order;
- ``_qelg`` is ``dqelg``, Wynn's epsilon-algorithm extrapolation;
- ``_qagse`` is the bisection loop that ``dqagse`` (with ``_qk21``) and
  ``dqagie`` (with ``_qk15i``) share: the extrapolation over the smallest
  subintervals, the roundoff counters, the subinterval-width floor and the
  cap of ``_LIMIT`` subintervals.

The node and weight constants are written out as in QUADPACK, the
arithmetic keeps QUADPACK's order (``fmin``/``fmax`` are C's, which skip a
NaN), and a result that is not extrapolated is the sum of the subinterval
list in list order, so results carry SciPy's bits.  ``quad`` also returns
QUADPACK's return code ``ier`` in SciPy's numbering, after the divergence
test that ``dqagse`` and ``dqagie`` run on an early result.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ParameterError

_LIMIT = 400
_EPSABS = 1.49e-8
_EPSREL = 1.49e-8
_EPMACH = 2.220446049250313e-16  # d1mach(4)
_UFLOW = 2.2250738585072014e-308  # d1mach(1)
_OFLOW = 1.7976931348623157e308  # d1mach(2)
_LIMEXP = 50  # the epsilon table's length

# dqk21: Kronrod abscissae (xgk, the even ones also Gauss abscissae) and
# weights (wgk), 10-point Gauss weights (wg); the last abscissa is the centre
_XGK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208707138789, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG10 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# dqk15i: the 7-point Gauss weights sit at the even Kronrod abscissae, with
# zeros between them, as QUADPACK writes them
_XGK15 = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
)
_WGK15 = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG15 = (
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
)


def _fmax(x: float, y: float) -> float:
    return x if x >= y or y != y else y


def _fmin(x: float, y: float) -> float:
    return x if x <= y or y != y else y


def quad(f: Callable[[float], float], a: float, b: float) -> tuple:
    """(integral of f over [a, b], absolute error estimate, ier), with b
    finite (QAGS) or +inf (QAGI); a must be finite and f real.  ``ier`` is
    SciPy's return code: 0 converged, 1 subdivision cap, 2 roundoff, 3 bad
    integrand, 4 roundoff in extrapolation, 5 probably divergent.  Reversed
    limits negate the integral, and equal limits give (0.0, 0.0, 0)
    without evaluating f, as in ``scipy.integrate.quad``."""
    if math.isnan(a) or math.isnan(b):
        raise ParameterError(f"quadrature limits must not be NaN: [{a}, {b}]")
    if a == b:
        return 0.0, 0.0, 0
    if b < a:
        value, abserr, ier = quad(f, b, a)
        return -value, abserr, ier
    if math.isinf(a):
        raise ParameterError("quadrature needs a finite lower limit")
    if math.isinf(b):
        value, abserr, ier = _qagse(lambda u0, u1: _qk15i(f, a, u0, u1),
                                    0.0, 1.0)
    else:
        value, abserr, ier = _qagse(lambda t0, t1: _qk21(f, t0, t1), a, b)
    # a complex integrand runs through to a complex value; SciPy reads each
    # value of f as a C double, so it is a TypeError here as there
    return float(value), abserr, ier - 1 if ier > 2 else ier


def _error(resk: float, resg: float, hlgth: float, resabs: float,
           resasc: float) -> float:
    """QUADPACK's error estimate of one Gauss-Kronrod pair."""
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * _fmin(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = _fmax((_EPMACH * 50.0) * resabs, abserr)
    return abserr


def _qk21(f, a: float, b: float) -> tuple:
    """dqk21: (result, abserr, resabs, resasc) of the 21-point Kronrod rule
    on [a, b]; resabs integrates |f| and resasc |f - mean|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK21[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (1, 3, 5, 7, 9):  # the Gauss abscissae
        absc = hlgth * _XGK21[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG10[j // 2] * fsum
        resk = resk + _WGK21[j] * fsum
        resabs = resabs + _WGK21[j] * (abs(fval1) + abs(fval2))
    for j in (0, 2, 4, 6, 8):
        absc = hlgth * _XGK21[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK21[j] * fsum
        resabs = resabs + _WGK21[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK21[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK21[j] * (abs(fv1[j] - reskh)
                                       + abs(fv2[j] - reskh))
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    return (resk * hlgth, _error(resk, resg, hlgth, resabs, resasc),
            resabs, resasc)


def _qk15i(f, boun: float, a: float, b: float) -> tuple:
    """dqk15i: as ``_qk21``, for the 15-point Kronrod rule on [a, b] within
    (0, 1], where u stands for t = boun + (1 - u)/u and dt = du/u**2."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = (f(boun + (1.0 - centr) / centr) / centr) / centr
    resg = _WG15[7] * fc
    resk = _WGK15[7] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 7
    fv2 = [0.0] * 7
    for j in range(7):
        absc = hlgth * _XGK15[j]
        absc1 = centr - absc
        absc2 = centr + absc
        fval1 = f(boun + (1.0 - absc1) / absc1)
        fval2 = f(boun + (1.0 - absc2) / absc2)
        fval1 = (fval1 / absc1) / absc1
        fval2 = (fval2 / absc2) / absc2
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG15[j] * fsum
        resk = resk + _WGK15[j] * fsum
        resabs = resabs + _WGK15[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK15[7] * abs(fc - reskh)
    for j in range(7):
        resasc = resasc + _WGK15[j] * (abs(fv1[j] - reskh)
                                       + abs(fv2[j] - reskh))
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    return (resk * hlgth, _error(resk, resg, hlgth, resabs, resasc),
            resabs, resasc)


def _qagse(rule: Callable[[float, float], tuple], a: float, b: float) -> tuple:
    """dqagse/dqagie: bisect the subinterval with the largest error until
    the error sum meets max(_EPSABS, _EPSREL*|integral|), extrapolating the
    sums over the smallest subintervals with ``_qelg``.  Returns (result,
    abserr, ier) with QUADPACK's internal ier, one above SciPy's from 3 on
    (3 roundoff while extrapolating, 6 divergence).  Lists are 1-based."""
    result, abserr, defabs, resabs = rule(a, b)
    errbnd = _fmax(_EPSABS, _EPSREL * abs(result))
    roundoff = abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd
    if (roundoff or (abserr <= errbnd and abserr != resabs)
            or abserr == 0.0):
        return result, abserr, 2 if roundoff else 0
    one_signed = abs(result) >= (1.0 - 50.0 * _EPMACH) * defabs  # ksgn = 1

    alist = [0.0] * (_LIMIT + 1)
    blist = [0.0] * (_LIMIT + 1)
    rlist = [0.0] * (_LIMIT + 1)
    elist = [0.0] * (_LIMIT + 1)
    iord = [0] * (_LIMIT + 1)
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ier = 0  # nonzero: the loop ends (1 cap, 2 roundoff, 4 width, 5 extrap)
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0

    for last in range(2, _LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = rule(a1, b1)
        area2, error2, _, defab2 = rule(a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 0.1e-4 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = _fmax(_EPSABS, _EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == _LIMIT:
            ier = 1
        # the width floor: a subinterval too narrow to bisect again
        if (_fmax(abs(a1), abs(b2))
                <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _list_sum(rlist, last), errsum, ier
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to bisect next the smallest interval?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the
            # larger intervals first while they exceed the small width
            jupbnd = last
            if last > 2 + _LIMIT // 2:
                jupbnd = _LIMIT + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 0.1e-2 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = _fmax(_EPSABS, _EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # the loop ended early: keep the extrapolated result unless the plain
    # sum has the smaller relative error
    if abserr != _OFLOW:
        plain = False
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                plain = abserr / abs(result) > errsum / abs(area)
            else:
                plain = abserr > errsum
                if not plain and area == 0.0:
                    return result, abserr, ier  # no divergence test
        if not plain:
            # the divergence test; x/0 is +-inf (either sign fails alike)
            # and 0/0 NaN, as in IEEE arithmetic
            ratio = result / area if area != 0.0 else math.inf * result
            if ((one_signed or not _fmax(abs(result), abs(area))
                 <= defabs * 0.01)
                    and (0.01 > ratio or ratio > 100.0
                         or errsum > abs(area))):
                ier = 6
            return result, abserr, ier
    return _list_sum(rlist, last), errsum, ier


def _list_sum(rlist: list, last: int) -> float:
    # not sum(), which compensates float sums from Python 3.12 on
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result


def _qpsrt(last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple:
    """dqpsrt: keep ``iord`` listing the subintervals by descending error
    after ``maxerr`` was bisected into ``maxerr`` and ``last``; returns the
    next (maxerr, errmax, nrmax).  Only as many entries stay ordered as
    bisections remain."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # subdivision raised the error: move up past the nrmax-1 larger ones
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > _LIMIT // 2 + 2:
            jupbn = _LIMIT + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple:
    """dqelg: Wynn's epsilon algorithm on the n sums in ``epstab`` (1-based,
    the newest last).  Returns (n, result, abserr, nres): the table's new
    length, the extrapolated limit, its error estimate (from the last three
    results in ``res3la``) and the count of calls."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, _fmax(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    converged = False
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = _fmax(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = _fmax(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy
            result = res
            abserr = err2 + err3
            converged = True
            break
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = _fmax(e1abs, abs(e3)) * _EPMACH
        # two elements very close, or irregular behaviour: cut the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 0.1e-3:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    if not converged:
        # shift the table
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                      + abs(result - res3la[1]))
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
    return n, result, _fmax(abserr, 5.0 * _EPMACH * abs(result)), nres
