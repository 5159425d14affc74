"""Invariant suites behind the audit command and the acceptance tests.

Each suite returns a list of CheckResult rows; a suite passes when every
row does.  All randomness flows from the single seed argument.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from .analysis import (CERTIFIED, FINITE_HORIZON, NON_REGULAR, REGULAR,
                       REFUTED_TREND, SHIFT_FINITE, SHIFT_NOT_APPLICABLE,
                       OrbitTrack, SpiralSpec, ahlfors_audit,
                       backward_criterion, bilipschitz_probe,
                       euclidean_sufficient_test, forward_certificate,
                       generator_tail, hayman_wu_audit, lipschitz_quotient,
                       regularity_classify, shift_classify)
from .catalog import (BUILTIN_NAMES, CONVEX_BUILTINS, NONELLIPTIC_BUILTINS,
                      builtin_semigroup, builtin_start)
from .confmap import Mobius
from .domains import Disk, Domain, HalfPlane, HalfStrip, Strip
from .errors import CrossValidationError, DiskflowError
from .hypgeo import disk_distance, domain_density, domain_distance
from .semigroup import ELLIPTIC, NONELLIPTIC

_FORWARD_STARTS = 100
_BACKWARD_STARTS = 50
_AHLFORS_DISKS = 1000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    count: int
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed,
                "count": self.count, "detail": self.detail}


def _check(name, passed, count, detail="") -> CheckResult:
    return CheckResult(name, bool(passed), int(count), detail)


def _builtins():
    return [(name, builtin_semigroup(name)) for name in BUILTIN_NAMES]


def _random_disk_points(rng, n, r_lo=0.05, r_hi=0.8):
    r = np.sqrt(rng.uniform(r_lo ** 2, r_hi ** 2, size=n))
    th = rng.uniform(-math.pi, math.pi, size=n)
    return [complex(rr * math.cos(tt), rr * math.sin(tt))
            for rr, tt in zip(r, th)]


class _Masked(Domain):
    """Hide a domain's exact structure so the interval fallbacks engage."""

    def __init__(self, inner):
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "convex", inner.convex)

    kind = "masked"

    def contains(self, w):
        return self.inner.contains(w)

    def _distance(self, w):
        return self.inner._distance(w)

    def is_convex_positive_exact(self):
        return self.inner.is_convex_positive_exact()

    def truncation(self):
        return self.inner.truncation()

    def __repr__(self):
        return f"Masked({self.inner!r})"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def suite_metrics(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    out = []

    exact_domains = [HalfPlane("right", 0.0), HalfPlane("upper", 0.0),
                     Strip(1.0, 0.0), HalfStrip(-4.0, 0.5, 0.0),
                     Disk(0j, 1.0), Disk(1 + 1j, 2.0)]
    worst = 0.0
    n = 0
    for dom in exact_domains:
        for w in dom.interior_samples(1000, seed + 1):
            lam = domain_density(dom, w)
            delta = dom.boundary_distance(w)
            lo, hi = 0.25 / delta, 1.0 / delta
            slack = max(lo - lam.lo, lam.hi - hi) / max(1.0, lam.hi)
            worst = max(worst, slack)
            n += 1
    out.append(_check("density_between_distance_bounds",
                      worst <= 1e-9, n, f"worst rel slack {worst:.2e}"))

    pts = _random_disk_points(rng, 3000, 0.0, 0.95)
    worst = 0.0
    for a, b, c in zip(pts[0::3], pts[1::3], pts[2::3]):
        viol = disk_distance(a, c) - disk_distance(a, b) - disk_distance(b, c)
        worst = max(worst, viol)
    out.append(_check("disk_distance_triangle_inequality",
                      worst <= 1e-12, 1000, f"worst violation {worst:.2e}"))

    worst = 0.0
    for i in range(1000):
        z, w = _random_disk_points(rng, 2, 0.0, 0.9)
        a = complex(*rng.uniform(-0.5, 0.5, 2))
        th = rng.uniform(-math.pi, math.pi)
        sigma = Mobius(cmath.exp(1j * th), -a * cmath.exp(1j * th),
                       -a.conjugate(), 1.0)
        d1 = disk_distance(z, w)
        d2 = disk_distance(sigma.evaluate(z), sigma.evaluate(w))
        worst = max(worst, abs(d1 - d2))
    out.append(_check("disk_distance_moebius_invariance",
                      worst <= 1e-12, 1000, f"worst drift {worst:.2e}"))

    # lower bound <= exact <= enclosure upper bound, on a masked strip
    strip = Strip(1.0, 0.0)
    masked = _Masked(strip)
    bad = 0
    for i in range(200):
        x = rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.1, 20.0)
        y = rng.uniform(-0.7, 0.7)
        z, w = complex(x, y), complex(x - t, y)
        iv = domain_distance(masked, z, w)
        exact = strip.hyperbolic_distance(z, w)
        if not (iv.lo <= exact * (1 + 1e-9) and exact <= iv.hi * (1 + 1e-9)):
            bad += 1
    out.append(_check("interval_brackets_exact_distance", bad == 0, 200,
                      f"{bad} violations"))

    # near-boundary cutoff
    try:
        domain_density(strip, complex(0.0, 1.0 - 1e-14))
        cut_ok = False
    except DiskflowError:
        cut_ok = True
    out.append(_check("near_boundary_cutoff_rejects", cut_ok, 1))

    return out


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------


def suite_semigroup(seed: int = 0) -> list:
    out = []
    grid = [0.25 * i for i in range(41)]  # [0, 10]
    for name, sg in _builtins():
        checks = sg.validate(seed=seed)
        ok = all(p for p, _ in checks.values())
        detail = "; ".join(f"{k}={v:.1e}" for k, (p, v) in checks.items())
        out.append(_check(f"{name}:type_invariants", ok, len(checks), detail))

        z0 = builtin_start(name)
        try:
            samples = sg.forward_orbit(z0, grid, cross_check=True)
            out.append(_check(f"{name}:dual_method_forward", True, len(grid)))
        except CrossValidationError as exc:
            out.append(_check(f"{name}:dual_method_forward", False, len(grid),
                              str(exc)))
            continue

        horizon = sg.backward_horizon(z0)
        t_back = min(0.9 * horizon.value, 10.0)
        if t_back > 0.05:
            bgrid = [t_back * i / 20 for i in range(21)]
            try:
                sg.backward_orbit(z0, bgrid, cross_check=True)
                out.append(_check(f"{name}:dual_method_backward", True, 21))
            except CrossValidationError as exc:
                out.append(_check(f"{name}:dual_method_backward", False, 21,
                                  str(exc)))

        deltas = [s.delta_omega for s in samples]
        if sg.kind == NONELLIPTIC:
            mono = all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
            out.append(_check(f"{name}:delta_omega_nondecreasing", mono,
                              len(deltas)))
            g0 = abs(sg.generator_at_w(sg.koenigs_image(z0)))
            g100 = abs(sg.generator_at_w(sg.orbit_w(z0, 100.0)))
            out.append(_check(f"{name}:generator_decay",
                              g100 < 0.05 and g100 < g0, 2,
                              f"|G|(100)={g100:.2e} |G|(0)={g0:.2e}"))

        # splice continuity at t = 0
        if horizon.value > 1e-4:
            eps = 1e-6
            fo = sg.full_orbit(z0, [-eps, 0.0, eps], cross_check=False)
            jump = max(abs(fo[1].z - fo[0].z), abs(fo[2].z - fo[1].z))
            out.append(_check(f"{name}:full_orbit_splice_continuity",
                              jump < 1e-5, 3, f"jump {jump:.2e}"))

    dw_anchors = {"halfplane": 1.0, "strip": 1.0, "uhp": 1.0,
                  "dilation": 0.0, "spiral": 0.0}
    for name, target in dw_anchors.items():
        sg = builtin_semigroup(name)
        dw = sg.denjoy_wolff_estimate(builtin_start(name)
                                      if sg.kind == ELLIPTIC else 0j)
        err = abs(dw.point - target)
        out.append(_check(f"{name}:denjoy_wolff_anchor",
                          dw.converged and err < 1e-6, 1,
                          f"err {err:.2e} at t={dw.achieved_time:.3g}"))
    return out


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def suite_forward(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for name, sg in _builtins():
        starts = [builtin_start(name)] + _random_disk_points(rng, _FORWARD_STARTS - 1)
        fails = 0
        worst = 0.0
        for z in starts:
            cert = forward_certificate(sg, z)
            if not cert.passed:
                fails += 1
                worst = max(worst, cert.measured / max(cert.constant, 1e-300))
        out.append(_check(f"{name}:forward_certificates", fails == 0,
                          len(starts),
                          f"{fails} failures" + (f", worst ratio {worst:.3f}"
                                                 if fails else "")))
    cert = forward_certificate(catalog.halfplane_semigroup(), 0j)
    out.append(_check("halfplane:certificate_anchor",
                      abs(cert.constant - 1.0) < 1e-12
                      and abs(cert.measured - 0.5) < 1e-6, 1,
                      f"constant={cert.constant!r} measured={cert.measured!r}"))
    return out


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def _builtin_track(name):
    sg = builtin_semigroup(name)
    return OrbitTrack.from_semigroup(sg, builtin_start(name))


def suite_backward(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    out = []

    reports = {}
    for name in BUILTIN_NAMES:
        reports[name] = backward_criterion(_builtin_track(name))

    rep = reports["halfplane"]
    ratios = [s.ratio for s in rep.samples]
    dev = max(max(abs(r.lo - 0.5), abs(r.hi - 0.5)) for r in ratios)
    out.append(_check("halfplane:criterion_ratio_is_half",
                      dev < 1e-9 and rep.verdict == CERTIFIED
                      and abs(rep.bound - 0.5) < 1e-9,
                      len(ratios), f"max dev {dev:.2e}, verdict {rep.verdict}"))

    rep = reports["dilation"]
    r0 = rep.samples[0].ratio
    dev = max(abs(r0.lo - 4.0 / 3.0), abs(r0.hi - 4.0 / 3.0))
    out.append(_check("dilation:criterion_anchor",
                      dev < 1e-9 and rep.verdict == CERTIFIED, 1,
                      f"t=0 ratio dev {dev:.2e}, verdict {rep.verdict}"))

    for name in ("strip", "uhp", "spiral", "channel"):
        out.append(_check(f"{name}:criterion_certified",
                          reports[name].verdict == CERTIFIED, 1,
                          reports[name].verdict))

    sandwich_bad = [n for n, r in reports.items()
                    if not (r.sandwich_checked and r.sandwich_ok)]
    out.append(_check("sandwich_invariant_all_fixtures", not sandwich_bad,
                      len(reports), f"violations: {sandwich_bad}"))

    tip = backward_criterion(catalog.slit_tip_track())
    out.append(_check("slit_tip:criterion_refuted",
                      tip.verdict == REFUTED_TREND, 1, tip.verdict))

    # consistency: Certified <=> bounded generator tail
    mism = []
    for name in BUILTIN_NAMES:
        certified = reports[name].verdict == CERTIFIED
        if certified == generator_tail(reports[name]).diverging:
            mism.append(name)
    if (tip.verdict == REFUTED_TREND) != generator_tail(tip).diverging:
        mism.append("slit_tip")
    out.append(_check("criterion_matches_generator_tail", not mism, len(BUILTIN_NAMES) + 1,
                      f"mismatches: {mism}"))

    hp_tail = generator_tail(reports["halfplane"])
    el_tail = generator_tail(reports["dilation"])
    out.append(_check("generator_limsup_anchors",
                      abs(hp_tail.sup_tail - 2.0) < 1e-6
                      and abs(el_tail.sup_tail - 1.0) < 1e-6, 2,
                      f"halfplane {hp_tail.sup_tail!r}, dilation "
                      f"{el_tail.sup_tail!r}"))

    # regularity
    reg_strip = regularity_classify(_builtin_track("strip"))
    step_dev = max(abs(k.lo - math.pi / 4) for _, k in reg_strip.steps)
    out.append(_check("strip:regular_with_quarter_pi_steps",
                      reg_strip.classification == REGULAR and step_dev < 1e-9,
                      len(reg_strip.steps),
                      f"{reg_strip.classification}, step dev {step_dev:.2e}"))
    out.append(_check("uhp:regular",
                      regularity_classify(_builtin_track("uhp")).classification
                      == REGULAR, 1))
    out.append(_check("halfplane:finite_horizon",
                      regularity_classify(_builtin_track("halfplane"))
                      .classification == FINITE_HORIZON, 1))
    for k in (2, 3):
        track = catalog.example_track(k)
        cls = regularity_classify(track).classification
        rep = backward_criterion(track)
        out.append(_check(f"example{k}:nonregular_and_certified",
                          cls == NON_REGULAR and rep.verdict == CERTIFIED, 2,
                          f"{cls}, {rep.verdict}"))

    # Euclidean sufficient test
    ex2 = euclidean_sufficient_test(catalog.example_track(2))
    out.append(_check("example2:euclidean_test_pass", ex2.passed, 1,
                      f"liminf ~ {ex2.liminf_estimate:.3g}"))
    stest = euclidean_sufficient_test(_builtin_track("strip"))
    out.append(_check("strip:euclidean_test_pass", stest.passed, 1))
    etest = euclidean_sufficient_test(catalog.exp_channel_track())
    out.append(_check("exp_channel:euclidean_test_fails", not etest.passed, 1,
                      f"liminf ~ {etest.liminf_estimate:.3g}"))

    # Cor 1.4: regular orbits have bounded generator tails
    for name in ("strip", "uhp"):
        tail = generator_tail(reports[name])
        out.append(_check(f"{name}:cor14_regular_implies_bounded",
                          not tail.diverging and tail.sup_tail < 1e3, 1,
                          f"sup {tail.sup_tail:.3g}"))

    # Cor 1.5: convex Koenigs domains certify from random starts
    fails = 0
    total = 0
    for name in CONVEX_BUILTINS:
        sg = builtin_semigroup(name)
        for z in _random_disk_points(rng, _BACKWARD_STARTS):
            track = OrbitTrack.from_semigroup(sg, z)
            repz = backward_criterion(track)
            total += 1
            if repz.verdict != CERTIFIED:
                fails += 1
    out.append(_check("cor15_convex_builtins_certify", fails == 0, total,
                      f"{fails} non-certified"))

    # Cor 4.6: full-orbit quotient ~ max(forward, backward)
    bad = []
    for name in ("halfplane", "strip", "dilation"):
        sg = builtin_semigroup(name)
        z = builtin_start(name)
        T = sg.backward_horizon(z).value
        a = min(0.9 * T, 10.0)
        w0 = sg.koenigs_image(z)

        def full(ts, sg=sg, w0=w0):
            # forward by the pullback step for t >= 0, backward along the
            # Koenigs ray for t < 0, each side in one array call
            out = np.empty(ts.size, complex)
            fwd = ts >= 0
            out[fwd] = sg.phi_from_image(ts[fwd], w0)
            out[~fwd] = sg.koenigs.invert(
                sg.ray_w(w0, -ts[~fwd], backward=True))
            return out

        qf = lipschitz_quotient(full, 0.0, 10.0).value
        qb = lipschitz_quotient(lambda ts: full(-ts), 0.0, a).value
        qfull = lipschitz_quotient(full, -a, 10.0).value
        target = max(qf, qb)
        if not (abs(qfull - target) <= 0.05 * target):
            bad.append(f"{name}: full {qfull:.4f} vs max {target:.4f}")
    out.append(_check("cor46_full_orbit_quotient", not bad, 3, "; ".join(bad)))

    # bi-Lipschitz probes
    sg = builtin_semigroup("halfplane")
    fwd = sg.forward_orbit(0j, [i * 1.0 for i in range(101)],
                           cross_check=False)
    probe_f = bilipschitz_probe(fwd)
    anchor = 2.0 / 102.0 ** 2
    bwd = sg.backward_orbit(0j, [i * 0.9 / 30 for i in range(31)],
                            cross_check=False)
    probe_b = bilipschitz_probe(bwd)
    out.append(_check("halfplane:bilipschitz_probes",
                      probe_f.verdict == "not_bilipschitz"
                      and abs(probe_f.inf_g - anchor) < 1e-9
                      and probe_b.verdict == "bilipschitz_on_range"
                      and abs(probe_b.inf_g - 0.5) < 1e-9, 2,
                      f"fwd inf {probe_f.inf_g!r}, bwd inf {probe_b.inf_g!r}"))
    return out


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------


def suite_shift(seed: int = 0) -> list:
    out = []
    res = shift_classify(builtin_semigroup("uhp"), 0j)
    out.append(_check("uhp:finite_shift",
                      res.classification == SHIFT_FINITE, 1,
                      f"{res.classification}, sup Re C = {res.sup_re:.6g}"))
    out.append(_check("uhp:cayley_quotient_anchor",
                      abs(res.quotient - 1.0) < 1e-6, 1,
                      f"quotient {res.quotient!r}"))
    # Prop 4.2 equivalence on the fixture: finite shift <=> C∘gamma Lipschitz
    out.append(_check("uhp:prop42_equivalence",
                      (res.classification == SHIFT_FINITE)
                      == (res.quotient < 10.0), 1))
    for name in ("strip", "dilation", "channel"):
        r = shift_classify(builtin_semigroup(name), builtin_start(name))
        out.append(_check(f"{name}:shift_not_applicable",
                          r.classification == SHIFT_NOT_APPLICABLE, 1,
                          r.classification))
    return out


# ---------------------------------------------------------------------------
# ahlfors / hayman-wu
# ---------------------------------------------------------------------------


def suite_ahlfors(seed: int = 0) -> list:
    out = []
    alphas = (-2.0, -1.0, -0.5, 1.0, 2.0)
    betas = (-2.0, -1.0, 0.5, 1.0, 2.0)
    fails = []
    worst = 0.0
    for a in alphas:
        for b in betas:
            spec = SpiralSpec(1.0 + 0j, a, b)
            res = ahlfors_audit(spec, n_disks=_AHLFORS_DISKS, seed=seed + 17)
            worst = max(worst, res.measured_sup / res.bound)
            if not res.passed:
                fails.append((a, b))
    out.append(_check("spiral_grid_within_bound", not fails,
                      len(alphas) * len(betas) * _AHLFORS_DISKS,
                      f"worst measured/bound {worst:.4f}; fails {fails}"))
    anchor = ahlfors_audit(SpiralSpec(1.0 + 0j, -1.0, 1.0),
                           n_disks=_AHLFORS_DISKS, seed=seed + 18)
    out.append(_check("anchor_bound_two_sqrt_two",
                      abs(anchor.bound - 2.0 * math.sqrt(2.0)) < 1e-12
                      and anchor.passed, _AHLFORS_DISKS,
                      f"measured {anchor.measured_sup:.4f} <= "
                      f"{anchor.bound:.6f}"))
    ray = ahlfors_audit(SpiralSpec(1.0 + 0j, -1.0, 0.0), n_disks=200,
                        seed=seed + 19)
    out.append(_check("ray_degenerate_case",
                      ray.passed and abs(ray.bound - 2.0) < 1e-12, 200,
                      f"measured {ray.measured_sup:.4f}"))
    circ = ahlfors_audit(SpiralSpec(1.0 + 0j, 0.0, 1.0), n_disks=200,
                         seed=seed + 20)
    out.append(_check("circle_degenerate_case", circ.passed and circ.trivial,
                      200, f"measured {circ.measured_sup:.4f}"))
    return out


def suite_haymanwu(seed: int = 0) -> list:
    out = []
    anchors = {"halfplane": 2.0, "strip": 2.0}
    for name in NONELLIPTIC_BUILTINS:
        sg = builtin_semigroup(name)
        res = hayman_wu_audit(sg, builtin_start(name))
        ok = res["pass"]
        detail = f"length {res['length']:.6f} <= 4pi"
        if name in anchors:
            ok = ok and abs(res["length"] - anchors[name]) < 1e-6
            detail += f" (anchor {anchors[name]})"
        out.append(_check(f"{name}:hayman_wu", ok, 1, detail))
    return out


SUITES = {
    "metrics": suite_metrics,
    "semigroup": suite_semigroup,
    "forward": suite_forward,
    "backward": suite_backward,
    "shift": suite_shift,
    "ahlfors": suite_ahlfors,
    "haymanwu": suite_haymanwu,
}


def run_suite(name: str, seed: int = 0) -> list:
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(run_suite(key, seed))
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)
