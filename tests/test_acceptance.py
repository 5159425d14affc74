"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line."""

import json
import math

import numpy as np

from diskflow import catalog
from diskflow.analysis import (CERTIFIED, NON_REGULAR, REGULAR, SHIFT_FINITE,
                               SHIFT_NOT_APPLICABLE, OrbitTrack, SpiralSpec,
                               ahlfors_audit, backward_criterion,
                               bilipschitz_probe, euclidean_sufficient_test,
                               forward_certificate, generator_tail,
                               hayman_wu_audit, lipschitz_quotient,
                               regularity_classify, shift_classify)
from diskflow.cli import main
from diskflow.confmap import Affine, MapExpr, Mobius, Power
from diskflow.domains import HalfStrip, example1_domain, unit_disk
from diskflow.hypgeo import logsinh

from conftest import disk_points


def report(number, passed, text):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {text}")
    assert passed, f"criterion {number}: {text}"


def test_01_closed_form_orbit_anchors(builtins):
    worst = 0.0
    for t in (0.1, 1.0, 10.0, 100.0):
        worst = max(worst, abs(builtins["halfplane"].phi(t, 0j)
                               - t / (t + 2.0)))
        worst = max(worst, abs(builtins["strip"].phi(t, 0j)
                               - math.tanh(math.pi * t / 4.0)))
    report(1, worst < 1e-9,
           f"half-plane t/(t+2) and strip tanh(pi t/4) anchors, worst "
           f"deviation {worst:.2e} (tol 1e-9)")


def test_02_dual_method_agreement(builtins):
    grid = [0.25 * i for i in range(41)]
    failures = []
    for name in catalog.BUILTIN_NAMES:
        try:
            builtins[name].forward_orbit(catalog.builtin_start(name), grid,
                                         cross_check=True)
        except Exception as exc:  # CrossValidationError carries diagnostics
            failures.append(f"{name}: {exc}")
    report(2, not failures,
           "pullback vs ODE within 1e-6 sup-norm on [0,10] for all six "
           f"built-ins ({'; '.join(failures) or 'all agree'})")


def test_03_forward_certificates(builtins, rng):
    fails = 0
    for name in catalog.BUILTIN_NAMES:
        sg = builtins[name]
        starts = [catalog.builtin_start(name)] + disk_points(rng, 99, 0.8,
                                                             0.05)
        for z in starts:
            if not forward_certificate(sg, z).passed:
                fails += 1
    anchor = forward_certificate(builtins["halfplane"], 0j)
    ok = (fails == 0 and abs(anchor.constant - 1.0) < 1e-12
          and abs(anchor.measured - 0.5) < 1e-6)
    report(3, ok,
           f"certificates pass on 6 x 100 starts ({fails} failures); "
           f"half-plane anchor constant {anchor.constant:g}, measured "
           f"{anchor.measured:.9f} (0.5 +- 1e-6)")


def test_04_generator_decay(builtins):
    rows = []
    ok = True
    for name in catalog.NONELLIPTIC_BUILTINS:
        sg = builtins[name]
        w0 = sg.koenigs_image(catalog.builtin_start(name))
        g0 = abs(sg.generator_at_w(w0))
        g100 = abs(sg.generator_at_w(w0 + 100.0))
        ok = ok and g100 < 0.05 and g100 < g0
        rows.append(f"{name} |G|(100)={g100:.2e}")
    report(4, ok, "generator decay at t=100 below 0.05 and below t=0: "
           + ", ".join(rows))


def test_05_hayman_wu(builtins):
    ok = True
    rows = []
    for name in catalog.NONELLIPTIC_BUILTINS:
        res = hayman_wu_audit(builtins[name], catalog.builtin_start(name))
        ok = ok and res["pass"]
        rows.append(f"{name}={res['length']:.6f}")
        if name in ("halfplane", "strip"):
            ok = ok and abs(res["length"] - 2.0) < 1e-6
    report(5, ok, "full-orbit lengths <= 4pi (" + ", ".join(rows)
           + "); half-plane and strip anchors 2 +- 1e-6")


def test_06_backward_criterion(builtins):
    hp = backward_criterion(OrbitTrack.from_semigroup(builtins["halfplane"],
                                                      0j))
    dev = max(max(abs(s.ratio.lo - 0.5), abs(s.ratio.hi - 0.5))
              for s in hp.samples)
    ok = (dev < 1e-9 and hp.verdict == CERTIFIED
          and abs(hp.bound - 0.5) < 1e-9)
    el = backward_criterion(OrbitTrack.from_semigroup(builtins["dilation"],
                                                      0.5 + 0j))
    r0 = el.samples[0].ratio
    ok = ok and el.verdict == CERTIFIED and abs(r0.lo - 4.0 / 3.0) < 1e-9
    sandwich_bad = []
    for name in catalog.BUILTIN_NAMES:
        rep = backward_criterion(OrbitTrack.from_semigroup(
            builtins[name], catalog.builtin_start(name)))
        if not (rep.sandwich_checked and rep.sandwich_ok):
            sandwich_bad.append(name)
    ok = ok and not sandwich_bad
    report(6, ok,
           f"half-plane ratio==0.5 (worst dev {dev:.2e}), Certified(0.5); "
           f"dilation Certified with t=0 ratio 4/3; sandwich holds on every "
           f"sample of every fixture (violations: {sandwich_bad or 'none'})")


def test_07_criterion_tail_consistency(builtins):
    mismatches = []
    for name in catalog.BUILTIN_NAMES:
        sg = builtins[name]
        z = catalog.builtin_start(name)
        rep = backward_criterion(OrbitTrack.from_semigroup(sg, z))
        if (rep.verdict == CERTIFIED) == generator_tail(rep).diverging:
            mismatches.append(name)
    hp = generator_tail(backward_criterion(
        OrbitTrack.from_semigroup(builtins["halfplane"], 0j)))
    el = generator_tail(backward_criterion(
        OrbitTrack.from_semigroup(builtins["dilation"], 0.5 + 0j)))
    ok = (not mismatches and abs(hp.sup_tail - 2.0) < 1e-6
          and abs(el.sup_tail - 1.0) < 1e-6)
    report(7, ok,
           f"Certified <=> bounded |G| tail on built-ins "
           f"(mismatches {mismatches or 'none'}); half-plane tail sup "
           f"{hp.sup_tail:.9f} (2 +- 1e-6), dilation {el.sup_tail:.9f} "
           f"(1 +- 1e-6)")


def test_08_corollaries_14_15(builtins, rng):
    strip_track = OrbitTrack.from_semigroup(builtins["strip"], 0j)
    reg = regularity_classify(strip_track)
    step_dev = max(abs(k.lo - math.pi / 4.0) for _, k in reg.steps)
    strip_rep = backward_criterion(strip_track)
    ok = (reg.classification == REGULAR and step_dev < 1e-9
          and strip_rep.verdict == CERTIFIED)
    non_certified = 0
    for name in catalog.CONVEX_BUILTINS:
        sg = builtins[name]
        for z in disk_points(rng, 50, 0.8, 0.05):
            rep = backward_criterion(OrbitTrack.from_semigroup(sg, z))
            if rep.verdict != CERTIFIED:
                non_certified += 1
    ok = ok and non_certified == 0
    report(8, ok,
           f"strip backward Regular with unit-step pi/4 (dev {step_dev:.2e}) "
           f"and Certified; convex built-ins x 50 random starts all "
           f"Certified ({non_certified} failures)")


def test_09_examples_2_and_3():
    t2 = catalog.example_track(2)
    reg2 = regularity_classify(t2).classification
    euc2 = euclidean_sufficient_test(t2)
    rep2 = backward_criterion(t2)
    t3 = catalog.example_track(3)
    reg3 = regularity_classify(t3).classification
    rep3 = backward_criterion(t3)
    ok = (reg2 == NON_REGULAR and euc2.passed and rep2.verdict == CERTIFIED
          and reg3 == NON_REGULAR and rep3.verdict == CERTIFIED)
    report(9, ok,
           f"example 2: {reg2}, euclidean pass={euc2.passed}, "
           f"{rep2.verdict}; example 3: {reg3}, {rep3.verdict}")


def test_10_example1_audit(tmp_path):
    dom = example1_domain(40)
    delta0 = dom.boundary_distance(0j)
    rng = np.random.default_rng(20240817)
    violations = 0
    for t in (4.0, 8.0, 16.0):
        n = math.floor(t)
        xs = rng.uniform(-float(2 ** n), float(2 ** n), size=10_000)
        ys = rng.uniform(-1.0 / n, 1.0 / n, size=10_000)
        violations += sum(0 if dom.contains(complex(x, y)) else 1
                          for x, y in zip(xs, ys))
    sigma8 = HalfStrip(left=-256.0, half_width=1.0 / 8.0)
    k_exact = sigma8.hyperbolic_distance(0j, -8.0)
    k_expect = 0.5 * (logsinh(1024.0 * math.pi) - logsinh(992.0 * math.pi))
    expr = catalog.example1_displayed_expression(8.0)
    rc = main(["examples", "--id", "1", "--truncation", "40",
               "--out", str(tmp_path)])
    rep = json.loads((tmp_path / "example1_report.json").read_text())
    ok = (delta0 == 2.0 and violations == 0
          and abs(k_exact - k_expect) < 1e-9
          and abs(k_exact - 16.0 * math.pi) < 1e-6
          and abs(expr - 1.9375) < 1e-12
          and rc == 0 and bool(rep["discrepancy_note"]))
    report(10, ok,
           f"delta(0)={delta0} (exact 2); containment violations "
           f"{violations}/30000; k_Sigma8(0,-8)={k_exact:.9f} "
           f"(16pi +- 1e-6 via log-space); displayed expression {expr!r} "
           f"(1.9375 +- 1e-12); discrepancy note present")


def test_11_shift(builtins):
    uhp = shift_classify(builtins["uhp"], 0j)
    strip = shift_classify(builtins["strip"], 0j)
    ell = shift_classify(builtins["dilation"], 0.5 + 0j)
    ok = (uhp.classification == SHIFT_FINITE
          and abs(uhp.quotient - 1.0) < 1e-6
          and strip.classification == SHIFT_NOT_APPLICABLE
          and ell.classification == SHIFT_NOT_APPLICABLE)
    report(11, ok,
           f"upper-half-plane fixture {uhp.classification} with "
           f"C-quotient {uhp.quotient:.9f} (1 +- 1e-6); strip "
           f"{strip.classification}, elliptic {ell.classification}")


def test_12_ahlfors_grid():
    alphas = (-2.0, -1.0, -0.5, 1.0, 2.0)
    betas = (-2.0, -1.0, 0.5, 1.0, 2.0)
    fails = []
    for a in alphas:
        for b in betas:
            res = ahlfors_audit(SpiralSpec(1.0 + 0j, a, b), n_disks=1000,
                                seed=20240817)
            if not res.passed:
                fails.append((a, b, res.measured_sup, res.bound))
    anchor = ahlfors_audit(SpiralSpec(1.0 + 0j, -1.0, 1.0), n_disks=1000,
                           seed=20240817)
    ok = (not fails and anchor.passed
          and abs(anchor.bound - 2.0 * math.sqrt(2.0)) < 1e-12)
    report(12, ok,
           f"5x5 grid x 1000 disks within bound*(1+1e-3) "
           f"(failures {fails or 'none'}); anchor bound 2*sqrt(2), measured "
           f"{anchor.measured_sup:.4f}")


def test_13_bilipschitz(builtins):
    sg = builtins["halfplane"]
    fwd = bilipschitz_probe(sg.forward_orbit(
        0j, [float(i) for i in range(101)], cross_check=False))
    bwd = bilipschitz_probe(sg.backward_orbit(
        0j, [0.9 * i / 30 for i in range(31)], cross_check=False))
    anchor = 2.0 / 102.0 ** 2
    ok = (fwd.verdict == "not_bilipschitz"
          and abs(fwd.inf_g - anchor) < 1e-9
          and bwd.verdict == "bilipschitz_on_range"
          and abs(bwd.inf_g - 0.5) < 1e-9)
    report(13, ok,
           f"forward inf|G|={fwd.inf_g:.3e} (2/102^2 +- 1e-9, "
           f"{fwd.verdict}); backward inf=0.5 +- 1e-9 ({bwd.verdict})")


def test_14_conjugation(builtins, rng):
    # (a) bounded target: quotients bounded across 20 starts
    quad = MapExpr((Affine(1.0, -1.0), Power(2.0, math.pi),
                    Affine(-0.5, 0.5)), source=unit_disk())
    sg = builtins["halfplane"]
    conj = sg.conjugate(quad)
    bounded_ok = True
    for z in disk_points(rng, 20, 0.7):
        zeta = quad.evaluate(z)
        w0 = conj.koenigs_image(zeta)
        q = lipschitz_quotient(lambda ts: conj.phi_from_image(ts, w0),
                               0.0, 50.0).value
        bound = 4.0 * 1.5 / sg.omega.boundary_distance(sg.koenigs_image(z))
        bounded_ok = bounded_ok and q <= bound * 1.05
    # (b) hyperbolic base into a half-plane: quotients grow across decades
    mob = MapExpr((Mobius(1, 0, -1, 1),), source=unit_disk())
    conj2 = builtins["strip"].conjugate(mob)
    w0 = conj2.koenigs_image(0j)
    qs = [lipschitz_quotient(lambda ts: conj2.phi_from_image(ts, w0),
                             0.0, T).value
          for T in (10.0, 100.0, 1000.0)]
    growing = qs[0] < qs[1] < qs[2] and all(math.isfinite(q) for q in qs)
    report(14, bounded_ok and growing,
           f"bounded-target quotients within the certificate on 20 starts; "
           f"strip-in-half-plane quotients grow across decades: "
           f"{qs[0]:.3e} < {qs[1]:.3e} < {qs[2]:.3e}")


def test_15_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["audit", "--suite", "all", "--seed", "424242",
                "--out", str(out1)])
    rc2 = main(["audit", "--suite", "all", "--seed", "424242",
                "--out", str(out2)])
    b1 = (out1 / "audit_all.json").read_bytes()
    b2 = (out2 / "audit_all.json").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and b1 == b2
    report(15, ok,
           f"two `audit all` runs with one seed: exit {rc1}/{rc2}, "
           f"byte-identical reports: {b1 == b2}")
