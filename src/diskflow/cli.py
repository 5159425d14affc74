"""Command-line interface: scenario traces, criterion reports, example
audits, and the invariant suites.

Exit codes: 0 ok, 1 audit failure, 2 usage/validation, 3 numeric failure.
All outputs are deterministic for a fixed scenario and seed; files are
written atomically and every report embeds the tool version, the scenario
hash, truncation metadata, and the heuristic parameters in force.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, catalog
from .analysis import (DEFAULT_HEURISTIC, OrbitTrack, backward_criterion,
                       euclidean_sufficient_test, regularity_classify)
from .audits import SUITES, run_suite
from .domains import (SlitStrip, example1_domain, example2_domain,
                      example3_domain)
from .errors import (CrossValidationError, DiskflowError, DomainError,
                     EvaluationError, HorizonError, InversionError,
                     ParameterError, ScenarioError)
from .scenario import Scenario

DEFAULT_SEED = 20240817

_VALIDATION_ERRORS = (ScenarioError, ParameterError, HorizonError, DomainError)
_NUMERIC_ERRORS = (CrossValidationError, InversionError, EvaluationError)


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path: Path, payload: dict):
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _meta(seed: int, scenario: Scenario | None = None, **extra) -> dict:
    meta = {"tool_version": __version__, "seed": seed,
            "heuristic": DEFAULT_HEURISTIC.to_dict(), "truncation": None,
            "scenario_hash": None}
    if scenario is not None:
        meta["scenario_hash"] = scenario.digest()
        meta["scenario_name"] = scenario.name
        meta["heuristic"] = scenario.heuristic.to_dict()
        try:
            meta["truncation"] = scenario.resolve_domain().truncation()
        except DiskflowError:
            meta["truncation"] = None
    meta.update(extra)
    return meta


def _fmt(x) -> str:
    return repr(float(x))


def _orbit_csv(samples) -> str:
    lines = ["t,re,im,w_re,w_im,g_abs,delta_disk,delta_omega"]
    for s in samples:
        lines.append(",".join([
            _fmt(s.t), _fmt(s.z.real), _fmt(s.z.imag),
            _fmt(s.w.real), _fmt(s.w.imag), _fmt(s.g_abs),
            _fmt(s.delta_disk), _fmt(s.delta_omega)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def run_trace(scenario: Scenario, out_dir: Path, seed: int) -> int:
    sg = scenario.resolve_semigroup()
    if sg is None or not scenario.start_points:
        raise ScenarioError("trace needs a Koenigs map and start_points")
    files = []
    for i, z in enumerate(scenario.start_points):
        fwd = sg.forward_orbit(z, scenario.forward_grid.times())
        name = f"trace_p{i:03d}_forward.csv"
        _write_atomic(out_dir / name, _orbit_csv(fwd))
        files.append(name)
        if scenario.backward_grid is not None:
            bwd = sg.backward_orbit(z, scenario.backward_grid.times())
            name = f"trace_p{i:03d}_backward.csv"
            _write_atomic(out_dir / name, _orbit_csv(bwd))
            files.append(name)
    _write_json(out_dir / "trace_manifest.json",
                {"meta": _meta(seed, scenario), "files": files})
    print(f"wrote {len(files)} orbit file(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------


def run_criterion(scenario: Scenario, out_dir: Path, seed: int) -> int:
    tracks = scenario.tracks()
    for i, track in enumerate(tracks):
        report = backward_criterion(track, heuristic=scenario.heuristic,
                                    **_criterion_extras(track))
        payload = {"meta": _meta(seed, scenario), **report.to_dict()}
        _write_json(out_dir / f"criterion_p{i:03d}.json", payload)
        lines = ["t,ratio_lo,ratio_hi,g_abs"]
        for s in report.samples:
            hi = "inf" if math.isinf(s.ratio.hi) else _fmt(s.ratio.hi)
            g = "" if s.g_abs is None else _fmt(s.g_abs)
            lines.append(f"{_fmt(s.t)},{_fmt(s.ratio.lo)},{hi},{g}")
        _write_atomic(out_dir / f"criterion_p{i:03d}_samples.csv",
                      "\n".join(lines) + "\n")
        print(f"point {i}: verdict {report.verdict}"
              + (f" (bound {report.bound:.6g})" if report.bound is not None
                 else ""))
    return 0


def _criterion_extras(track) -> dict:
    """Truncated-slit-family fixtures get the documented geometry note and
    the half-strip enclosure family."""
    omega = track.omega
    if isinstance(omega, SlitStrip) and omega.n_truncation is not None:
        return {"enclosure_factory": catalog.example1_enclosure,
                "notes": {"discrepancy": _EXAMPLE1_NOTE}}
    return {}


_EXAMPLE1_NOTE = (
    "The displayed shortcut bounds for this domain conflict with the exact "
    "geometry: delta(-t) <= 1/floor(t) fails because with slits starting at "
    "Re = -2^n the distance at -t is governed by slits with 2^n <= t, "
    "i.e. ~ 1/floor(log2 t); and the shortcut half-strip distance "
    "0.5 log(2^n/(2^n - t)) conflicts with the exact value "
    "0.5 (log sinh(pi n 2^n / 2) - log sinh(pi n (2^n - t)/2)) ~ pi n t / 4. "
    "All evaluations are reported side by side; no divergence verdict is "
    "asserted as ground truth.")


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


def _example1_report(truncation: int, tmax: float, seed: int) -> dict:
    dom = example1_domain(truncation)
    track = OrbitTrack.from_omega(dom, 0j, label="example1")
    rng = np.random.default_rng(seed)

    containment = []
    for t in (4.0, 8.0, 16.0):
        if t > tmax:
            continue
        n = math.floor(t)
        sigma = catalog.example1_enclosure(t)
        viol = 0
        n_pts = 10_000
        xs = rng.uniform(sigma.left, float(2 ** n), size=n_pts)
        ys = rng.uniform(-sigma.half_width, sigma.half_width, size=n_pts)
        for x, y in zip(xs, ys):
            if not dom.contains(complex(x, y)):
                viol += 1
        containment.append({"t": t, "samples": n_pts, "violations": viol})

    sigma_rows = []
    for t in (4.0, 8.0):
        if t > tmax:
            continue
        n = math.floor(t)
        sigma = catalog.example1_enclosure(t)
        exact = sigma.hyperbolic_distance(0j, complex(-t, 0.0))
        asym = math.pi * n * t / 4.0
        sigma_rows.append({"t": t, "exact": exact, "asymptotic": asym,
                           "displayed_expression": catalog.example1_displayed_expression(t)})

    delta_rows = []
    t = 2.0
    while t <= min(tmax, 1024.0):
        d = dom.boundary_distance(complex(-t, 0.0))
        delta_rows.append({"t": t, "delta": d,
                           "claimed_bound": 1.0 / math.floor(t)})
        t *= 2.0

    report = backward_criterion(
        track, enclosure_factory=catalog.example1_enclosure, t_max=tmax,
        notes={"discrepancy": _EXAMPLE1_NOTE})
    reg = regularity_classify(track, t_max=tmax)
    return {
        "truncation": truncation,
        "delta_at_origin": dom.boundary_distance(0j),
        "sigma_containment": containment,
        "sigma_distances": sigma_rows,
        "delta_along_ray": delta_rows,
        "criterion": report.to_dict(),
        "regularity": reg.classification,
        "discrepancy_note": report.notes["discrepancy"],
    }


def _example_channel_report(example_id: int, tmax: float, seed: int) -> dict:
    dom = example2_domain() if example_id == 2 else example3_domain()
    track = OrbitTrack.from_omega(dom, 0j, label=f"example{example_id}")
    delta_rows = []
    t = 4.0
    while t <= tmax:
        d = dom.boundary_distance(complex(-t, 0.0))
        delta_rows.append({"t": t, "delta": d, "inv_log_t": 1.0 / math.log(t),
                           "t_times_delta": t * d})
        t *= 2.0
    report = backward_criterion(track, t_max=tmax)
    reg = regularity_classify(track, t_max=tmax)
    euc = euclidean_sufficient_test(track, t_max=tmax)
    out = {
        "delta_along_ray": delta_rows,
        "criterion": report.to_dict(),
        "regularity": reg.classification,
        "euclidean_test": {"pass": euc.passed,
                           "liminf_estimate": euc.liminf_estimate},
    }
    if example_id == 3:
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-50.0, 3.0, size=2000)
        ys = rng.uniform(-1.0, 0.0, size=2000)
        miss = sum(0 if dom.contains(complex(x, y)) else 1
                   for x, y in zip(xs, ys))
        out["contains_strip_S"] = {"samples": 2000, "violations": miss}
    return out


def run_examples(example_id: int, truncation: int, tmax: float,
                 out_dir: Path, seed: int) -> int:
    if example_id == 1:
        body = _example1_report(truncation, tmax, seed)
    elif example_id in (2, 3):
        body = _example_channel_report(example_id, tmax, seed)
    else:
        raise ScenarioError("example id must be 1, 2 or 3")
    payload = {"meta": _meta(seed, truncation=truncation if example_id == 1
                             else None, tmax=tmax), **body}
    _write_json(out_dir / f"example{example_id}_report.json", payload)

    lines = [f"Example {example_id} audit (tool {__version__})"]
    if example_id == 1:
        lines.append(f"  slit truncation N = {truncation}")
        lines.append(f"  delta_Omega(0) = {body['delta_at_origin']!r}")
        for row in body["sigma_containment"]:
            lines.append(f"  Sigma_{int(row['t'])} containment: "
                         f"{row['violations']}/{row['samples']} violations")
        for row in body["sigma_distances"]:
            lines.append(f"  k_Sigma(0,-{row['t']:g}): exact {row['exact']:.9f}"
                         f" ~ {row['asymptotic']:.9f}; displayed expression "
                         f"{row['displayed_expression']!r}")
        lines.append(f"  criterion verdict: {body['criterion']['verdict']}")
        lines.append(f"  regularity: {body['regularity']}")
        lines.append("  note: " + body["discrepancy_note"])
    else:
        lines.append(f"  criterion verdict: {body['criterion']['verdict']}")
        lines.append(f"  regularity: {body['regularity']}")
        lines.append(f"  euclidean sufficient test pass: "
                     f"{body['euclidean_test']['pass']} "
                     f"(liminf ~ {body['euclidean_test']['liminf_estimate']:.4g})")
        if "contains_strip_S" in body:
            lines.append(f"  strip S containment violations: "
                         f"{body['contains_strip_S']['violations']}")
    text = "\n".join(lines) + "\n"
    _write_atomic(out_dir / f"example{example_id}_summary.txt", text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def run_audit(suite: str, out_dir: Path, seed: int) -> int:
    results = run_suite(suite, seed)
    all_pass = all(r.passed for r in results)
    payload = {
        "meta": _meta(seed, suite=suite),
        "suite": suite,
        "pass": all_pass,
        "checks": [r.to_dict() for r in results],
        "counts": {"total": len(results),
                   "failed": sum(0 if r.passed else 1 for r in results)},
    }
    _write_json(out_dir / f"audit_{suite}.json", payload)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name} (n={r.count})"
        if r.detail and not r.passed:
            line += f" -- {r.detail}"
        print(line)
    print(f"{'OK' if all_pass else 'FAILED'}: {len(results)} checks, "
          f"{payload['counts']['failed']} failed")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _load_scenario(path: str) -> Scenario:
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"config file {path!r} does not exist")
    return Scenario.from_json(p.read_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskflow",
        description="Semigroups of holomorphic self-maps of the unit disk: "
                    "orbit traces and Lipschitz/rectifiability audits.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="64-bit seed for all sampling budgets")

    p = sub.add_parser("trace", parents=[common],
                       help="emit orbit CSV files for a scenario")
    p.add_argument("--config", required=True, help="scenario JSON path")

    p = sub.add_parser("criterion", parents=[common],
                       help="emit backward-criterion reports for a scenario")
    p.add_argument("--config", required=True, help="scenario JSON path")

    p = sub.add_parser("examples", parents=[common],
                       help="reproduce one of the example-domain audits")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--truncation", type=int, default=40,
                   help="slit truncation for example 1 (default 40, cap 60)")
    p.add_argument("--tmax", type=float, default=1.0e4,
                   help="probe horizon for tables")

    p = sub.add_parser("audit", parents=[common],
                       help="run an invariant suite")
    p.add_argument("--suite", required=True,
                   choices=sorted(SUITES) + ["all"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        if args.command == "trace":
            return run_trace(_load_scenario(args.config), out_dir, args.seed)
        if args.command == "criterion":
            return run_criterion(_load_scenario(args.config), out_dir,
                                 args.seed)
        if args.command == "examples":
            return run_examples(args.id, args.truncation, args.tmax,
                                out_dir, args.seed)
        if args.command == "audit":
            return run_audit(args.suite, out_dir, args.seed)
        parser.error(f"unknown command {args.command!r}")
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        diag = getattr(exc, "diagnostics", None)
        if diag:
            print(f"diagnostics: {diag}", file=sys.stderr)
        return 3
    except DiskflowError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
