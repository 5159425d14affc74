"""Seeded workloads of the bench: inputs, operations and correctness gates.

Every input is drawn from the bench's ``--seed``; the package receives only
the generated values.  A workload is a fixed list of operations (one
*pass*); every pass of a run repeats the same list, so passes can be
compared for determinism and timed against each other.

Each operation yields one checked result: a verdict, a horizon or a delta
table.  ``check`` turns the returned value into (passed, record):
``passed`` is the correctness gate implied by the theory or by a fixed
anchor, ``record`` is the full-``repr`` text that goes into the pass digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from diskflow import analysis, catalog, domains
from diskflow.analysis import OrbitTrack, SpiralSpec
from diskflow.scenario import GridSpec

# Per-kind deadline in seconds: several times the slowest case measured on
# the seed code, so only a loop that does not terminate can reach it.
DEADLINE_S = {
    "horizon": 0.25,
    "delta_table": 0.25,
    "backward_criterion": 60.0,
    "regularity_classify": 60.0,
}
DEFAULT_DEADLINE_S = 10.0

CERTIFIED = analysis.CERTIFIED


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    after: Optional[str] = None   # label of an op whose failure skips this one

    @property
    def deadline_s(self) -> float:
        return DEADLINE_S.get(self.kind, DEFAULT_DEADLINE_S)


def _disk_starts(rng, n: int) -> list:
    """n starts with 0.05 <= |z| <= 0.8, uniform in area."""
    r = np.sqrt(rng.uniform(0.05 ** 2, 0.8 ** 2, size=n))
    th = rng.uniform(-math.pi, math.pi, size=n)
    return [complex(float(a) * math.cos(b), float(a) * math.sin(b))
            for a, b in zip(r, th)]


def _ok(record: str, passed: bool = True) -> tuple:
    return bool(passed), record


# ---------------------------------------------------------------------------
# mapped_orbits: the six built-in semigroups
# ---------------------------------------------------------------------------

# Per builtin and pass.  Certificates dominate, as in `audit --suite forward`;
# the channel's trace and criterion spend most of their time in
# dist_to_curve, so one of each keeps the map layers the main cost.  The
# pass stays near 0.8 s, so a run repeats every operation about thirty
# times and its fastest repetition is steady.
N_CERT = 40
N_TRACE = 1
N_CRIT = 1
N_HAYMAN_WU = 2
TRACE_GRID = GridSpec("linear", 0.0, 10.0, 101).times()  # `diskflow trace` default


def build_mapped():
    return {name: catalog.builtin_semigroup(name)
            for name in catalog.BUILTIN_NAMES}


def _cert_check(c) -> tuple:
    return _ok(f"{c.constant!r} {c.measured!r}", c.passed)


def _trace_check(samples) -> tuple:
    last = samples[-1]
    return _ok(f"{len(samples)} {last.z!r} {last.g!r}")


def _criterion_check(rep, must_certify: bool) -> tuple:
    passed = rep.sandwich_checked and rep.sandwich_ok
    if must_certify:
        passed = passed and rep.verdict == CERTIFIED
    return _ok(f"{rep.verdict} {rep.bound!r} {rep.horizon!r} "
               f"{len(rep.samples)} {rep.sandwich_worst!r}", passed)


def _hayman_wu_check(res) -> tuple:
    return _ok(f"{res['length']!r} {res['horizon']!r}", res["pass"])


def mapped_orbits(seed: int, sgs: dict) -> list:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for name, sg in sgs.items():
        for z in _disk_starts(rng, N_CERT):
            ops.append(Op("forward_certificate", f"{name} z={z!r}",
                          lambda sg=sg, z=z: analysis.forward_certificate(sg, z),
                          _cert_check))
        for z in _disk_starts(rng, N_TRACE):
            ops.append(Op("forward_trace", f"{name} z={z!r}",
                          lambda sg=sg, z=z: sg.forward_orbit(z, TRACE_GRID),
                          _trace_check))
        convex = name in catalog.CONVEX_BUILTINS  # Cor 1.5
        for z in _disk_starts(rng, N_CRIT):
            ops.append(Op("backward_criterion", f"{name} z={z!r}",
                          lambda sg=sg, z=z: analysis.backward_criterion(
                              OrbitTrack.from_semigroup(sg, z)),
                          lambda r, c=convex: _criterion_check(r, c)))
        if name in catalog.NONELLIPTIC_BUILTINS:
            for z in _disk_starts(rng, N_HAYMAN_WU):
                ops.append(Op("hayman_wu_audit", f"{name} z={z!r}",
                              lambda sg=sg, z=z: analysis.hayman_wu_audit(sg, z),
                              _hayman_wu_check))

    # fixed anchors
    hp, dil = sgs["halfplane"], sgs["dilation"]
    ops.append(Op("forward_certificate", "anchor halfplane certificate 1.0/0.5",
                  lambda: analysis.forward_certificate(hp, 0j),
                  lambda c: _ok(f"{c.constant!r} {c.measured!r}",
                                abs(c.constant - 1.0) < 1e-12
                                and abs(c.measured - 0.5) < 1e-6)))

    def halfplane_ratio(rep):
        dev = max(max(abs(s.ratio.lo - 0.5), abs(s.ratio.hi - 0.5))
                  for s in rep.samples)
        return _ok(f"{rep.verdict} {rep.bound!r} {dev!r}",
                   dev < 1e-9 and rep.verdict == CERTIFIED
                   and abs(rep.bound - 0.5) < 1e-9)

    ops.append(Op("backward_criterion", "anchor halfplane ratio 0.5",
                  lambda: analysis.backward_criterion(
                      OrbitTrack.from_semigroup(hp, 0j)),
                  halfplane_ratio))

    def dilation_ratio(rep):
        r0 = rep.samples[0].ratio
        dev = max(abs(r0.lo - 4.0 / 3.0), abs(r0.hi - 4.0 / 3.0))
        return _ok(f"{rep.verdict} {rep.bound!r} {dev!r}",
                   dev < 1e-9 and rep.verdict == CERTIFIED)

    ops.append(Op("backward_criterion", "anchor dilation ratio 4/3",
                  lambda: analysis.backward_criterion(
                      OrbitTrack.from_semigroup(dil, 0.5 + 0j)),
                  dilation_ratio))
    return ops


# ---------------------------------------------------------------------------
# mapless_criterion: Koenigs-plane example domains, no Koenigs map
# ---------------------------------------------------------------------------

EXAMPLE1_TRUNCATION = 40


def build_mapless():
    return {"example1": domains.example1_domain(EXAMPLE1_TRUNCATION),
            "example2": domains.example2_domain(MOUTH_CAP),
            "example3": domains.example3_domain(MOUTH_CAP),
            "exp_channel": domains.exp_channel_domain(),
            "strip": domains.Strip(1.0, 0.0)}


def _delta_table(dom, t_max: float) -> tuple:
    rows = []
    t = 4.0
    while t <= t_max:
        rows.append(dom.boundary_distance(complex(-t, 0.0)))
        t *= 2.0
    return tuple(rows)


def _delta_check(rows) -> tuple:
    # Omega + s lies in Omega for s >= 0 on these domains, so delta cannot
    # grow along the leftward ray (it may underflow to 0 in exp_channel)
    monotone = all(a >= b for a, b in zip(rows, rows[1:]))
    return _ok(repr(rows), monotone and all(0.0 <= d < math.inf for d in rows))


def _horizon_check(h, infinite: bool) -> tuple:
    ok = (not h.finite) if infinite else (h.finite and h.value > 0.0)
    return _ok(f"{h.value!r} {h.method}", ok)


# One start per slot and pass, in the mouth, Re w0 in [-0.8, 0.8].  A slot
# gives the domain, the band of Im w0 (None: on the infinite-horizon line),
# the decade of the delta table's t_max (None: no table), and the expected
# criterion verdict, regularity class and Euclidean-test outcome, None where
# the theory implies none.
#
# Off the axis, example 2's exit time passes 5e5 once |Im w0| < 0.076 and
# `exit_time` does not terminate there.  One off-axis slot draws from below
# that edge and one from above it, leaving out 0.07-0.08 around it, so every
# pass shows the hang and every pass has one finite horizon.  Off-axis
# starts skip the criterion: its grid accumulates at the finite horizon in
# 46 levels and would take longer than the rest of the pass.  The delta
# tables cover 1e3..1e8 once per pass; the last one reaches |Re w| > 8e6 on
# the axis of example 2, where `dist_to_curve` does not terminate.
MOUTH_CAP = 2.0
EXIT_BAND = (0.005, 0.07)
FINITE_BAND = (0.08, MOUTH_CAP)
# Criterion, regularity and Euclidean test probe doubling times up to this;
# the tails still certify and grow on examples 2 and 3.
CRITERION_T_MAX = 64.0
MAPLESS_SLOTS = (
    ("example2", FINITE_BAND, 3, None, analysis.FINITE_HORIZON, None),
    ("example2", EXIT_BAND, None, None, analysis.FINITE_HORIZON, None),
    ("example3", None, 4, CERTIFIED, analysis.NON_REGULAR, None),
    ("example1", None, 5, None, None, None),
    ("exp_channel", None, 6, None, None, False),
    ("example2", None, 7, CERTIFIED, analysis.NON_REGULAR, None),
)


def mapless_criterion(seed: int, doms: dict) -> list:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for name, band, decade, verdict, regularity, euclid in MAPLESS_SLOTS:
        dom = doms[name]
        on_axis = band is None
        x = float(rng.uniform(-0.8, 0.8))
        if not on_axis:
            y = float(rng.uniform(*band)) * float(rng.choice((-1.0, 1.0)))
        elif name == "example3":
            y = -float(rng.uniform(0.0, 1.0))  # the contained strip -1<Im<0
        else:
            y = 0.0
        w0 = complex(x, y)
        track = OrbitTrack.from_omega(dom, w0, label=name)
        tag = f"{name} w0={w0!r}"
        horizon = f"{tag} horizon"
        ops.append(Op("horizon", horizon, track.horizon,
                      lambda h, inf=on_axis: _horizon_check(h, inf)))
        if on_axis:
            enc = catalog.example1_enclosure if name == "example1" else None
            ops.append(Op("backward_criterion", f"{tag} criterion",
                          lambda track=track, enc=enc: analysis.backward_criterion(
                              track, enclosure_factory=enc,
                              t_max=CRITERION_T_MAX),
                          lambda r, g=verdict: _ok(
                              f"{r.verdict} {r.bound!r} {r.horizon!r} "
                              f"{len(r.samples)}", g in (None, r.verdict)),
                          after=horizon))
        ops.append(Op("regularity_classify", f"{tag} regularity",
                      lambda track=track: analysis.regularity_classify(
                          track, t_max=CRITERION_T_MAX),
                      lambda r, g=regularity: _ok(
                          f"{r.classification} {len(r.steps)} {r.horizon!r}",
                          g in (None, r.classification)),
                      after=horizon))
        if on_axis:
            ops.append(Op("euclidean_test", f"{tag} euclidean",
                          lambda track=track:
                              analysis.euclidean_sufficient_test(
                                  track, t_max=CRITERION_T_MAX),
                          lambda r, g=euclid: _ok(
                              f"{r.passed} {r.liminf_estimate!r}",
                              g in (None, r.passed)),
                          after=horizon))
        if decade is not None:
            t_max = float(10.0 ** rng.uniform(decade, decade + 1))
            ops.append(Op("delta_table", f"{name} delta t_max={t_max!r}",
                          lambda dom=dom, t_max=t_max: _delta_table(dom, t_max),
                          _delta_check))

    def strip_steps(res):
        dev = max(abs(k.lo - math.pi / 4) for _, k in res.steps)
        return _ok(f"{res.classification} {dev!r}",
                   res.classification == analysis.REGULAR and dev < 1e-9)

    strip = OrbitTrack.from_omega(doms["strip"], 0j, label="strip")
    ops.append(Op("regularity_classify", "anchor strip steps pi/4",
                  lambda: analysis.regularity_classify(strip), strip_steps))
    return ops


# ---------------------------------------------------------------------------
# spiral_ahlfors: the spiral-length kernel
# ---------------------------------------------------------------------------

# 25 disks per audit keeps each operation near 6 ms, and the pass near
# 0.3 s, so a run repeats every operation about a hundred times and its
# fastest repetition is steady.
N_DISKS = 25
# (alpha, beta) drawn once per cell of this grid: six alpha magnitude bins
# log-spaced over [0.25, 2], times both signs, times four beta bins over
# [-2, 2].  The kernel's cost depends mostly on the sign of alpha and on
# beta, which the cells fix, so a pass does nearly the same work for every
# seed.
_ALPHA_EDGES = [0.25 * 2.0 ** (k / 2) for k in range(7)]
ALPHA_BINS = tuple(zip(_ALPHA_EDGES, _ALPHA_EDGES[1:]))
BETA_BINS = ((-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0))


def build_spiral():
    return {"anchor": SpiralSpec(1.0 + 0j, -1.0, 1.0),
            "ray": SpiralSpec(1.0 + 0j, -1.0, 0.0),
            "circle": SpiralSpec(1.0 + 0j, 0.0, 1.0)}


def _ahlfors_check(res) -> tuple:
    return _ok(f"{res.measured_sup!r} {res.bound!r} {res.worst!r}", res.passed)


def spiral_ahlfors(seed: int, fixed: dict) -> list:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for sign in (-1.0, 1.0):
        for a_lo, a_hi in ALPHA_BINS:
            for b_lo, b_hi in BETA_BINS:
                a = sign * float(np.exp(rng.uniform(math.log(a_lo),
                                                    math.log(a_hi))))
                b = float(rng.uniform(b_lo, b_hi))
                disk_seed = int(rng.integers(2 ** 31))
                spec = SpiralSpec(1.0 + 0j, a, b)
                ops.append(Op("ahlfors_audit", f"alpha={a!r} beta={b!r}",
                              lambda spec=spec, s=disk_seed:
                                  analysis.ahlfors_audit(spec, N_DISKS, seed=s),
                              _ahlfors_check))
    disk_seed = int(rng.integers(2 ** 31))

    def anchor(res):
        return _ok(f"{res.measured_sup!r} {res.bound!r}",
                   abs(res.bound - 2.0 * math.sqrt(2.0)) < 1e-12 and res.passed)

    def ray(res):
        return _ok(f"{res.measured_sup!r} {res.bound!r}",
                   abs(res.bound - 2.0) < 1e-12 and res.passed)

    def circle(res):
        return _ok(f"{res.measured_sup!r}", res.passed and res.trivial)

    for key, check in (("anchor", anchor), ("ray", ray), ("circle", circle)):
        ops.append(Op("ahlfors_audit", f"anchor {key}",
                      lambda spec=fixed[key]: analysis.ahlfors_audit(
                          spec, N_DISKS, seed=disk_seed),
                      check))
    return ops


WORKLOADS = {
    "mapped_orbits": (build_mapped, mapped_orbits),
    "mapless_criterion": (build_mapless, mapless_criterion),
    "spiral_ahlfors": (build_spiral, spiral_ahlfors),
}
