"""Audit bench for diskflow: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload mapped_orbits --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  One process, one thread, closed loop: each operation
starts when the previous one returns.  Passes of the workload's operation
list repeat until the next pass would overrun ``--seconds`` (at least two
passes run, so every run can compare pass digests).

Pass times are reported as each operation's fastest repetition in the run,
summed over the pass.  On a shared host the CPU runs at two speeds that
switch every few seconds, the slow one about 1.5 times slower; a median over
passes follows the share of slow time in the run, while the fastest
repetition of a short operation does not.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate (up to three traced
passes) and it carries the per-layer metrics.  Every metric is also printed
by name with its unit, and a result stamp is written under
``bench/results/``.  The exit code is 0 when every verdict, anchor and
digest checks out, 1 when one does not, and 2 when the package sources are
missing.  A deadline hit is a failed operation but not a wrong answer: it
is counted and listed, not fatal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_RUNS = 5
MIN_PASSES = 2
MAX_TRACED_PASSES = 3   # bounds the spans kept in memory and written out
P90_MIN_VERDICTS = 100

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import diskflow
import workloads
workloads.WORKLOADS[sys.argv[3]][0]()
print(repr(time.perf_counter() - t0))
"""


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so the package's own
    ``except Exception`` handlers cannot swallow it."""


class _Deadline:
    armed = False

    @classmethod
    def on_alarm(cls, signum, frame):
        if cls.armed:
            cls.armed = False
            raise DeadlineExceeded()

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        _Deadline.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        _Deadline.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return False


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    digest: str = ""
    op_wall_s: list = field(default_factory=list)   # per op, 0 if skipped
    op_cpu_s: list = field(default_factory=list)
    latencies: list = field(default_factory=list)    # ops with a correct verdict
    deadline_hits: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.deadline_hits) + len(self.errors) + len(self.wrong)


def run_pass(ops) -> PassResult:
    clock, cpu = time.perf_counter, time.process_time
    records = []
    res = PassResult()
    failed_labels = set()
    t0 = clock()
    for op in ops:
        if op.after in failed_labels:
            res.op_wall_s.append(0.0)
            res.op_cpu_s.append(0.0)
            res.skipped.append(op.label)
            records.append(f"{op.label}: skipped")
            continue
        res.attempted += 1
        ts, cs = clock(), cpu()
        try:
            with _Deadline(op.deadline_s):
                value = op.run()
        except DeadlineExceeded:
            res.op_wall_s.append(clock() - ts)
            res.op_cpu_s.append(cpu() - cs)
            res.deadline_hits.append(f"{op.label} (deadline {op.deadline_s} s)")
            failed_labels.add(op.label)
            records.append(f"{op.label}: deadline")
            continue
        except Exception as exc:  # any package error fails this operation
            res.op_wall_s.append(clock() - ts)
            res.op_cpu_s.append(cpu() - cs)
            res.errors.append(f"{op.label}: {exc!r}")
            failed_labels.add(op.label)
            records.append(f"{op.label}: {type(exc).__name__}")
            continue
        latency = clock() - ts
        res.op_wall_s.append(latency)
        res.op_cpu_s.append(cpu() - cs)
        passed, record = op.check(value)
        records.append(f"{op.label}: {record}")
        if passed:
            res.latencies.append(latency)
        else:
            res.wrong.append(f"{op.label}: {record}")
            failed_labels.add(op.label)
    res.wall_s = clock() - t0
    res.digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    return res


def best_pass(passes, attr: str) -> float:
    """Sum over the pass's operations of each one's smallest time (``attr``
    is ``op_wall_s`` or ``op_cpu_s``) over ``passes``."""
    return sum(min(col) for col in zip(*(getattr(r, attr) for r in passes)))


def measure_setup(workload: str) -> list:
    """Fresh-process import of the package plus building the workload's
    semigroups and domains, timed inside each child."""
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(args) -> dict:
    import numpy
    import scipy

    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "cpu_model": cpu_model(), "platform": platform.platform()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "diskflow" / "__init__.py").is_file():
        print(f"diskflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import diskflow
    if Path(diskflow.__file__).resolve().parent != SRC / "diskflow":
        print(f"imported diskflow from {diskflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setups = [] if args.trace else measure_setup(args.workload)
    build, make_ops = workloads.WORKLOADS[args.workload]
    ops = make_ops(args.seed, build())

    tracer = Tracer() if args.trace else None
    signal.signal(signal.SIGALRM, _Deadline.on_alarm)
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = (tracer is not None and len(traced) < MAX_TRACED_PASSES
                      and (len(passes) + len(traced)) % 2 == 1)
        if trace_this:
            tracer.install()
        try:
            res = run_pass(ops)
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else passes).append(res)
        n = len(passes) + len(traced)
        if n >= MIN_PASSES and time.perf_counter() - start + res.wall_s > args.seconds:
            break
    signal.signal(signal.SIGALRM, signal.SIG_DFL)

    every = passes + traced
    digests = sorted({r.digest for r in every})
    first = every[0]
    wrong = first.wrong + first.errors
    if len(digests) > 1:
        wrong.append(f"pass digests differ: {digests}")
    verdicts_per_pass = len(first.latencies)
    if not verdicts_per_pass:
        wrong.append("no operation produced a verdict")
    correct = not wrong
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)

    metrics = {}
    shown = {}
    if args.trace:
        metrics.update(tracer.summary(len(traced)))
        # against the untraced passes interleaved with the traced ones
        overhead = (best_pass(traced, "op_wall_s")
                    / best_pass(passes[:len(traced) + 1], "op_wall_s") - 1.0)
        metrics["trace.overhead"] = (overhead, "ratio")
        shown.update(tracer.layer_shares())
    else:
        wall = best_pass(passes, "op_wall_s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["wall_s"] = (wall, "s")
        metrics["cpu_s"] = (best_pass(passes, "op_cpu_s"), "s")
        metrics["verdicts_per_s"] = (verdicts_per_pass / wall, "1/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        # per-verdict latency: each verdict's fastest repetition
        latencies = [min(col) for col in zip(*(r.latencies for r in passes))]
        latencies = latencies or [0.0]
        shown["verdict_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
        if verdicts_per_pass >= P90_MIN_VERDICTS:
            p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
            shown["verdict_p90_ms"] = (p90 * 1e3, "ms")
    shown["error_rate"] = (failed / attempted if attempted else 0.0, "ratio")

    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{len(passes)} untraced + {len(traced)} traced  "
          f"verdicts/pass {verdicts_per_pass}  ops/pass {first.attempted}")
    print(f"digest {digests[0]}")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:48s} {value!r:>24} {unit}")
    for hit in first.deadline_hits:
        print(f"deadline hit (every pass): {hit}")
    for label in first.skipped:
        print(f"skipped after a failure: {label}")
    for line in wrong:
        print(f"FAILED: {line}")

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "stamp": stamp(args), "correct": correct, "digest": digests[0],
        "digests": digests, "passes": len(passes), "traced_passes": len(traced),
        "ops_per_pass": first.attempted, "verdicts_per_pass": verdicts_per_pass,
        "attempted": attempted, "failed": failed, "setup_runs_s": setups,
        "pass_wall_s": [r.wall_s for r in passes],
        "traced_pass_wall_s": [r.wall_s for r in traced],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in {**metrics, **shown}.items()},
        "deadline_hits": first.deadline_hits, "skipped": first.skipped,
        "failures": wrong,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.save(RESULTS / f"{tag}-spans.npz")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
