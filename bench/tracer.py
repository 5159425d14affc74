"""In-memory span tracer for the per-layer half of the bench.

Spans are recorded only around calls into the public functions of the
package's layers, by wrappers this module installs on the package's
module and class attributes for the duration of a traced pass and removes
afterwards.  The package itself is never edited.  Each span stores its
name, start, end and parent; a layer's self time is its spans' durations
minus the time covered by their child spans.  Counts and ratios are taken
at the same wrappers.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from diskflow import analysis, confmap, domains, hypgeo, semigroup

LAYERS = ("confmap", "semigroup", "hypgeo", "domains", "analysis")
DOMAIN_KINDS = ("channel", "slitstrip", "halfplane", "strip", "disk")

# Span names reported by summary(), each as .calls and .self_s; fixed so
# every workload reports the same metric names.
TRACED = (
    "confmap.invert", "confmap.evaluate", "confmap.derivative",
    "semigroup.phi", "semigroup.integrate_complex", "semigroup.forward_orbit",
    "semigroup.backward_horizon", "semigroup.exit_time",
    "hypgeo.domain_distance", "hypgeo.domain_density",
    *(f"domains.boundary_distance.{k}" for k in DOMAIN_KINDS),
    "domains.dist_to_curve",
    "analysis.criterion_ratio", "analysis.lipschitz_quotient",
    "analysis.forward_certificate", "analysis.backward_criterion",
    "analysis.regularity_classify", "analysis.hayman_wu_audit",
    "analysis.ahlfors_audit",
)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, inspect=None, count_errors=False):
        """Return ``fn`` wrapped in a span.  ``name`` is a string or a
        callable of the positional arguments; ``inspect(result)`` updates
        counters from the returned value."""
        clock = time.perf_counter
        start, end, ids, parent = self.start, self.end, self.name_id, self.parent
        stack = self._stack
        counts = self.counts
        fixed = self._name_id(name) if isinstance(name, str) else None
        label = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args))
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if count_errors:
                    counts[f"{label}.errors"] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if inspect is not None:
                inspect(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, **kw):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def install(self) -> None:
        """Wrap every traced entry point of the package."""
        counts = self.counts

        def interval_seen(iv):
            counts["hypgeo.domain_distance.exact"] += iv.degenerate
            counts["hypgeo.domain_distance.finite_hi"] += iv.finite

        def quotient_seen(q):
            counts["analysis.lipschitz_quotient.pairs"] += q.pairs
            counts["analysis.lipschitz_quotient.skipped"] += q.skipped

        for method in ("invert", "evaluate", "derivative"):
            self.patch(confmap.MapExpr, method, f"confmap.{method}",
                       count_errors=method == "invert")
        for method in ("phi", "forward_orbit", "backward_horizon"):
            self.patch(semigroup.Semigroup, method, f"semigroup.{method}")
        self.patch(semigroup, "integrate_complex", "semigroup.integrate_complex")
        # exit_time is bound by name in both modules that call it
        self.patch(semigroup, "exit_time", "semigroup.exit_time")
        self.patch(analysis, "exit_time", "semigroup.exit_time")
        self.patch(hypgeo, "domain_distance", "hypgeo.domain_distance",
                   inspect=interval_seen)
        self.patch(hypgeo, "domain_density", "hypgeo.domain_density")
        self.patch(domains.Domain, "boundary_distance",
                   lambda args: f"domains.boundary_distance.{args[0].kind}")
        self.patch(domains, "dist_to_curve", "domains.dist_to_curve")
        for fn in ("criterion_ratio", "forward_certificate",
                   "backward_criterion", "regularity_classify",
                   "hayman_wu_audit", "ahlfors_audit"):
            self.patch(analysis, fn, f"analysis.{fn}")
        self.patch(analysis, "lipschitz_quotient",
                   "analysis.lipschitz_quotient", inspect=quotient_seen)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return start, end, name, parent

    def self_times(self):
        """Per-name (calls, self seconds), plus the summed root durations."""
        start, end, name, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        selfs = np.bincount(name, weights=self_s, minlength=n)
        total = float(dur[~has_parent].sum())
        return ({nm: (int(calls[i]), float(selfs[i]))
                 for i, nm in enumerate(self.names)}, total)

    def summary(self, passes: int) -> dict:
        """Per-layer metrics as (value, unit) by name; calls and self
        seconds are per pass, averaged over ``passes`` traced passes."""
        per_name, total = self.self_times()
        out = {}
        for nm in TRACED:
            calls, self_s = per_name.get(nm, (0, 0.0))
            out[f"{nm}.calls"] = (calls / passes, "count")
            out[f"{nm}.self_s"] = (self_s / passes, "s")
        c = self.counts
        inv = per_name.get("confmap.invert", (0, 0.0))[0]
        out["confmap.invert.error_ratio"] = (
            c["confmap.invert.errors"] / inv if inv else 0.0, "ratio")
        dd = per_name.get("hypgeo.domain_distance", (0, 0.0))[0]
        out["hypgeo.domain_distance.exact_ratio"] = (
            c["hypgeo.domain_distance.exact"] / dd if dd else 0.0, "ratio")
        out["hypgeo.domain_distance.finite_hi_ratio"] = (
            c["hypgeo.domain_distance.finite_hi"] / dd if dd else 0.0, "ratio")
        seen = (c["analysis.lipschitz_quotient.pairs"]
                + c["analysis.lipschitz_quotient.skipped"])
        out["analysis.lipschitz_quotient.skip_ratio"] = (
            c["analysis.lipschitz_quotient.skipped"] / seen if seen else 0.0,
            "ratio")
        return out

    def layer_shares(self) -> dict:
        """Each layer's share of all traced self time, as (value, unit)."""
        per_name, total = self.self_times()
        out = {}
        for layer in LAYERS:
            s = sum(v for nm, (_, v) in per_name.items()
                    if nm.startswith(layer + "."))
            out[f"layer.{layer}.self_share"] = (s / total if total else 0.0,
                                                "ratio")
        return out

    def save(self, path) -> None:
        start, end, name, parent = self.arrays()
        np.savez_compressed(path, start=start, end=end, name=name,
                            parent=parent, names=np.array(self.names))
