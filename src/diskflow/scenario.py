"""Scenario documents: strict parsing, canonical serialization, hashing.

A scenario names a semigroup (builtin shorthand or explicit Koenigs data),
starting points, time grids, and heuristic overrides.  Allowed keys and
numeric bounds are read from ``schemas/scenario.schema.json``; unknown keys
are rejected everywhere.  The canonical form round-trips byte-identically,
and its SHA-256 hash is embedded in every emitted report.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .analysis import Heuristic, OrbitTrack
from .catalog import BUILTIN_NAMES, builtin_semigroup, builtin_start
from .confmap import MapExpr
from .domains import Domain, domain_from_dict, unit_disk
from .errors import ScenarioError, check_keys, json_complex, json_number
from .semigroup import ELLIPTIC, NONELLIPTIC, Semigroup


@functools.cache
def _schema() -> dict:
    path = Path(__file__).with_name("schemas") / "scenario.schema.json"
    return json.loads(path.read_text())


def _check_bounds(value, spec: dict, ctx: str):
    """Enforce the schema's ``minimum`` and ``exclusiveMinimum``."""
    if "minimum" in spec and not value >= spec["minimum"]:
        raise ScenarioError(
            f"{ctx} must be >= {spec['minimum']}, got {value!r}")
    if "exclusiveMinimum" in spec and not value > spec["exclusiveMinimum"]:
        raise ScenarioError(
            f"{ctx} must be > {spec['exclusiveMinimum']}, got {value!r}")


def _grid_number(v, ctx: str):
    """A JSON number for a time grid, which must be finite as a float (json
    reads Infinity, and an integer may lie past the float range)."""
    json_number(v, ctx)
    try:
        finite = math.isfinite(v)
    except OverflowError:
        finite = False
    if not finite:
        raise ScenarioError(f"{ctx} must be a finite number, got {v!r}")
    return v


def _cpx_list(v, ctx: str) -> list:
    if not isinstance(v, list):
        raise ScenarioError(f"{ctx} must be a list")
    return [json_complex(x, ctx) for x in v]


@dataclass(frozen=True)
class GridSpec:
    kind: str
    t0: float = 0.0
    t1: float = 10.0
    n: int = 101
    values: tuple = ()

    @classmethod
    def parse(cls, data: dict, ctx: str) -> "GridSpec":
        if not isinstance(data, dict):
            raise ScenarioError(f"{ctx} must be an object")
        keys = _schema()["definitions"]["grid"]["properties"]
        check_keys(data, keys, (), ctx)
        kind = data.get("kind")
        if kind == "linear":
            t0 = float(_grid_number(data.get("t0", 0.0), f"{ctx}.t0"))
            t1 = float(_grid_number(data.get("t1", 10.0), f"{ctx}.t1"))
            n = int(_grid_number(data.get("n", 101), f"{ctx}.n"))
            if not t1 > t0:
                raise ScenarioError(f"{ctx}: need t1 > t0")
            _check_bounds(n, keys["n"], f"{ctx}.n")
            return cls("linear", t0, t1, n)
        if kind == "explicit":
            vals = data.get("values")
            if not isinstance(vals, list) or not vals:
                raise ScenarioError(f"{ctx}: explicit grids need values")
            return cls("explicit", values=tuple(
                float(_grid_number(v, f"{ctx}.values")) for v in vals))
        raise ScenarioError(f"{ctx}: unknown grid kind {kind!r}")

    def times(self) -> list:
        if self.kind == "explicit":
            return list(self.values)
        step = (self.t1 - self.t0) / (self.n - 1)
        ts = [self.t0 + i * step for i in range(self.n)]
        ts[-1] = self.t1
        return ts

    def to_dict(self) -> dict:
        if self.kind == "explicit":
            return {"kind": "explicit", "values": list(self.values)}
        return {"kind": "linear", "t0": self.t0, "t1": self.t1, "n": self.n}


@dataclass(frozen=True)
class Scenario:
    name: str
    builtin: Optional[str]
    kind: str
    mu: Optional[complex]
    koenigs_spec: Optional[dict]
    domain_spec: Optional[dict]
    start_points: tuple
    start_w: tuple
    forward_grid: GridSpec
    backward_grid: Optional[GridSpec]
    heuristic: Heuristic
    seed: int

    # -- parsing ---------------------------------------------------------

    @classmethod
    def parse(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        check_keys(data, _schema()["properties"], (), "scenario")

        builtin = data.get("builtin")
        if builtin is not None and builtin not in BUILTIN_NAMES:
            raise ScenarioError(f"unknown builtin {builtin!r}; "
                                f"choose from {list(BUILTIN_NAMES)}")

        kind = data.get("type")
        mu = None
        koenigs_spec = data.get("koenigs")
        domain_spec = data.get("domain")
        if builtin is None:
            if kind not in (ELLIPTIC, NONELLIPTIC):
                raise ScenarioError("scenario type must be 'elliptic' or "
                                    "'nonelliptic'")
            if domain_spec is None:
                raise ScenarioError("non-builtin scenarios need a domain")
            if kind == ELLIPTIC:
                if "mu" not in data:
                    raise ScenarioError("elliptic scenarios need mu")
                mu = json_complex(data["mu"], "mu")
                if mu.real <= 0:
                    raise ScenarioError("mu must have positive real part")
            elif "mu" in data:
                raise ScenarioError("non-elliptic scenarios carry no mu")
            if koenigs_spec is not None and not isinstance(koenigs_spec, dict):
                raise ScenarioError("koenigs must be an object or null")
        else:
            for key in ("type", "mu", "koenigs", "domain"):
                if key in data:
                    raise ScenarioError(
                        f"builtin scenarios must not override {key!r}")
            sg = builtin_semigroup(builtin)
            kind = sg.kind
            mu = sg.mu

        start_points = tuple(_cpx_list(data["start_points"], "start_points")) \
            if "start_points" in data else ()
        start_w = tuple(_cpx_list(data["start_w"], "start_w")) \
            if "start_w" in data else ()
        if builtin is not None and not start_points:
            start_points = (builtin_start(builtin),)
        if not start_points and not start_w:
            raise ScenarioError("scenario needs start_points or start_w")

        fwd = GridSpec.parse(data["forward_grid"], "forward_grid") \
            if "forward_grid" in data else GridSpec("linear", 0.0, 10.0, 101)
        bwd = GridSpec.parse(data["backward_grid"], "backward_grid") \
            if "backward_grid" in data else None

        heur = Heuristic()
        if "heuristic" in data:
            hd = data["heuristic"]
            if not isinstance(hd, dict):
                raise ScenarioError("heuristic must be an object")
            keys = _schema()["properties"]["heuristic"]["properties"]
            check_keys(hd, keys, (), "heuristic")
            for key, value in hd.items():
                json_number(value, f"heuristic.{key}")
            # each value is cast to the type of its field's default
            heur = Heuristic(**{f.name: type(f.default)(hd.get(f.name, f.default))
                                for f in fields(Heuristic)})
            for key, value in heur.to_dict().items():
                _check_bounds(value, keys[key], f"heuristic.{key}")

        seed = data.get("seed", 0)
        if not isinstance(seed, int):
            raise ScenarioError("seed must be an integer")

        return cls(name=str(data.get("name", builtin or "scenario")),
                   builtin=builtin, kind=kind, mu=mu,
                   koenigs_spec=koenigs_spec, domain_spec=domain_spec,
                   start_points=start_points, start_w=start_w,
                   forward_grid=fwd, backward_grid=bwd,
                   heuristic=heur, seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from exc
        return cls.parse(data)

    # -- canonical form ----------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.builtin is not None:
            out["builtin"] = self.builtin
        else:
            out["type"] = self.kind
            if self.mu is not None:
                out["mu"] = [self.mu.real, self.mu.imag]
            out["koenigs"] = self.koenigs_spec
            out["domain"] = self.domain_spec
        if self.start_points:
            out["start_points"] = [[z.real, z.imag] for z in self.start_points]
        if self.start_w:
            out["start_w"] = [[w.real, w.imag] for w in self.start_w]
        out["forward_grid"] = self.forward_grid.to_dict()
        if self.backward_grid is not None:
            out["backward_grid"] = self.backward_grid.to_dict()
        out["heuristic"] = self.heuristic.to_dict()
        out["seed"] = self.seed
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- resolution --------------------------------------------------------

    def resolve_semigroup(self) -> Optional[Semigroup]:
        """The scenario's semigroup, or None for Koenigs-plane-only data."""
        if self.builtin is not None:
            return builtin_semigroup(self.builtin)
        if self.koenigs_spec is None:
            return None
        omega = domain_from_dict(self.domain_spec)
        koenigs = MapExpr.from_dict(self.koenigs_spec, source=unit_disk(),
                                    target=omega)
        return Semigroup(self.kind, koenigs, omega,
                         mu=self.mu, name=self.name)

    def resolve_domain(self) -> Domain:
        if self.builtin is not None:
            return builtin_semigroup(self.builtin).omega
        return domain_from_dict(self.domain_spec)

    def tracks(self) -> list:
        """One backward track per starting point (disk- or Koenigs-plane)."""
        out = []
        sg = self.resolve_semigroup()
        for z in self.start_points:
            if sg is None:
                raise ScenarioError(
                    "start_points need a Koenigs map; use start_w for "
                    "map-free scenarios")
            out.append(OrbitTrack.from_semigroup(sg, z, label=self.name))
        if self.start_w:
            omega = sg.omega if sg is not None else self.resolve_domain()
            for w in self.start_w:
                out.append(OrbitTrack.from_omega(omega, w, self.kind,
                                                 mu=self.mu, label=self.name))
        return out
