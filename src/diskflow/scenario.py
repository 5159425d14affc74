"""Scenario documents: strict parsing, canonical serialization, hashing.

A scenario names a semigroup or a mapless domain (builtin shorthand or
explicit data), starting points, time grids, and heuristic overrides.  Its
top-level keys, every numeric bound and each grid kind's keys come from
``schemas/scenario.schema.json``, each nested spec's keys and value types
from its dataclass; unknown keys are rejected everywhere.  The canonical
form, written from the parsed map and domain, parses back to the same
scenario, and its SHA-256 hash is embedded in every emitted report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Optional

from .analysis import Heuristic, OrbitTrack
from .catalog import (BUILTIN_NAMES, MAPLESS_NAMES, builtin_semigroup,
                      builtin_start, mapless_builtin)
from .confmap import MapExpr
from .domains import Domain, domain_from_dict, unit_disk
from .errors import (ScenarioError, check_keys, json_complex, json_float,
                     json_string, read_fields, scenario_schema)
from .semigroup import ELLIPTIC, NONELLIPTIC, Semigroup


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
        schema = scenario_schema()["definitions"]["grid"]
        spec = read_fields(fields(cls), data, ctx, schema["properties"])
        # the keys each kind reads: the schema's branch for that kind
        reads = {branch["properties"]["kind"]["const"]:
                 branch["propertyNames"]["enum"] for branch in schema["oneOf"]}
        kind = spec["kind"]
        if kind not in reads:
            raise ScenarioError(f"{ctx}: unknown grid kind {kind!r}")
        foreign = [key for key in spec if key not in reads[kind]]
        if foreign:
            raise ScenarioError(f"{ctx}: {kind} grids do not read {foreign}")
        if kind == "linear":
            grid = cls(**spec)
            if not grid.t1 > grid.t0:
                raise ScenarioError(f"{ctx}: need t1 > t0")
            return grid
        vals = spec.get("values")
        if not isinstance(vals, list) or not vals:
            raise ScenarioError(f"{ctx}: explicit grids need values")
        return cls("explicit", values=tuple(
            json_float(v, f"{ctx}.values") for v in vals))

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


def _koenigs_data(data: dict, name: str) -> tuple:
    """(kind, mu, semigroup or None, domain, default start_w) of a document."""
    builtin = data.get("builtin")
    if builtin is not None:
        if builtin not in BUILTIN_NAMES + MAPLESS_NAMES:
            raise ScenarioError(f"unknown builtin {builtin!r}; choose from "
                                f"{[*BUILTIN_NAMES, *MAPLESS_NAMES]}")
        for key in ("type", "mu", "koenigs", "domain"):
            if key in data:
                raise ScenarioError(
                    f"builtin scenarios must not override {key!r}")
        if builtin in MAPLESS_NAMES:
            omega, w0 = mapless_builtin(builtin)
            return NONELLIPTIC, None, None, omega, (w0,)
        sg = builtin_semigroup(builtin)
        return sg.kind, sg.mu, sg, sg.omega, ()
    kind = data.get("type")
    if kind not in (ELLIPTIC, NONELLIPTIC):
        raise ScenarioError("scenario type must be 'elliptic' or "
                            "'nonelliptic'")
    if data.get("domain") is None:
        raise ScenarioError("non-builtin scenarios need a domain")
    mu = None
    if kind == ELLIPTIC:
        if "mu" not in data:
            raise ScenarioError("elliptic scenarios need mu")
        mu = json_complex(data["mu"], "mu")
        if mu.real <= 0:
            raise ScenarioError("mu must have positive real part")
    elif "mu" in data:
        raise ScenarioError("non-elliptic scenarios carry no mu")
    omega = domain_from_dict(data["domain"])
    if data.get("koenigs") is None:
        return kind, mu, None, omega, ()
    koenigs = MapExpr.from_dict(data["koenigs"], source=unit_disk(),
                                target=omega)
    sg = Semigroup(kind, koenigs, omega, mu=mu, name=name)
    return kind, mu, sg, sg.omega, ()


@dataclass(frozen=True)
class Scenario:
    name: str
    builtin: Optional[str]
    kind: str
    mu: Optional[complex]
    start_points: tuple
    start_w: tuple
    forward_grid: GridSpec
    backward_grid: Optional[GridSpec]
    heuristic: Heuristic
    semigroup: Optional[Semigroup]
    domain: Domain

    # -- parsing ---------------------------------------------------------

    @classmethod
    def parse(cls, data: dict) -> "Scenario":
        schema = scenario_schema()["properties"]
        check_keys(data, schema, (), "scenario")
        builtin = data.get("builtin")
        name = json_string(data.get("name", builtin or "scenario"), "name")
        kind, mu, sg, omega, default_w = _koenigs_data(data, name)

        start_points = tuple(_cpx_list(data.get("start_points", []),
                                       "start_points"))
        start_w = tuple(_cpx_list(data.get("start_w", []), "start_w")) \
            or default_w
        if builtin in BUILTIN_NAMES and not start_points:
            start_points = (builtin_start(builtin),)
        if not start_points and not start_w:
            raise ScenarioError("scenario needs start_points or start_w")
        if start_points and sg is None:
            raise ScenarioError("start_points need a Koenigs map; use "
                                "start_w for map-free scenarios")

        fwd = GridSpec.parse(data.get("forward_grid", {"kind": "linear"}),
                             "forward_grid")
        bwd = GridSpec.parse(data["backward_grid"], "backward_grid") \
            if "backward_grid" in data else None
        heur = Heuristic(**read_fields(
            fields(Heuristic), data.get("heuristic", {}), "heuristic",
            schema["heuristic"]["properties"]))

        return cls(name=name, builtin=builtin, kind=kind, mu=mu,
                   start_points=start_points, start_w=start_w,
                   forward_grid=fwd, backward_grid=bwd, heuristic=heur,
                   semigroup=sg, domain=omega)

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
            out["koenigs"] = None if self.semigroup is None \
                else self.semigroup.koenigs.to_dict()
            out["domain"] = self.domain.to_dict()
        if self.start_points:
            out["start_points"] = [[z.real, z.imag] for z in self.start_points]
        if self.start_w:
            out["start_w"] = [[w.real, w.imag] for w in self.start_w]
        out["forward_grid"] = self.forward_grid.to_dict()
        if self.backward_grid is not None:
            out["backward_grid"] = self.backward_grid.to_dict()
        out["heuristic"] = self.heuristic.to_dict()
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- tracks ------------------------------------------------------------

    def tracks(self) -> list:
        """One backward track per starting point (disk- or Koenigs-plane)."""
        return [OrbitTrack.from_semigroup(self.semigroup, z, label=self.name)
                for z in self.start_points] + \
            [OrbitTrack.from_omega(self.domain, w, self.kind, mu=self.mu,
                                   label=self.name) for w in self.start_w]
