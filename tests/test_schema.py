"""The scenario schema is the parser's one table of keys and bounds."""

import dataclasses
import json
from pathlib import Path

import pytest

import diskflow
from diskflow import Heuristic, Scenario, ScenarioError, catalog, confmap, domains
from diskflow.cli import main
from diskflow.scenario import GridSpec


def _schema():
    path = Path(diskflow.__file__).with_name("schemas") / "scenario.schema.json"
    return json.loads(path.read_text())


def _enum(node):
    return list(node["enum"])


class TestSchemaMatchesCode:
    def test_enums_equal_code_tables(self):
        schema = _schema()
        props = schema["properties"]
        defs = schema["definitions"]
        dom = defs["domain"]["properties"]
        op = defs["map"]["properties"]["chain"]["items"]["properties"]["op"]
        assert _enum(props["builtin"]) == list(catalog.BUILTIN_NAMES)
        assert _enum(op) == list(confmap._PRIMITIVES)
        assert _enum(dom["kind"]) == list(domains._CANONICAL)
        assert _enum(dom["profile"]) == list(domains._PROFILES)
        assert _enum(dom["orientation"]) == list(domains._ORIENTATIONS)

    def test_object_keys_equal_dataclass_fields(self):
        schema = _schema()
        heur = schema["properties"]["heuristic"]["properties"]
        grid = schema["definitions"]["grid"]["properties"]
        assert list(heur) == [f.name for f in dataclasses.fields(Heuristic)]
        assert list(grid) == [f.name for f in dataclasses.fields(GridSpec)]


BAD_HEURISTICS = [
    {"window": 0},
    {"window": 1},
    {"growth_factor": 0.5},
    {"growth_factor": 1.0},
    {"abs_threshold": 0.0},
    {"monotone_rel_tol": -1e-9},
]


class TestSchemaBounds:
    @pytest.mark.parametrize("override", BAD_HEURISTICS,
                             ids=[json.dumps(h) for h in BAD_HEURISTICS])
    def test_out_of_bounds_heuristic_rejected(self, override):
        with pytest.raises(ScenarioError):
            Scenario.parse({"builtin": "strip", "heuristic": override})

    def test_boundary_values_accepted(self):
        sc = Scenario.parse({"builtin": "strip", "heuristic": {
            "window": 2, "growth_factor": 1.0001, "abs_threshold": 1e-300,
            "monotone_rel_tol": 0.0}})
        assert sc.heuristic.window == 2

    def test_grid_needs_two_nodes(self):
        with pytest.raises(ScenarioError):
            Scenario.parse({"builtin": "strip", "forward_grid": {
                "kind": "linear", "t0": 0.0, "t1": 1.0, "n": 1}})

    @pytest.mark.parametrize("override", [{"window": 0},
                                          {"growth_factor": 0.5}])
    def test_cli_exits_2(self, tmp_path, override):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"builtin": "strip",
                                   "heuristic": override}))
        for command in ("criterion", "trace"):
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
