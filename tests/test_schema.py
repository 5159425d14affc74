"""The scenario schema is the parser's one table of keys and bounds."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

import diskflow
from diskflow import Heuristic, Scenario, ScenarioError, catalog, confmap, domains
from diskflow.cli import main
from diskflow.errors import read_fields
from diskflow.scenario import GridSpec
from diskflow.semigroup import NONELLIPTIC


def _schema():
    path = Path(diskflow.__file__).with_name("schemas") / "scenario.schema.json"
    return json.loads(path.read_text())


def _enum(node):
    return list(node["enum"])


def _specs():
    """(schema table, dataclass fields) of each spec the reader reads."""
    schema = _schema()
    defs = schema["definitions"]
    yield schema["properties"]["heuristic"]["properties"], \
        dataclasses.fields(Heuristic)
    yield defs["grid"]["properties"], dataclasses.fields(GridSpec)
    prim = defs["map"]["properties"]["chain"]["items"]["properties"]
    for cls in confmap._PRIMITIVES.values():
        yield prim, dataclasses.fields(cls)
    for cls in domains._CANONICAL.values():
        yield defs["domain"]["properties"], domains._spec_fields(cls)


# a field's annotation -> the schema's type for its key
_SCHEMA_TYPES = {
    "int": {"type": "integer"},
    "Optional[int]": {"type": ["integer", "null"]},
    "float": {"type": "number"},
    "complex": {"$ref": "#/definitions/complex"},
}


def _bounds(node, path=()):
    """(path, keyword, bound, node) of every bound the schema states."""
    if not isinstance(node, dict):
        return
    for word in ("minimum", "exclusiveMinimum", "maximum"):
        if word in node:
            yield path, word, node[word], node
    for key, child in node.items():
        yield from _bounds(child, path + (key,))


def _past(word, bound, node):
    """A value just outside ``bound``."""
    if "integer" in node["type"]:
        return bound + 1 if word == "maximum" else bound - 1
    if word == "exclusiveMinimum":
        return bound
    return math.nextafter(bound, math.inf if word == "maximum" else -math.inf)


def _scenario_setting(path, value) -> dict:
    """A scenario whose only unusual value is ``value`` at schema ``path``."""
    key = path[-1]
    if path[:2] == ("properties", "heuristic"):
        return {"builtin": "strip", "heuristic": {key: value}}
    if path[:2] == ("definitions", "grid"):
        return {"builtin": "strip", "forward_grid": {
            "kind": "linear", "t0": 0, "t1": 1, key: value}}
    if path[:2] == ("definitions", "domain"):
        kind = next(k for k, cls in domains._CANONICAL.items()
                    if key in {f.name for f in domains._spec_fields(cls)})
        return {"type": "nonelliptic", "koenigs": None,
                "domain": {"kind": kind, key: value}, "start_w": [[0, 0]]}
    raise AssertionError(f"no scenario sets the bounded key at {path}")


_BOUNDS = list(_bounds(_schema()))


class TestSchemaMatchesCode:
    def test_enums_equal_code_tables(self):
        schema = _schema()
        props = schema["properties"]
        defs = schema["definitions"]
        dom = defs["domain"]["properties"]
        op = defs["map"]["properties"]["chain"]["items"]["properties"]["op"]
        assert _enum(props["builtin"]) == [*catalog.BUILTIN_NAMES,
                                           *catalog.MAPLESS_NAMES]
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

    def test_grid_kinds_split_the_grid_keys(self):
        # one branch per grid kind, naming the keys that kind reads
        grid = _schema()["definitions"]["grid"]
        reads = {b["properties"]["kind"]["const"]: b["propertyNames"]["enum"]
                 for b in grid["oneOf"]}
        assert list(reads) == _enum(grid["properties"]["kind"])
        assert all(keys[0] == "kind" for keys in reads.values())
        assert sorted(k for keys in reads.values() for k in keys[1:]) == \
            sorted(f.name for f in dataclasses.fields(GridSpec)
                   if f.name != "kind")

    def test_value_types_equal_field_annotations(self):
        untyped = {}
        for table, specs in _specs():
            for f in specs:
                node = {k: v for k, v in table[f.name].items()
                        if k in ("type", "$ref")}
                if f.type == "str":
                    assert all(isinstance(e, str) for e in table[f.name]["enum"])
                elif not node:
                    untyped.setdefault(f.name, set()).add(f.type)
                elif f.type in _SCHEMA_TYPES or node in _SCHEMA_TYPES.values():
                    assert _SCHEMA_TYPES.get(f.type) == node, f.name
        # the one key the schema leaves untyped is typed by the domain kind
        assert untyped == {"center": {"float", "complex"}}

    @pytest.mark.parametrize("path,word,bound,node", _BOUNDS,
                             ids=[f"{p[-1]}-{w}" for p, w, _, _ in _BOUNDS])
    def test_value_past_each_bound_exits_2(self, tmp_path, capsys, path,
                                           word, bound, node):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(_scenario_setting(
            path, _past(word, bound, node))))
        assert main(["criterion", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert f".{path[-1]} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_literal_builtin_tables_equal_the_semigroups(self):
        sgs = {n: catalog.builtin_semigroup(n) for n in catalog.BUILTIN_NAMES}
        assert catalog.NONELLIPTIC_BUILTINS == tuple(
            n for n, sg in sgs.items() if sg.kind == NONELLIPTIC)
        assert catalog.CONVEX_BUILTINS == tuple(
            n for n, sg in sgs.items() if sg.omega.convex)


class TestReader:
    """``errors.read_fields`` reads a value by its field's annotation."""

    GRID = dataclasses.fields(GridSpec)

    @pytest.mark.parametrize("n", [True, math.nan, math.inf, -math.inf,
                                   10 ** 400, 2.5, "5", None],
                             ids=["bool", "nan", "inf", "-inf", "10**400",
                                  "fraction", "string", "null"])
    def test_int_rejected(self, n):
        with pytest.raises(ScenarioError, match=r"^grid\.n must be"):
            read_fields(self.GRID, {"kind": "linear", "n": n}, "grid")

    def test_integral_float_reads_as_int(self):
        n = read_fields(self.GRID, {"kind": "linear", "n": 5.0}, "grid")["n"]
        assert n == 5 and type(n) is int

    def test_float_reads_as_float(self):
        t1 = read_fields(self.GRID, {"kind": "linear", "t1": 3}, "grid")["t1"]
        assert t1 == 3.0 and type(t1) is float

    def test_null_optional_int(self):
        spec = {"kind": "slitstrip", "n_truncation": None}
        assert read_fields(domains._spec_fields(domains.SlitStrip), spec,
                           "slitstrip", extra=("kind",)) == {"n_truncation": None}
        assert domains.domain_from_dict(spec).truncation() is None

    def test_keys_and_required_fields(self):
        with pytest.raises(ScenarioError, match=r"unknown key\(s\) \['step'\]"):
            read_fields(self.GRID, {"kind": "linear", "step": 1}, "grid")
        with pytest.raises(ScenarioError, match=r"missing key\(s\) \['kind'\]"):
            read_fields(self.GRID, {}, "grid")
        with pytest.raises(ScenarioError, match="grid must be an object"):
            read_fields(self.GRID, [], "grid")

    def test_schema_bounds(self):
        bounds = {"n": {"minimum": 2, "maximum": 9}}
        for n in (1, 10):
            with pytest.raises(ScenarioError, match=r"grid\.n must be"):
                read_fields(self.GRID, {"kind": "linear", "n": n}, "grid",
                            bounds)
        assert read_fields(self.GRID, {"kind": "linear", "n": 9}, "grid",
                           bounds)["n"] == 9


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
