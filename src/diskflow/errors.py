"""Exception hierarchy for the toolkit, and the reader that rejects a
malformed JSON spec (scenario, domain or map) with a ScenarioError."""

import functools
import json
import operator
import sys
from dataclasses import MISSING
from pathlib import Path


class DiskflowError(Exception):
    """Base class for all toolkit errors."""


class DomainError(DiskflowError):
    """A point lies outside the domain required by an operation."""


class ParameterError(DiskflowError):
    """Invalid parameter for a constructor or operation."""


class EvaluationError(DiskflowError):
    """A map evaluation failed (branch cut hit, overflow, pole)."""

    def __init__(self, message, *, overflow=False):
        super().__init__(message)
        self.overflow = overflow


class InversionError(DiskflowError):
    """A map's closed-form inverse failed, or the roundtrip rejected it."""


class CompositionError(DiskflowError):
    """Sampled source/target containment failed during composition."""


class HorizonError(DiskflowError):
    """A backward time grid reaches past the backward horizon T_z."""

    def __init__(self, message, *, horizon=None):
        super().__init__(message)
        self.horizon = horizon


class CrossValidationError(DiskflowError):
    """Two independent computations of one quantity disagree: pullback and
    ODE orbit traces, or a distance's upper bound and its lower bound;
    carries diagnostics."""

    def __init__(self, message, *, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ScenarioError(ParameterError):
    """A scenario document, or a domain or map spec in one, failed
    validation."""


@functools.cache
def scenario_schema() -> dict:
    """The scenario JSON schema: the top-level keys and every numeric bound."""
    path = Path(__file__).with_name("schemas") / "scenario.schema.json"
    return json.loads(path.read_text())


def check_keys(data, allowed, required, ctx: str) -> None:
    """Reject a spec that is not an object, has a key outside ``allowed``
    or lacks one of ``required``."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{ctx} must be an object, got {data!r}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} in {ctx}")
    missing = [k for k in required if k not in data]
    if missing:
        raise ScenarioError(f"missing key(s) {missing} in {ctx}")


def json_number(v, ctx: str):
    """A finite JSON number, as given, but -0.0 reads 0.0: no parsed value
    picks a side of a branch cut with its sign, so equal scenarios hash
    equal.  Booleans and NaN are not numbers; json reads Infinity, and an
    integer may lie past the float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
        raise ScenarioError(f"{ctx} must be a number, got {v!r}")
    if not -sys.float_info.max <= v <= sys.float_info.max:
        raise ScenarioError(f"{ctx} must be a finite number, got {v!r}")
    return v + 0  # -0.0 + 0 is 0.0; any other number is unchanged


def json_float(v, ctx: str) -> float:
    return float(json_number(v, ctx))


def json_integer(v, ctx: str) -> int:
    """An integral finite JSON number, as an int (5.0 reads 5)."""
    if json_number(v, ctx) != int(v):
        raise ScenarioError(f"{ctx} must be an integer, got {v!r}")
    return int(v)


def json_string(v, ctx: str) -> str:
    if not isinstance(v, str):
        raise ScenarioError(f"{ctx} must be a string, got {v!r}")
    return v


def json_complex(v, ctx: str) -> complex:
    """A complex from an [re, im] pair of finite numbers."""
    if not isinstance(v, list) or len(v) != 2:
        raise ScenarioError(
            f"{ctx}: complex values are [re, im] pairs, got {v!r}")
    return complex(json_number(v[0], ctx), json_number(v[1], ctx))


# the schema's bound keywords, and the relation each one asks for
_BOUNDS = (("minimum", ">=", operator.ge), ("exclusiveMinimum", ">", operator.gt),
           ("maximum", "<=", operator.le))

# a field's annotation -> how its JSON value is read; a value of any other
# annotation goes to the constructor as given
_READERS = {
    "complex": json_complex,
    "float": json_float,
    "int": json_integer,
    "Optional[int]": lambda v, ctx: None if v is None else json_integer(v, ctx),
    "str": json_string,
}


def read_fields(specs, data, ctx: str, schema=None, extra=()) -> dict:
    """The constructor keywords of a JSON spec whose keys are the dataclass
    fields ``specs``, and the ``extra`` keys that the caller reads itself.
    Each value is read by its field's annotation and held to the bounds of
    its key in the schema table ``schema``."""
    check_keys(data, [*extra, *(f.name for f in specs)],
               [f.name for f in specs if f.default is MISSING
                and f.default_factory is MISSING], ctx)
    out = {}
    for f in specs:
        if f.name not in data:
            continue
        key = f"{ctx}.{f.name}"
        v = data[f.name]
        if f.type in _READERS:
            v = _READERS[f.type](v, key)
        bounds = (schema or {}).get(f.name, {}) if v is not None else {}
        for name, sign, holds in _BOUNDS:
            if name in bounds and not holds(v, bounds[name]):
                raise ScenarioError(
                    f"{key} must be {sign} {bounds[name]}, got {v!r}")
        out[f.name] = v
    return out
