"""Exception hierarchy for the toolkit, and the checks that reject a
malformed JSON spec (scenario, domain or map) with a ScenarioError."""


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
    """Newton inversion failed to converge; carries the best residual."""

    def __init__(self, message, *, best_residual=None, best_point=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_point = best_point


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
    """A JSON number, as given (booleans and NaN are not numbers)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
        raise ScenarioError(f"{ctx} must be a number, got {v!r}")
    return v


def json_complex(v, ctx: str) -> complex:
    """A complex from a JSON number or an [re, im] pair."""
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ScenarioError(
                f"{ctx}: complex values are [re, im] pairs, got {v!r}")
        return complex(json_number(v[0], ctx), json_number(v[1], ctx))
    return complex(json_number(v, ctx))
