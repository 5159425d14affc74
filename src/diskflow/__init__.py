"""Semigroups of holomorphic self-maps of the unit disk: Koenigs data,
orbit tracing, and rectifiability/Lipschitz audits."""

__version__ = "0.1.0"

from .analysis import (
    ArcLength,
    BilipschitzProbe,
    Certificate,
    CriterionReport,
    Heuristic,
    OrbitTrack,
    Quotient,
    RegularityResult,
    ShiftResult,
    SpiralSpec,
    ahlfors_audit,
    arc_length,
    backward_criterion,
    bilipschitz_probe,
    euclidean_sufficient_test,
    forward_certificate,
    generator_tail,
    hayman_wu_audit,
    lipschitz_quotient,
    regularity_classify,
    shift_classify,
)
from .confmap import Affine, Exp, Log, MapExpr, Mobius, Power, Sin, Tanh, compose
from .domains import (
    Channel,
    Disk,
    Domain,
    HalfPlane,
    HalfStrip,
    SlitStrip,
    SpiralSector,
    Strip,
    example1_domain,
    example2_domain,
    example3_domain,
    exp_channel_domain,
    is_convex_positive_direction,
    is_spirallike,
    unit_disk,
)
from .errors import (
    CompositionError,
    CrossValidationError,
    DiskflowError,
    DomainError,
    EvaluationError,
    HorizonError,
    InversionError,
    ParameterError,
    ScenarioError,
)
from .hypgeo import Interval, disk_density, disk_distance, domain_density, domain_distance
from .scenario import GridSpec, Scenario
from .semigroup import (
    ELLIPTIC,
    NONELLIPTIC,
    DenjoyWolff,
    Horizon,
    OrbitSample,
    Semigroup,
)
from . import catalog
