"""Min/max families of polytopes for piecewise-smooth directional
derivatives, with exact checkers for the induced optimality conditions."""

from .conditions import (
    ConditionID,
    RunMemo,
    SignRegion,
    Verdict,
    build_condition,
    evaluate_condition,
    inclusion_check,
    necessary_condition_oracle,
    region_membership,
    reduce_exhauster,
    regularity_check,
)
from .deriv import (
    Leaf,
    Max,
    Min,
    Scale,
    SmoothAtom,
    Sum,
    directional_derivative_tree,
    eval_expr,
    eval_minmax,
    expr_from_json,
)
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    ExhausterKindError,
    SolverError,
)
from .exhauster import (
    Exhauster,
    eval_exhauster,
    exhauster_from_tree,
    polytopes_equal,
)
from .geometry import (
    LinearConstraint,
    Polytope,
    contains_origin,
    hull_contains,
    linear_feasibility,
    sample_unit_directions,
)
from .report import AnalysisReport, render_report, render_svg

__version__ = "0.1.0"
