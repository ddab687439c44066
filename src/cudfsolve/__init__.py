"""Tools for CUDF package-upgrade problems.

Parse documents, shrink them to the packages that can matter for the
requested change, compile them into logic facts, and compute installations
that are optimal under lexicographic criteria such as ``paranoid`` and
``trendy``.
"""

from .closure import ClosureResult, compute_closure, compute_out, full_scope
from .criteria import (
    PARANOID,
    TRENDY,
    CriteriaSeq,
    Criterion,
    Polarity,
    SignedCriterion,
    parse_criteria,
)
from .errors import (
    BadCriteria,
    CudfError,
    DuplicatePackage,
    InvalidProvide,
    InvalidVersion,
    ScopeTooLarge,
    UnknownName,
)
from .facts import FactSet, SetId, generate as generate_facts, render_facts
from .gen import generate_instance
from .model import (
    Clause,
    Constraint,
    CudfDocument,
    Formula,
    Keep,
    PackageDesc,
    PackageId,
    RelOp,
    Request,
    VersionBound,
    effective_request,
    make_document,
)
from .parser import (
    ParseError,
    ParseErrorKind,
    parse_document,
    parse_formula,
    render_document,
    render_formula,
    render_solution,
)
from .semantics import (
    DocIndex,
    ObjectiveVector,
    ValidationReport,
    compute_sets,
    evaluate,
    validate_solution,
)
from .solve import (
    Solution,
    SolveLimits,
    SolveOutcome,
    Status,
    brute_force,
    build_problem,
    model_stats,
    solve,
    solve_document,
)

__version__ = "0.1.0"

__all__ = [
    "BadCriteria",
    "Clause",
    "ClosureResult",
    "Constraint",
    "CriteriaSeq",
    "Criterion",
    "CudfDocument",
    "CudfError",
    "DocIndex",
    "DuplicatePackage",
    "FactSet",
    "Formula",
    "InvalidProvide",
    "InvalidVersion",
    "Keep",
    "ObjectiveVector",
    "PARANOID",
    "PackageDesc",
    "PackageId",
    "ParseError",
    "ParseErrorKind",
    "Polarity",
    "RelOp",
    "Request",
    "ScopeTooLarge",
    "SetId",
    "SignedCriterion",
    "Solution",
    "SolveLimits",
    "SolveOutcome",
    "Status",
    "TRENDY",
    "UnknownName",
    "ValidationReport",
    "VersionBound",
    "brute_force",
    "build_problem",
    "compute_closure",
    "compute_out",
    "compute_sets",
    "effective_request",
    "evaluate",
    "full_scope",
    "generate_facts",
    "generate_instance",
    "make_document",
    "model_stats",
    "parse_criteria",
    "parse_document",
    "parse_formula",
    "render_document",
    "render_facts",
    "render_formula",
    "render_solution",
    "solve",
    "solve_document",
    "validate_solution",
]
