"""Clause solving over finite lattices.

Parse stratified clause programs whose relations carry values from a
pluggable complete lattice, compute their unique least model with an
engine that delivers each new fact from one worklist to the queries waiting
for it, and cross-check against slow reference semantics.  Ships
sign and interval analyses generated from program graphs.
"""

from .ast import (And, Apply, Assert, Const, Exists, Fact, FnApp, Forall,
                  Imply, LitConst, NegQuery, PreOr, Program, Query, Repr,
                  TrueClause, Var, YVar, compute_ranks, reorder_preconditions,
                  validate)
from .errors import (LatlogError, LatticeError, MonotonicityError,
                     OracleSizeError, ParseError, RegistryError,
                     SolverInvariantError, StratificationError,
                     UnsupportedInstanceError, ValidationError)
from .lattices import (EMPTY_INTERVAL, FULL_INTERVAL, FunctionRegistry,
                       IntervalValue, Lattice, interval, interval_arithmetic,
                       interval_join, interval_lattice, interval_leq,
                       interval_meet, powerset_lattice, sign_lattice,
                       sign_transfer, standard_registry)
from .parser import parse_clauses, parse_fact, pretty
from .solver import SolveResult, solve
from .randgen import random_program

__version__ = "0.1.0"

__all__ = [
    "And", "Apply", "Assert", "Const", "Exists", "Fact", "FnApp", "Forall",
    "Imply", "LitConst", "NegQuery", "PreOr", "Program", "Query", "Repr",
    "TrueClause", "Var", "YVar",
    "compute_ranks", "reorder_preconditions", "validate",
    "LatlogError", "LatticeError", "MonotonicityError", "OracleSizeError",
    "ParseError", "RegistryError", "SolverInvariantError",
    "StratificationError", "UnsupportedInstanceError", "ValidationError",
    "EMPTY_INTERVAL", "FULL_INTERVAL", "FunctionRegistry", "IntervalValue",
    "Lattice", "interval", "interval_arithmetic", "interval_join",
    "interval_lattice", "interval_leq", "interval_meet", "powerset_lattice",
    "sign_lattice", "sign_transfer", "standard_registry",
    "parse_clauses", "parse_fact", "pretty",
    "SolveResult", "solve",
    "random_program",
]
