"""Null-space and row-space structure of zero-diagonal matrices whose
nonzero pattern is a forest.

The null space of such a matrix is a diagonal rescaling of the null
space of the forest's adjacency matrix, and likewise for the row space.
This package computes the scalings, a sparsest null basis (one
alternating walk per exposed vertex of a maximum matching, 1 there and
0 at the other exposed vertices), a structured row-space basis, and
transfers of vectors between matrices sharing a pattern -- all in exact
arithmetic over the rationals or a prime field.
"""

from .errors import ForestNullError, OracleBoundError, ParseError, ValidationError
from .fields import Field, PrimeField, QQ, RationalField, parse_field_spec
from .forest import Forest, build_forest
from .generate import random_matrix
from .kernel import (Analysis, MatchingInfo, SupportInfo, analyze,
                     maximum_matching, support)
from .matrix import AcyclicMatrix, Basis, SparseVector, adjacency_matrix
from .rank import rank_basis, supported_neighborhood_vector, transfer_rank
from .scaling import (DiagonalScaling, null_basis, transfer_null,
                      transversal_scaling)

__version__ = "0.1.0"

__all__ = [
    "AcyclicMatrix", "Analysis", "Basis", "DiagonalScaling", "Field",
    "Forest", "ForestNullError", "MatchingInfo", "OracleBoundError",
    "ParseError", "PrimeField", "QQ", "RationalField", "SparseVector",
    "SupportInfo", "ValidationError", "adjacency_matrix", "analyze",
    "build_forest", "maximum_matching", "null_basis", "parse_field_spec",
    "random_matrix", "rank_basis", "support", "supported_neighborhood_vector",
    "transfer_null", "transfer_rank", "transversal_scaling",
]
