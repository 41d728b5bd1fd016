"""Structured bases of the row space, and row-space membership and
transfer through the null scaling.

The row space of a zero-diagonal forest-patterned matrix is spanned by,
for every non-support vertex v, the unit vector e_v together with row v
restricted to v's support neighbors (the "supported-neighborhood
vector"); zero vectors are dropped.  Row space is what "rank" means
throughout this module; for symmetric matrices it coincides with the
column space, in general it does not.

No second scaling is needed for row spaces.  The row space of any
matrix is the orthogonal complement of its null space, and the null
scaling D of m (``scaling.transversal_scaling``) carries null(m) onto
null(A) for the pattern's adjacency matrix A, so for y in row(m) and b
in null(A), (D^-1 y) . b = y . (D^-1 b) = 0: D^-1 carries row(m) onto
row(A), and D carries it back.  A vector x is therefore in the row
space of m iff D^-1 x is orthogonal to the pattern's {-1, 0, +1} null
basis, the null-basis walk run on A (``_row_preimage``), so testing
membership before a transfer takes no basis of m.
"""

from __future__ import annotations

from .errors import ValidationError
from .kernel import Analysis, analyze, sparsest_null_basis
from .matrix import AcyclicMatrix, Basis, SparseVector, adjacency_matrix, require_compatible
from .scaling import _transfer_analysis, transversal_scaling


def supported_neighborhood_vector(m: AcyclicMatrix, analysis: Analysis,
                                  v: int) -> SparseVector:
    """Row v of m restricted to v's support neighbors.  May be zero."""
    supp = analysis.support.supp
    if v in supp:
        raise ValidationError("vertex %d is a support vertex", v)
    # row_flat holds only nonzero values, so no entry needs dropping
    return SparseVector._trusted(m.n, m.field,
                                 {w: x for w, x in m.row_items(v) if w in supp})


def rank_basis(m: AcyclicMatrix) -> Basis:
    """Basis of the row space of m, of size twice the matching number:
    unit vectors first (ascending vertex), then the nonzero
    supported-neighborhood vectors (ascending vertex)."""
    analysis = analyze(m.pattern)
    supp = analysis.support.supp
    non_supp = [v for v in range(m.n) if v not in supp]
    one = m.field.one
    vectors = [SparseVector._trusted(m.n, m.field, {v: one}) for v in non_supp]
    for v in non_supp:
        s_v = supported_neighborhood_vector(m, analysis, v)
        if not s_v.is_zero():
            vectors.append(s_v)
    return Basis(vectors)


def in_row_space(m: AcyclicMatrix, x: SparseVector) -> bool:
    """Row-space membership of x, by the rule of ``_row_preimage``."""
    require_compatible(m, x, "matrix and vector")
    return _row_preimage(m, analyze(m.pattern), x) is not None


def transfer_rank(m: AcyclicMatrix, n_mat: AcyclicMatrix,
                  x: SparseVector) -> SparseVector:
    """Map a row-space vector of m to one of n_mat (same pattern).

    Applies the inverse of m's transversal scaling and then n_mat's, the
    reverse of ``transfer_null``; the support of x is preserved.
    """
    analysis = _transfer_analysis(m, n_mat, x)
    y = _row_preimage(m, analysis, x)
    if y is None:
        raise ValidationError("vector is not in the row space of the source matrix")
    return transversal_scaling(n_mat, analysis).apply(y)


def _row_preimage(m: AcyclicMatrix, analysis: Analysis, x: SparseVector):
    """D^-1 x for the transversal scaling D of m, or None when x is not
    in the row space of m."""
    y = transversal_scaling(m, analysis).apply_inverse(x)
    a = adjacency_matrix(analysis.forest, m.field)
    null = sparsest_null_basis(a, analysis.matching).vectors
    return None if any(y.dot(b) for b in null) else y
