"""Structured bases of the row space, and transfer through the null
scaling.

The row space of a zero-diagonal forest-patterned matrix is spanned by,
for every non-support vertex v, the unit vector e_v together with row v
restricted to v's support neighbors (the "supported-neighborhood
vector"); zero vectors are dropped.  Row space is what "rank" means
throughout this module; for symmetric matrices it coincides with the
column space, in general it does not.

The transfer's membership check needs no scaling: the row space of any
matrix is the orthogonal complement of its null space over every field,
so x is in the row space of m iff x is orthogonal to m's own sparsest
null basis.  The transfer needs no second scaling.  The null scaling
D of m (``scaling.transversal_scaling``) carries null(m) onto null(A)
for the pattern's adjacency matrix A, so for y in row(m) and b in
null(A), (D^-1 y) . b = y . (D^-1 b) = 0: D^-1 carries row(m) onto
row(A), and D carries it back.  D only maps; it decides nothing.
D_N D_M^-1 is den / num of both transfers' one multiply-only walk.
"""

from __future__ import annotations

from .errors import ValidationError
from .kernel import MatchingInfo, sparsest_null_basis, support
from .matrix import AcyclicMatrix, Basis, SparseVector
from .scaling import _edge_products, _scaled, _transfer_analysis


def rank_basis(m: AcyclicMatrix, matching: MatchingInfo) -> Basis:
    """Basis of the row space of m, from the matching that
    ``maximum_matching`` finds on m's pattern, of size twice the matching
    number: unit vectors first (ascending vertex), then the nonzero
    supported-neighborhood vectors (ascending vertex), each read from
    the vertex's CSR slice of ``row_flat``."""
    supp = support(m.pattern, matching).supp
    non_supp = [v for v in range(m.n) if v not in supp]
    one = m.field.one
    vectors = [SparseVector._trusted(m.n, m.field, {v: one}) for v in non_supp]
    neighbors, offsets, row_flat = m.pattern.neighbors, m.pattern.offsets, m.row_flat
    for v in non_supp:
        lo, hi = offsets[v], offsets[v + 1]
        # row_flat holds only nonzero values, so no entry needs dropping
        entries = {w: x for w, x in zip(neighbors[lo:hi], row_flat[lo:hi]) if w in supp}
        if entries:
            vectors.append(SparseVector._trusted(m.n, m.field, entries))
    return Basis(vectors)


def transfer_rank(m: AcyclicMatrix, n_mat: AcyclicMatrix,
                  x: SparseVector) -> SparseVector:
    """Map a row-space vector of m to one of n_mat (same pattern).

    Applies D_N D_M^-1, the reverse of ``transfer_null``; the support of
    x is preserved.
    """
    analysis = _transfer_analysis(m, n_mat, x)
    if any(x.dot(b) for b in sparsest_null_basis(m, analysis.matching).vectors):
        raise ValidationError("vector is not in the row space of the source matrix")
    num, den = _edge_products(m, n_mat, analysis)
    return _scaled(x, den, num)
