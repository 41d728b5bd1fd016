"""Structured bases of the row space, and the row scaling that moves one
matrix's row space onto another's.

The row space of a zero-diagonal forest-patterned matrix is spanned by,
for every non-support vertex v, the unit vector e_v together with row v
restricted to v's support neighbors (the "supported-neighborhood
vector"); zero vectors are dropped.  Row space is what "rank" means
throughout this module; for symmetric matrices it coincides with the
column space, in general it does not.

The row scaling R is the entrywise product, over the non-support
vertices v, of the diagonal that holds at each w of v's component
(w != v) the entry M[v, v'] of v's first step v' toward w, and 1
elsewhere.  R maps each structured vector of the pattern's adjacency
matrix onto a nonzero multiple of m's.  Across a tree edge s -> t only
the factors of s and t change, so

    R[t] = R[s] * M[s, t]  (if s is not in supp)
                * M[t, s]^-1  (if t is not in supp),

and at the root r of a component, R[r] is the product of M[t, parent(t)]
over the component's non-support vertices t != r.  ``rank_normalization``
runs this rule over the preorder the pattern forest stored when it was
built, taking each vertex's parent edge from ``parent``/``parent_slot``:
O(n) field operations instead of the O(n^2) of the literal product.
The null scaling, ``scaling.transversal_scaling``, walks the same
preorder with its own edge rule; it seeds each sweep root from the
component's transversal vertex, where this rule gathers the root
product on the way down.

A vector x is in the row space of m iff R^-1 x is orthogonal to the
pattern's {-1, 0, +1} null basis (``_row_preimage``), so testing
membership before a transfer takes no basis of m.
"""

from __future__ import annotations

from .errors import ValidationError
from .fields import require_same_field
from .kernel import Analysis, analyze, sparsest_null_basis
from .matrix import (AcyclicMatrix, Basis, SparseVector, require_compatible,
                     same_pattern)
from .scaling import DiagonalScaling


def supported_neighborhood_vector(m: AcyclicMatrix, analysis: Analysis,
                                  v: int) -> SparseVector:
    """Row v of m restricted to v's support neighbors.  May be zero."""
    supp = analysis.support.supp
    if v in supp:
        raise ValidationError("vertex %d is a support vertex" % v)
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


def rank_normalization(m: AcyclicMatrix, analysis: Analysis) -> DiagonalScaling:
    """The row scaling of m: maps the pattern's row space onto m's."""
    field = m.field
    mul, inv = field.mul, field.inv
    supp = analysis.support.supp
    row_flat, col_flat = m.row_flat, m.col_flat
    f = m.pattern
    component_id, parent, parent_slot = f.component_id, f.parent, f.parent_slot
    diag = [field.one] * m.n
    root_value = [field.one] * f.component_count
    for t in f.order:
        s = parent[t]
        if s < 0:
            continue
        j = parent_slot[t]
        d = diag[s]
        if s not in supp:
            d = mul(d, row_flat[j])
        if t not in supp:
            d = mul(d, inv(col_flat[j]))
            c = component_id[t]
            root_value[c] = mul(root_value[c], col_flat[j])
        diag[t] = d
    return DiagonalScaling(m.n, field, [mul(d, root_value[component_id[v]])
                                        for v, d in enumerate(diag)])


def in_row_space(m: AcyclicMatrix, x: SparseVector) -> bool:
    """Row-space membership of x, by the rule of ``_row_preimage``."""
    require_compatible(m, x, "matrix and vector")
    return _row_preimage(m, analyze(m.pattern), x) is not None


def transfer_rank(m: AcyclicMatrix, n_mat: AcyclicMatrix,
                  x: SparseVector) -> SparseVector:
    """Map a row-space vector of m to one of n_mat (same pattern)."""
    require_same_field(m.field, n_mat.field, "matrices")
    if not same_pattern(m, n_mat):
        raise ValidationError("matrices do not share a pattern")
    require_compatible(m, x, "matrix and vector")
    analysis = analyze(m.pattern)
    y = _row_preimage(m, analysis, x)
    if y is None:
        raise ValidationError("vector is not in the row space of the source matrix")
    return rank_normalization(n_mat, analysis).apply(y)


def _row_preimage(m: AcyclicMatrix, analysis: Analysis, x: SparseVector):
    """R^-1 x for the row scaling R of m, or None when x is not in the
    row space of m.  R carries the row space of the adjacency matrix A
    onto m's, and row(A) is the orthogonal complement of null(A)."""
    y = rank_normalization(m, analysis).apply_inverse(x)
    null = sparsest_null_basis(analysis, m.field).vectors
    return None if any(y.dot(b) for b in null) else y
