"""The diagonal scaling that carries the null space of a matrix onto
that of its pattern's adjacency matrix, and back; and the null basis.

The scaling walks the preorder the pattern forest stored when it was
built, taking each vertex t's parent edge s -> t from ``parent`` and
``parent_slot``; each step sets D[t] from D[s] and the two entries of
the edge, so it costs O(n) field operations.

The null scaling (``transversal_scaling``) is anchored, in every
component that has support, at its smallest support vertex, the
transversal vertex, with D = 1 there; crossing s -> t multiplies by

    M[s, t]        if t is a support vertex,
    M[t, s]^-1     if s is a support vertex,
    1              otherwise.

Both factors read the entry whose row is the non-support endpoint and
whose column is the support endpoint; that is the one orientation for
which D[w] / D[w'] = M[u, w] / M[u, w'] holds for any two support
neighbors w, w' of a vertex u, which is the identity the null-space
transfer rests on.  Support vertices are never adjacent, so the two
cases cannot collide.  The rule gives the same ratio D[t] / D[s] read
from either end of an edge, so the walk may start anywhere: it seeds
each component's sweep root with the product of the inverse factors on
the way up from the transversal vertex, which makes D = 1 at the
transversal vertex.  Components without support keep D = 1.  The
same D serves row spaces, in the reverse direction (``rank``): the row
space is the orthogonal complement of the null space, so D^-1 carries
row(M) onto row(A).

A ``DiagonalScaling`` coerces each diagonal value into its field and
refuses a zero one, so it is nonsingular by construction.

``null_basis`` builds no scaling: each step of its walk is fixed by one
row of M, and every vector is 1 at its exposed vertex instead of
carrying D's edge product from the transversal vertex.
"""

from __future__ import annotations

from .errors import ValidationError
from .fields import Field, require_same_field
from .kernel import Analysis, analyze, maximum_matching, sparsest_null_basis
from .matrix import AcyclicMatrix, Basis, SparseVector, require_compatible


class DiagonalScaling:
    """A nonsingular diagonal matrix: one nonzero scalar per vertex."""

    __slots__ = ("n", "field", "diag")

    def __init__(self, n: int, field: Field, diag: list):
        if len(diag) != n:
            raise ValidationError("diagonal length %d != n=%d" % (len(diag), n))
        diag = list(map(field.coerce, diag))
        if not all(diag):
            raise ValidationError("singular scaling: zero diagonal entry at vertex %d",
                                  diag.index(field.zero))
        self.n = n
        self.field = field
        self.diag = diag

    @classmethod
    def _trusted(cls, n: int, field: Field, diag: list) -> "DiagonalScaling":
        """A scaling from n nonzero field elements, without the checks
        of the constructor."""
        scaling = cls.__new__(cls)
        scaling.n = n
        scaling.field = field
        scaling.diag = diag
        return scaling

    def apply(self, x: SparseVector) -> SparseVector:
        """D x: a product of nonzero field elements is nonzero, so the
        entries of D x and D^-1 x need none of the constructor's checks."""
        require_compatible(self, x, "scaling and vector")
        mul = self.field.mul
        diag = self.diag
        return SparseVector._trusted(x.n, x.field,
                                     {v: mul(diag[v], xv) for v, xv in x.entries.items()})

    def apply_inverse(self, x: SparseVector) -> SparseVector:
        """D^-1 x, inverting the diagonal only on the support of x."""
        require_compatible(self, x, "scaling and vector")
        mul, inv = self.field.mul, self.field.inv
        diag = self.diag
        return SparseVector._trusted(x.n, x.field,
                                     {v: mul(inv(diag[v]), xv) for v, xv in x.entries.items()})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.field, self.diag) == (other.n, other.field, other.diag)

    def __repr__(self):
        return "DiagonalScaling(n=%d, field=%s)" % (self.n, self.field.name)


def transversal_scaling(m: AcyclicMatrix, analysis: Analysis) -> DiagonalScaling:
    """The null scaling of m, anchored at the analysis's transversal: D x
    is a null vector of the adjacency matrix for every null vector x of m.
    """
    field = m.field
    mul, inv = field.mul, field.inv
    supp = analysis.support.supp
    row_flat = m.row_flat  # slot j of vertex s: M[s, neighbors[j]]
    col_flat = m.col_flat  # slot j of vertex s: M[neighbors[j], s]
    f = m.pattern
    parent, parent_slot = f.parent, f.parent_slot
    diag = [field.one] * m.n
    for v in analysis.transversal:  # seed v's sweep root so that D[v] = 1
        d = field.one
        t, s = v, parent[v]
        while s >= 0:
            j = parent_slot[t]
            if t in supp:
                d = mul(d, inv(row_flat[j]))
            elif s in supp:
                d = mul(d, col_flat[j])
            t, s = s, parent[s]
        diag[t] = d
    for t in f.order:
        s = parent[t]
        if s < 0:
            continue
        j = parent_slot[t]
        if t in supp:
            diag[t] = mul(diag[s], row_flat[j])
        elif s in supp:
            diag[t] = mul(diag[s], inv(col_flat[j]))
        else:
            diag[t] = diag[s]
    # products and inverses of nonzero field elements: nonzero
    return DiagonalScaling._trusted(m.n, field, diag)


def null_basis(m: AcyclicMatrix) -> Basis:
    """Sparsest basis of the null space of m: for each exposed vertex u of
    ``maximum_matching``, ascending, the null vector that is 1 at u and 0
    at every other exposed vertex (``kernel.sparsest_null_basis``).
    O(n + total nonzeros) field operations."""
    return sparsest_null_basis(m, maximum_matching(m.pattern))


def transfer_null(m: AcyclicMatrix, n_mat: AcyclicMatrix,
                  x: SparseVector) -> SparseVector:
    """Map a null vector of m to a null vector of n_mat (same pattern).

    Applies m's transversal scaling and then the inverse of n_mat's; the
    support of x is preserved.
    """
    analysis = _transfer_analysis(m, n_mat, x)
    if not m.apply(x).is_zero():
        raise ValidationError("vector is not in the null space of the source matrix")
    d_m = transversal_scaling(m, analysis)
    d_n = transversal_scaling(n_mat, analysis)
    return d_n.apply_inverse(d_m.apply(x))


def _transfer_analysis(m: AcyclicMatrix, n_mat: AcyclicMatrix, x: SparseVector) -> Analysis:
    """Both transfers' entry checks, in order: the matrices' field, their
    pattern, x's field and length; then the pattern's one analysis."""
    require_same_field(m.field, n_mat.field, "matrices")
    if m.pattern != n_mat.pattern:
        raise ValidationError("matrices do not share a pattern")
    require_compatible(m, x, "matrix and vector")
    return analyze(m.pattern)
