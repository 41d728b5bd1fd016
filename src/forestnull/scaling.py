"""The diagonal scaling that carries the null space of a matrix onto
that of its pattern's adjacency matrix, and back; and the null basis.

One walk, ``_edge_products``, serves the scaling and both transfers.
It takes the preorder the pattern forest stored when it was built, each
vertex t's parent edge s -> t from ``parent`` and ``parent_slot``, and
keeps D_M / D_N for two matrices on the pattern (D_N = 1 for one
scaling) as two products, num and den: each step multiplies them by
entries of the edge, so the walk costs O(n) multiplications and no
inversion, and a transfer inverts one product per entry of x.

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
    num, den = _edge_products(m, None, analysis)
    mul, inv = m.field.mul, m.field.inv
    # products and inverses of nonzero field elements: nonzero
    return DiagonalScaling._trusted(m.n, m.field, [mul(a, inv(b)) for a, b in zip(num, den)])


def _edge_products(m: AcyclicMatrix, n_mat, analysis: Analysis):
    """num and den with D_m / D_n = num / den (D_n = 1 when n_mat is
    None): a step into a support vertex multiplies them by M[s, t] and
    N[s, t], one out of it by N[t, s] and M[t, s]; a sweep root's seed
    swaps them on the way up."""
    mul, one = m.field.mul, m.field.one
    n_row, n_col = (None, None) if n_mat is None else (n_mat.row_flat, n_mat.col_flat)
    into, out_of = (m.row_flat, n_row), (n_col, m.col_flat)  # None: factors of 1
    supp = analysis.support.supp
    parent, parent_slot = m.pattern.parent, m.pattern.parent_slot
    num, den = [one] * m.n, [one] * m.n
    for v in analysis.transversal:  # seed v's sweep root so that num[v] = den[v] = 1
        a = b = one
        t, s = v, parent[v]
        while s >= 0:
            p, q = into if t in supp else out_of if s in supp else (None, None)
            j = parent_slot[t]
            a = a if q is None else mul(a, q[j])
            b = b if p is None else mul(b, p[j])
            t, s = s, parent[s]
        num[t], den[t] = a, b
    for t in m.pattern.order:
        s = parent[t]
        if s >= 0:
            p, q = into if t in supp else out_of if s in supp else (None, None)
            j = parent_slot[t]
            num[t] = num[s] if p is None else mul(num[s], p[j])
            den[t] = den[s] if q is None else mul(den[s], q[j])
    return num, den


def _scaled(x: SparseVector, num: list, den: list) -> SparseVector:
    """The vector num[v] x_v / den[v], inverting once per entry of x."""
    mul, inv = x.field.mul, x.field.inv
    return SparseVector._trusted(x.n, x.field, {v: mul(mul(num[v], xv), inv(den[v]))
                                                for v, xv in x.entries.items()})


def null_basis(m: AcyclicMatrix) -> Basis:
    """Sparsest basis of the null space of m: for each exposed vertex u of
    ``maximum_matching``, ascending, the null vector that is 1 at u and 0
    at every other exposed vertex (``kernel.sparsest_null_basis``).
    O(n + total nonzeros) field operations."""
    return sparsest_null_basis(m, maximum_matching(m.pattern))


def transfer_null(m: AcyclicMatrix, n_mat: AcyclicMatrix,
                  x: SparseVector) -> SparseVector:
    """Map a null vector of m to a null vector of n_mat (same pattern).

    Applies D_N^-1 D_M for the two matrices' transversal scalings, as
    num / den of ``_edge_products``; the support of x is preserved.
    """
    analysis = _transfer_analysis(m, n_mat, x)
    if not m.apply(x).is_zero():
        raise ValidationError("vector is not in the null space of the source matrix")
    return _scaled(x, *_edge_products(m, n_mat, analysis))


def _transfer_analysis(m: AcyclicMatrix, n_mat: AcyclicMatrix, x: SparseVector) -> Analysis:
    """Both transfers' entry checks, in order: the matrices' field, their
    pattern, x's field and length; then the pattern's one analysis."""
    require_same_field(m.field, n_mat.field, "matrices")
    if m.pattern != n_mat.pattern:
        raise ValidationError("matrices do not share a pattern")
    require_compatible(m, x, "matrix and vector")
    return analyze(m.pattern)
