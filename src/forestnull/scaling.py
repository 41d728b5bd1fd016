"""Diagonal scalings that carry the null space and the row space of a
matrix onto those of its pattern's adjacency matrix, and back.

Both scalings are loops over the tree edges s -> t of the pattern,
parent before child; each step sets D[t] from D[s] and the two entries
of the edge, so either scaling costs O(n) field operations.  The null
scaling walks from its own roots with ``_tree_edges``; the row scaling
reuses the preorder the pattern forest stored when it was built.

The null scaling (``transversal_scaling``) roots every component that
has support at its smallest support vertex, the transversal vertex,
with D = 1 there; crossing s -> t multiplies by

    M[s, t]        if t is a support vertex,
    M[t, s]^-1     if s is a support vertex,
    1              otherwise.

Both factors read the entry whose row is the non-support endpoint and
whose column is the support endpoint; that is the one orientation for
which D[w] / D[w'] = M[u, w] / M[u, w'] holds for any two support
neighbors w, w' of a vertex u, which is the identity the null-space
transfer rests on.  Support vertices are never adjacent, so the two
cases cannot collide.  Components without support keep D = 1.  The
row scaling, ``rank.rank_normalization``, runs its own rule over the
stored preorder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .fields import Field, require_same_field
from .forest import Forest
from .kernel import Analysis, analyze, sparsest_null_basis
from .matrix import AcyclicMatrix, Basis, SparseVector, same_pattern


@dataclass(eq=False)
class DiagonalScaling:
    """A nonsingular diagonal matrix: one nonzero scalar per vertex."""

    n: int
    field: Field
    diag: list

    def __post_init__(self):
        if len(self.diag) != self.n:
            raise ValidationError("diagonal length %d != n=%d" % (len(self.diag), self.n))
        for v, x in enumerate(self.diag):
            if not x:
                raise ValidationError("singular scaling: zero diagonal entry at vertex %d" % v)

    def apply(self, x: SparseVector) -> SparseVector:
        self._check_vector(x)
        mul = self.field.mul
        diag = self.diag
        return SparseVector(x.n, x.field,
                            {v: mul(diag[v], xv) for v, xv in x.entries.items()})

    def apply_inverse(self, x: SparseVector) -> SparseVector:
        """D^-1 x, inverting the diagonal only on the support of x."""
        self._check_vector(x)
        mul, inv = self.field.mul, self.field.inv
        diag = self.diag
        return SparseVector(x.n, x.field,
                            {v: mul(inv(diag[v]), xv) for v, xv in x.entries.items()})

    def _check_vector(self, x: SparseVector):
        require_same_field(self.field, x.field, "scaling and vector")
        if x.n != self.n:
            raise ValidationError("dimension mismatch: %d vs %d" % (self.n, x.n))

    def __eq__(self, other):
        return (isinstance(other, DiagonalScaling) and self.n == other.n
                and self.field == other.field and self.diag == other.diag)

    def __repr__(self):
        return "DiagonalScaling(n=%d, field=%s)" % (self.n, self.field.name)


def _tree_edges(f: Forest, roots):
    """Yield (s, t, j) for every tree edge of the components of ``roots``,
    parent s before child t, with j the slot of t in s's row.

    Each component is walked from the first of ``roots`` inside it; later
    roots in an already walked component are skipped.
    """
    neighbors, offsets = f.neighbors, f.offsets
    seen = bytearray(f.vertex_count)
    for r in roots:
        if seen[r]:
            continue
        seen[r] = 1
        stack = [r]
        pop, push = stack.pop, stack.append
        while stack:
            s = pop()
            for j in range(offsets[s], offsets[s + 1]):
                t = neighbors[j]
                if not seen[t]:
                    seen[t] = 1
                    yield s, t, j
                    push(t)


def transversal_scaling(m: AcyclicMatrix, analysis: Analysis) -> DiagonalScaling:
    """The null scaling of m, rooted at the analysis's transversal: D x
    is a null vector of the adjacency matrix for every null vector x of m.
    """
    field = m.field
    mul, inv = field.mul, field.inv
    supp = analysis.support.supp
    row_flat = m.row_flat  # slot j of vertex s: M[s, neighbors[j]]
    col_flat = m.col_flat  # slot j of vertex s: M[neighbors[j], s]
    diag = [field.one] * m.n
    for s, t, j in _tree_edges(m.pattern, analysis.transversal):
        if t in supp:
            diag[t] = mul(diag[s], row_flat[j])
        elif s in supp:
            diag[t] = mul(diag[s], inv(col_flat[j]))
        else:
            diag[t] = diag[s]
    return DiagonalScaling(m.n, field, diag)


def null_basis(m: AcyclicMatrix) -> Basis:
    """Sparsest basis of the null space of m.

    The pattern's {-1, 0, +1} basis is pulled back through the inverse
    transversal scaling; a nonsingular diagonal never changes supports,
    so sparsity carries over.  O(n + total nonzeros) field operations.
    """
    analysis = analyze(m.pattern)
    pattern_basis = sparsest_null_basis(analysis, m.field)
    scaling = transversal_scaling(m, analysis)
    inv, mul = m.field.inv, m.field.mul
    diag = scaling.diag
    inv_cache = {}
    vectors = []
    for vec in pattern_basis.vectors:
        out = {}
        for v, x in vec.entries.items():
            d = inv_cache.get(v)
            if d is None:
                d = inv_cache[v] = inv(diag[v])
            out[v] = mul(d, x)
        vectors.append(SparseVector._trusted(m.n, m.field, out))
    return Basis(vectors)


def transfer_null(m: AcyclicMatrix, n_mat: AcyclicMatrix,
                  x: SparseVector) -> SparseVector:
    """Map a null vector of m to a null vector of n_mat (same pattern).

    Applies m's transversal scaling and then the inverse of n_mat's; the
    support of x is preserved.
    """
    require_same_field(m.field, n_mat.field, "matrices")
    if not same_pattern(m, n_mat):
        raise ValidationError("matrices do not share a pattern")
    if not m.apply(x).is_zero():
        raise ValidationError("vector is not in the null space of the source matrix")
    analysis = analyze(m.pattern)
    d_m = transversal_scaling(m, analysis)
    d_n = transversal_scaling(n_mat, analysis)
    return d_n.apply_inverse(d_m.apply(x))


def restriction_check(m: AcyclicMatrix, x: SparseVector) -> bool:
    """True iff x vanishes outside supp+core and its restriction there is
    annihilated by the matrix induced on supp+core (equivalent to x in
    Null(m))."""
    if x.n != m.n:
        raise ValidationError("dimension mismatch: %d vs %d" % (m.n, x.n))
    require_same_field(m.field, x.field, "matrix and vector")
    s_set = analyze(m.pattern).support.s_set
    if any(v not in s_set for v in x.entries):
        return False
    zero = m.field.zero
    add, mul = m.field.add, m.field.mul
    neighbors, offsets = m.pattern.neighbors, m.pattern.offsets
    row_flat = m.row_flat
    for u in s_set:
        acc = zero
        for j in range(offsets[u], offsets[u + 1]):
            v = neighbors[j]
            if v in s_set:
                acc = add(acc, mul(row_flat[j], x.get(v)))
        if acc:
            return False
    return True
