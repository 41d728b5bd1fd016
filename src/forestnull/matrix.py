"""Zero-diagonal matrices whose nonzero pattern is a forest.

An ``AcyclicMatrix`` stores both orientations of every edge explicitly:
the (u, v) and (v, u) entries are independent values, only the *pattern*
has to be symmetric.  Values live in flat arrays aligned with the
pattern's CSR neighbor array: slot j holds the row-side entry
M[v, neighbors[j]] in ``row_flat`` and the column-side entry
M[neighbors[j], v] in ``col_flat`` for the vertex v owning slot j.
Instances are immutable after construction, so ``transpose`` shares
both arrays with the matrix it swaps them from.

``from_entries`` sorts the triples once.  In row-major order they are
the CSR layout itself: ``_row_major_csr``, shared with ``build_forest``,
takes the neighbor array from the columns and the offsets from the row
counts, and the values are ``row_flat``.  One pass of a cursor per row
places the column-side values and checks symmetry on the way; the
pattern forest is then indexed by the component sweep, also shared,
without a second sort.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field as dc_field

from .errors import ValidationError
from .fields import Field, QQ, require_same_field
from .forest import (Forest, _find_cycle_edge, _indexed_forest, _refuse_non_integer_ids,
                     _row_major_csr)

#: Largest vertex count: the CSR arrays hold vertex ids as C ints.
MAX_VERTICES = 2 ** 31 - 1


def require_compatible(a, b, what: str):
    """Refuse two vectors, matrices or scalings over different fields or lengths."""
    require_same_field(a.field, b.field, what)
    if a.n != b.n:
        raise ValidationError("dimension mismatch: %d vs %d" % (a.n, b.n))


@dataclass
class SparseVector:
    """Vertex-indexed vector storing only its nonzero coordinates."""

    n: int
    field: Field
    entries: dict  # vertex -> nonzero field element

    def __post_init__(self):
        bad = [v for v in self.entries if not (0 <= v < self.n)]
        if bad:
            raise ValidationError("vector index %r out of range for n=%d" % (bad[0], self.n))
        self.entries = {v: x for v, x in self.entries.items() if x}

    @classmethod
    def _trusted(cls, n: int, field: Field, entries: dict) -> "SparseVector":
        """A vector from entries already known to be in range and
        nonzero, without the checks of the constructor."""
        vec = cls.__new__(cls)
        vec.n = n
        vec.field = field
        vec.entries = entries
        return vec

    def support(self) -> frozenset:
        return frozenset(self.entries)

    def get(self, v: int):
        return self.entries.get(v, self.field.zero)

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def scale(self, c) -> "SparseVector":
        if not c:
            return SparseVector(self.n, self.field, {})
        mul = self.field.mul
        return SparseVector(self.n, self.field,
                            {v: mul(x, c) for v, x in self.entries.items()})

    def dot(self, other: "SparseVector"):
        require_compatible(self, other, "vectors")
        small, big = self.entries, other.entries
        if len(big) < len(small):
            small, big = big, small
        acc = self.field.zero
        add, mul = self.field.add, self.field.mul
        for v, x in small.items():
            y = big.get(v)
            if y is not None:
                acc = add(acc, mul(x, y))
        return acc

    def add(self, other: "SparseVector") -> "SparseVector":
        require_compatible(self, other, "vectors")
        out = dict(self.entries)
        addop = self.field.add
        zero = self.field.zero
        for v, y in other.entries.items():
            s = addop(out.get(v, zero), y)
            if s:
                out[v] = s
            else:
                out.pop(v, None)
        return SparseVector(self.n, self.field, out)

    def __repr__(self):
        inside = ", ".join("%d: %s" % (v, self.field.format(x))
                           for v, x in sorted(self.entries.items()))
        return "SparseVector(n=%d, {%s})" % (self.n, inside)


@dataclass(eq=True)
class Basis:
    """An ordered, linearly independent list of sparse vectors."""

    vectors: list
    dimension: int = dc_field(init=False)
    total_nonzeros: int = dc_field(init=False)

    def __post_init__(self):
        self.dimension = len(self.vectors)
        self.total_nonzeros = sum(vec.nnz() for vec in self.vectors)


class AcyclicMatrix:
    """Square matrix over an exact field, zero diagonal, forest pattern."""

    __slots__ = ("n", "field", "pattern", "row_flat", "col_flat")

    def __init__(self, n: int, field: Field, pattern: Forest,
                 row_flat: list, col_flat: list):
        self.n = n
        self.field = field
        self.pattern = pattern
        self.row_flat = row_flat
        self.col_flat = col_flat

    @classmethod
    def from_entries(cls, n: int, triples, field: Field = QQ) -> "AcyclicMatrix":
        """Build and validate a matrix from (row, col, value) triples.

        Rejects non-integer vertex ids, diagonal entries, explicit zeros,
        duplicate positions, asymmetric patterns and cyclic patterns.
        """
        coerce = field.coerce
        is_canonical = field.is_canonical
        items = []
        append = items.append
        u = v = 0
        try:
            for t in triples:
                u, v, value = t
                if not (0 <= u < n and 0 <= v < n):
                    raise ValidationError("entry (%r, %r) out of range for n=%d" % (u, v, n))
                if u == v:
                    raise ValidationError("nonzero diagonal entry at vertex %d" % u)
                if is_canonical(value):
                    if not value:
                        raise ValidationError("explicit zero entry at (%d, %d)" % (u, v))
                    append(t if type(t) is tuple else (u, v, value))
                else:
                    x = coerce(value)
                    if not x:
                        raise ValidationError("explicit zero entry at (%d, %d)" % (u, v))
                    append((u, v, x))
            if n < 0:
                raise ValidationError("vertex count must be non-negative")
            if n > MAX_VERTICES:
                raise ValidationError("vertex count %d exceeds the limit of %d"
                                      % (n, MAX_VERTICES))
            items.sort()
            neighbors, offsets = _row_major_csr(n, items, "duplicate entry at (%d, %d)")
        except TypeError:
            _refuse_non_integer_ids(items + [(u, v)])
            raise
        col_flat = _column_side(items, neighbors, offsets)
        if col_flat is None:
            lower = [(u, v) for u, v, _ in items if u < v]
            if 2 * len(lower) == len(items):  # a cycle is reported before asymmetry
                cycle = _find_cycle_edge(n, lower)
                if cycle is not None:
                    raise ValidationError("cycle detected at edge (%d, %d)" % cycle)
            _raise_asymmetric(items, lower)
        pattern = _indexed_forest(n, neighbors, offsets)
        return cls(n, field, pattern, [x for _, _, x in items], col_flat)

    def nnz(self) -> int:
        return len(self.row_flat)

    def apply(self, x: SparseVector) -> SparseVector:
        """Exact product M x; touches only the entries next to supp(x)."""
        require_compatible(self, x, "matrix and vector")
        zero = self.field.zero
        add, mul = self.field.add, self.field.mul
        neighbors, offsets = self.pattern.neighbors, self.pattern.offsets
        col_flat = self.col_flat
        out = {}
        for v, xv in x.entries.items():
            for j in range(offsets[v], offsets[v + 1]):
                u = neighbors[j]
                term = mul(col_flat[j], xv)
                s = add(out.get(u, zero), term)
                if s:
                    out[u] = s
                else:
                    out.pop(u, None)
        return SparseVector._trusted(self.n, self.field, out)

    def transpose(self) -> "AcyclicMatrix":
        return AcyclicMatrix(self.n, self.field, self.pattern,
                             self.col_flat, self.row_flat)

    def row_items(self, u: int):
        """(column, value) pairs of row u, columns ascending."""
        lo, hi = self.pattern.offsets[u], self.pattern.offsets[u + 1]
        return zip(self.pattern.neighbors[lo:hi], self.row_flat[lo:hi])

    def col_items(self, v: int):
        """(row, value) pairs of column v, rows ascending."""
        lo, hi = self.pattern.offsets[v], self.pattern.offsets[v + 1]
        return zip(self.pattern.neighbors[lo:hi], self.col_flat[lo:hi])

    def __eq__(self, other):
        return (isinstance(other, AcyclicMatrix) and self.field == other.field
                and self.pattern == other.pattern and self.row_flat == other.row_flat)

    def __repr__(self):
        return "AcyclicMatrix(n=%d, nnz=%d, field=%s)" % (self.n, self.nnz(), self.field.name)


def _column_side(items, neighbors, offsets):
    """The column-side values of row-major sorted entries, aligned with
    their slots, or None when the pattern is not symmetric.

    Entry (u, v) belongs in the slot of u in v's row.  Rows come in
    ascending order, so one cursor per row v meets v's neighbors in turn.
    The pattern is symmetric iff every cursor finds u where it points
    and ends exactly at the end of its row (so none ever left it).
    """
    col_flat = [None] * len(items)
    cursor = array("i", offsets)
    try:
        for u, v, x in items:
            k = cursor[v]
            if neighbors[k] != u:
                return None
            col_flat[k] = x
            cursor[v] = k + 1
    except IndexError:  # a cursor ran past the last row
        return None
    if cursor[:-1] != offsets[1:]:
        return None
    return col_flat


def _raise_asymmetric(items, lower):
    lo = set(lower)
    hi = {(v, u) for u, v, _ in items if u > v}
    only_lo = lo - hi
    if only_lo:
        a, b = min(only_lo)
    else:
        b, a = min(hi - lo)
    raise ValidationError(
        "asymmetric pattern: entry (%d, %d) present but (%d, %d) missing"
        % (a, b, b, a))


def adjacency_matrix(f: Forest, field: Field = QQ) -> AcyclicMatrix:
    """The matrix with a 1 at both orientations of every edge of f."""
    ones = [field.one] * len(f.neighbors)
    return AcyclicMatrix(f.vertex_count, field, f, ones, list(ones))


def same_pattern(m: AcyclicMatrix, n_mat: AcyclicMatrix) -> bool:
    return m.pattern == n_mat.pattern
