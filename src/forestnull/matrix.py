"""Zero-diagonal matrices whose nonzero pattern is a forest.

An ``AcyclicMatrix`` stores both orientations of every edge explicitly:
the (u, v) and (v, u) entries are independent values, only the *pattern*
has to be symmetric.  Values live in flat arrays aligned with the
pattern's CSR neighbor array: slot j holds the row-side entry
M[v, neighbors[j]] in ``row_flat`` and the column-side entry
M[neighbors[j], v] in ``col_flat`` for the vertex v owning slot j.
Instances are immutable after construction, so ``transpose`` shares
both arrays with the matrix it swaps them from.

``from_entries`` alone decides what a valid entry is; ``build_forest``
calls it with unit values.  It sorts the triples once: in row-major
order the columns are the neighbor array and the values ``row_flat``,
and the duplicate scan records each row's first slot, which
``_row_offsets`` turns into the offsets, as it does for the Matrix
Market reader's row-major files.  Both end in ``_from_csr``: the
component sweep indexes the pattern forest and pairs the two slots of
every edge, which proves the pattern symmetric, and writes
``col_flat``: each value of ``row_flat`` at the twin of its slot.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import index

from . import fields
from .errors import ValidationError
from .fields import Field, require_same_field
from .forest import Forest, _indexed_forest

#: Largest vertex count: the CSR arrays hold vertex ids as C ints.
MAX_VERTICES = 2 ** 31 - 1


def require_compatible(a, b, what: str):
    """Refuse two vectors, matrices or scalings over different fields or lengths."""
    require_same_field(a.field, b.field, what)
    if a.n != b.n:
        raise ValidationError("dimension mismatch: %d vs %d" % (a.n, b.n))


class SparseVector:
    """Vertex-indexed vector storing only its nonzero coordinates.

    The constructor refuses a length n that is not a non-negative
    integer and an id that is not an integer in [0, n), and coerces each
    value into the field, dropping the zeros."""

    __slots__ = ("n", "field", "entries")

    def __init__(self, n: int, field: Field, entries: dict):
        try:
            length = index(n)
        except TypeError:
            length = -1
        if length < 0:
            raise ValidationError("vector length must be a non-negative integer, got %r"
                                  % (n,))
        n = length
        coerce = field.coerce
        checked = {}
        for v, x in entries.items():
            v = _vertex_id(v)
            if not 0 <= v < n:
                raise ValidationError("vector index %r out of range for n=" + str(n), v)
            x = coerce(x)
            if x:
                checked[v] = x
        self.n = n
        self.field = field
        self.entries = checked  # vertex -> nonzero field element

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.field, self.entries) == (other.n, other.field, other.entries)

    def __repr__(self):
        inside = ", ".join("%d: %s" % (v, self.field.format(x))
                           for v, x in sorted(self.entries.items()))
        return "SparseVector(n=%d, {%s})" % (self.n, inside)


class Basis:
    """An ordered, linearly independent list of sparse vectors."""

    __slots__ = ("vectors", "dimension")

    def __init__(self, vectors: list):
        self.vectors = vectors
        self.dimension = len(vectors)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vectors == other.vectors

    def __repr__(self):
        return "Basis(vectors=%r, dimension=%d)" % (self.vectors, self.dimension)


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
    def from_entries(cls, n: int, triples, field: Field = None) -> "AcyclicMatrix":
        """Build and validate a matrix from (row, col, value) triples
        over ``field``, QQ by default.

        Rejects non-integer vertex ids, diagonal entries, explicit zeros,
        duplicate positions, asymmetric patterns and cyclic patterns.
        """
        field = fields.QQ if field is None else field
        coerce = field.coerce
        items = []
        append = items.append
        u = v = 0
        try:
            for t in triples:
                try:
                    u, v, value = t
                except (TypeError, ValueError):
                    raise _malformed(t, "(row, column, value)") from None
                if not (0 <= u < n and 0 <= v < n):
                    raise ValidationError("entry (%r, %r) out of range for n=" + str(n), u, v)
                if u == v:
                    raise ValidationError("nonzero diagonal entry at vertex %d", u)
                x = coerce(value)
                if not x:
                    raise ValidationError("explicit zero entry at (%d, %d)", u, v)
                append(t if x is value and type(t) is tuple else (u, v, x))
            if n < 0:
                raise ValidationError("vertex count must be non-negative")
            if n > MAX_VERTICES:
                raise ValidationError("vertex count %d exceeds the limit of %d"
                                      % (n, MAX_VERTICES))
            items.sort()
            heads, starts = [], []  # the rows with entries, ascending, and their first slots
            head = prev = -1
            for j, (u, v, _) in enumerate(items):
                if index(u) != head:  # row ids reach no int array that would refuse 1.0
                    heads.append(u)
                    starts.append(j)
                    head = u
                elif v == prev:
                    raise ValidationError("duplicate entry at (%d, %d)", u, v)
                prev = v
            neighbors = array("i", [t[1] for t in items])
        except TypeError:  # name the first id that is not an integer, if any
            for t in items + [(u, v)]:
                _vertex_id(t[0])
                _vertex_id(t[1])
            raise
        return cls._from_csr(n, field, neighbors, _row_offsets(n, heads, starts, len(items)),
                             [x for _, _, x in items])

    @classmethod
    def _from_csr(cls, n: int, field: Field, neighbors, offsets,
                  row_flat: list, pattern: Forest = None) -> "AcyclicMatrix":
        """The matrix whose row-major CSR arrays hold entries already
        checked one by one; the component sweep refuses an asymmetric or
        cyclic pattern.  A ``pattern`` of this very layout, which its own
        sweep proved, is shared instead, and no sweep runs."""
        if pattern is None or pattern.offsets != offsets or pattern.neighbors != neighbors:
            pattern, col_flat = _indexed_forest(n, neighbors, offsets, row_flat)
        else:  # the twin of the slot k of t in its parent's row is the slot j of s
            col_flat = [None] * len(row_flat)
            for t, s, k in zip(range(n), pattern.parent, pattern.parent_slot):
                if s >= 0:
                    j = neighbors.index(s, offsets[t], offsets[t + 1])
                    col_flat[j], col_flat[k] = row_flat[k], row_flat[j]
        return cls(n, field, pattern, row_flat, col_flat)

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


def _vertex_id(x) -> int:
    """x as a vertex id; refuses a value that is not an integer."""
    try:
        return index(x)
    except TypeError:
        raise ValidationError("vertex ids must be integers, got %r" % (x,)) from None


def _malformed(entry, shape: str) -> ValidationError:
    """The error naming an entry that does not unpack to shape."""
    return ValidationError("malformed entry %r: expected %s" % (entry, shape))


def _row_offsets(n: int, heads: list, starts: list, nnz: int) -> array:
    """CSR offsets of n rows, from the rows that hold entries, ascending,
    and their first slots."""
    if len(heads) == n:  # then heads is 0, 1, ..., n - 1
        offsets = array("i", starts)
        offsets.append(nnz)
        return offsets
    offsets = array("i")
    for u, s in zip(heads, starts):
        offsets.extend(repeat(s, u + 1 - len(offsets)))
    offsets.extend(repeat(nnz, n + 1 - len(offsets)))
    return offsets


def adjacency_matrix(f: Forest, field: Field = None) -> AcyclicMatrix:
    """The matrix with a 1 at both orientations of every edge of f, over
    ``field``, QQ by default."""
    field = fields.QQ if field is None else field
    ones = [field.one] * len(f.neighbors)
    return AcyclicMatrix(f.vertex_count, field, f, ones, list(ones))
