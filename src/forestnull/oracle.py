"""Brute-force ground truth, algorithmically independent of the fast path.

Exact Gauss-Jordan elimination to reduced row echelon form, a tree-DP
matching number, exhaustive independent-set enumeration, and a
minimum-total-support search over column subsets.  Nothing here shares
matching/support/scaling code with the rest of the package; it exists
to catch systematic bugs and is wired into tests, the CLI's cross-check
paths, and ``matrixio.parse_basis``, whose independence check inserts
each vector read into an ``_Echelon``.

Cost: the elimination touches only nonzeros.  A column -> rows
incidence names, for each pivot column, the rows that hold it, and
only those rows are eliminated, so an input that barely fills in (a
forest matrix) costs about its fill, not n^2 probes.  The reduced
echelon form is unique, so the result does not depend on which row is
taken as pivot.  Span tests reduce a vector by the stored pivots it
actually holds, taken from a heap in ascending order.

Size caps: the elimination routines refuse instances above
``ORACLE_BOUND`` (512 vertices); the exponential searches have their
own hard caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import OracleBoundError
from .forest import Forest
from .matrix import AcyclicMatrix, Basis, SparseVector

ORACLE_BOUND = 512
MIN_SUPPORT_BOUND = 10
MIS_BOUND = 12


def _check_bound(n: int, cap: int, what: str):
    if n > cap:
        raise OracleBoundError("%s limited to n <= %d, got n = %d" % (what, cap, n))


def _rref(rows, n_cols, field):
    """Reduced row echelon form of sparse dict rows, reduced in place.

    Columns are taken left to right.  A column -> rows incidence, kept
    up to date as entries appear and cancel, names the rows holding
    each column: the pivot is the lowest-index unused one, and only the
    others in the incidence are eliminated.  Returns the pivot rows in
    pivot order and the pivot columns.
    """
    inv, mul, sub, neg = field.inv, field.mul, field.sub, field.neg
    holders = [set() for _ in range(n_cols)]
    for r, row in enumerate(rows):
        for k in row:
            holders[k].add(r)
    used = [False] * len(rows)
    pivot_rows, pivots = [], []
    for c in range(n_cols):
        p = min((r for r in holders[c] if not used[r]), default=-1)
        if p < 0:
            continue
        used[p] = True
        prow = rows[p]
        scale = inv(prow[c])
        for k in prow:
            prow[k] = mul(prow[k], scale)
        for r in [r for r in holders[c] if r != p]:
            row = rows[r]
            coef = row[c]
            for k, v in prow.items():
                old = row.get(k)
                if old is None:
                    row[k] = neg(mul(coef, v))
                    holders[k].add(r)
                    continue
                s = sub(old, mul(coef, v))
                if s:
                    row[k] = s
                else:
                    del row[k]
                    holders[k].discard(r)
        pivot_rows.append(prow)
        pivots.append(c)
    return pivot_rows, pivots


def _null_vectors(rref_rows, pivots, n_cols, field):
    """The null vectors of a reduced echelon form, one per free column
    fc: 1 at fc, then -coef at the pivot of each row holding fc, in
    ascending pivot order.  Read off the rows in one pass."""
    pivot_set = set(pivots)
    one, neg = field.one, field.neg
    vectors = {c: {c: one} for c in range(n_cols) if c not in pivot_set}
    for row, pc in zip(rref_rows, pivots):
        for k, coef in row.items():
            if k != pc:
                vectors[k][pc] = neg(coef)
    return list(vectors.values())


def _matrix_rows(m: AcyclicMatrix):
    return [dict(m.row_items(u)) for u in range(m.n)]


@dataclass
class DenseAnalysis:
    null_basis: Basis
    row_basis: Basis
    rank: int
    null_support: frozenset


def dense_analysis(m: AcyclicMatrix) -> DenseAnalysis:
    """One elimination, all the derived data."""
    _check_bound(m.n, ORACLE_BOUND, "dense elimination oracle")
    n, field = m.n, m.field
    rref_rows, pivots = _rref(_matrix_rows(m), n, field)
    null_vectors = [SparseVector._trusted(n, field, entries)
                    for entries in _null_vectors(rref_rows, pivots, n, field)]
    row_vectors = [SparseVector._trusted(n, field, row) for row in rref_rows]
    null_support = frozenset(v for vec in null_vectors for v in vec.entries)
    return DenseAnalysis(Basis(null_vectors), Basis(row_vectors), len(pivots), null_support)


def dense_null_space(m: AcyclicMatrix) -> Basis:
    return dense_analysis(m).null_basis


def dense_row_space(m: AcyclicMatrix) -> Basis:
    return dense_analysis(m).row_basis


def rank(m: AcyclicMatrix) -> int:
    return dense_analysis(m).rank


class _Echelon:
    """Incremental echelon form used for independence and span tests."""

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot index -> normalized row dict

    def reduce(self, vec: SparseVector) -> dict:
        """vec minus its multiples of the stored rows, in ascending pivot
        order.  A heap holds the pivots present in the work vector; a
        row stored at p has keys >= p, so a pivot that elimination
        brings in is always larger than the one being removed."""
        field = self.field
        mul, sub, neg = field.mul, field.sub, field.neg
        rows = self.rows
        work = dict(vec.entries)
        heap = [p for p in work if p in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            coef = work.get(p)
            if coef is None:
                continue
            for k, v in rows[p].items():
                old = work.get(k)
                if old is None:
                    work[k] = neg(mul(coef, v))
                    if k in rows:
                        heappush(heap, k)
                    continue
                s = sub(old, mul(coef, v))
                if s:
                    work[k] = s
                else:
                    del work[k]
        return work

    def insert(self, vec: SparseVector) -> bool:
        """Add vec if independent of what is already here."""
        work = self.reduce(vec)
        if not work:
            return False
        p = min(work)
        inv = self.field.inv
        mul = self.field.mul
        scale = inv(work[p])
        self.rows[p] = {k: mul(v, scale) for k, v in work.items()}
        return True

    def contains(self, vec: SparseVector) -> bool:
        return not self.reduce(vec)


def same_span(a: Basis, b: Basis) -> bool:
    """Mutual membership of two bases' span, by exact reduction."""
    if a.dimension != b.dimension:
        return False
    if a.dimension == 0:
        return True
    field = a.vectors[0].field
    ech_a, ech_b = _Echelon(field), _Echelon(field)
    for vec in a.vectors:
        ech_a.insert(vec)
    for vec in b.vectors:
        ech_b.insert(vec)
    return (all(ech_b.contains(vec) for vec in a.vectors)
            and all(ech_a.contains(vec) for vec in b.vectors))


def min_support_total(m: AcyclicMatrix) -> int:
    """Minimum total nonzero count over all bases of the null space.

    Solves the restricted system for every column subset in increasing
    size and greedily keeps independent vectors; by the matroid greedy
    argument the selected basis minimizes the summed support sizes.
    """
    _check_bound(m.n, MIN_SUPPORT_BOUND, "minimum-support search")
    field = m.field
    target = m.n - dense_analysis(m).rank
    if target == 0:
        return 0
    ech = _Echelon(field)
    total = 0
    found = 0
    for size in range(1, m.n + 1):
        for cols in combinations(range(m.n), size):
            rows = [{} for _ in range(m.n)]
            for j, c in enumerate(cols):
                for u, x in m.col_items(c):
                    rows[u][j] = x
            rref_rows, pivots = _rref(rows, size, field)
            for local in _null_vectors(rref_rows, pivots, size, field):
                entries = {cols[j]: x for j, x in local.items()}
                vec = SparseVector(m.n, field, entries)
                if ech.insert(vec):
                    total += vec.nnz()
                    found += 1
                    if found == target:
                        return total
    return total


def _dp_matching_number(adjacency: list, skip: int = -1) -> int:
    """Matching number of the forest with these per-vertex neighbor
    lists, by subtree DP (independent of the greedy code)."""
    n = len(adjacency)
    state = [0] * n  # 0 new, 1 opened, 2 done
    if skip >= 0:
        state[skip] = 2
    unmatched = [0] * n  # best size with the vertex left unmatched
    best = [0] * n       # best size, vertex free to match a child
    total = 0
    for r in range(n):
        if state[r] != 0:
            continue
        stack = [(r, -1)]
        while stack:
            v, parent = stack[-1]
            if state[v] == 0:
                state[v] = 1
                for c in adjacency[v]:
                    if c != parent and state[c] == 0:
                        stack.append((c, v))
            else:
                stack.pop()
                state[v] = 2
                base = 0
                gain = 0
                for c in adjacency[v]:
                    if c == parent or (skip >= 0 and c == skip):
                        continue
                    base += best[c]
                    g = 1 + unmatched[c] - best[c]
                    if g > gain:
                        gain = g
                unmatched[v] = base
                best[v] = base + gain
        total += best[r]
    return total


def support_by_matching(f: Forest) -> frozenset:
    """{v : deleting v does not drop the matching number}."""
    adjacency = f.adjacency
    nu = _dp_matching_number(adjacency)
    return frozenset(v for v in range(f.vertex_count)
                     if _dp_matching_number(adjacency, skip=v) == nu)


def support_by_mis(f: Forest) -> frozenset:
    """Intersection of all maximum independent sets, by exhaustive
    enumeration of the independent sets."""
    n = f.vertex_count
    _check_bound(n, MIS_BOUND, "independent-set enumeration")
    if n == 0:
        return frozenset()
    nbr = [0] * n
    for u, v in f.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    state = {"best": -1, "inter": 0}

    def explore(i, chosen, size):
        if size + (n - i) < state["best"]:
            return
        if i == n:
            if size > state["best"]:
                state["best"] = size
                state["inter"] = chosen
            elif size == state["best"]:
                state["inter"] &= chosen
            return
        if not (chosen & nbr[i]):
            explore(i + 1, chosen | (1 << i), size + 1)
        explore(i + 1, chosen, size)

    explore(0, 0, 0)
    inter = state["inter"]
    return frozenset(v for v in range(n) if inter >> v & 1)
