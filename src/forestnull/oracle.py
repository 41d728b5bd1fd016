"""Brute-force ground truth, algorithmically independent of the fast path.

Exact elimination of sparse rows, a tree-DP matching number, exhaustive
independent-set enumeration, and a minimum-total-support search over
column subsets.  Nothing here shares matching/support/scaling code with
the rest of the package, nor imports ``kernel``, ``scaling`` or
``rank``; it exists to catch systematic bugs and is wired into tests,
the CLI's ``--check`` (the certificate) and ``oracle`` commands, and
``matrixio.parse_basis``, whose independence check is
``first_dependent``.

A certificate (``certifies_span``) alone decides the CLI's ``--check``,
with no elimination, at any n: r vertices paired along stored entries
prove rank >= r, and n - r null vectors that peel, each of which it
finds annihilated by M itself, prove rank <= r.  It trusts no claim of
the caller, and the CLI refuses a run it does not certify.

Cost: the one elimination, ``_Echelon``, reduces a vector only by the
pivots it holds, so a forest matrix, which barely fills in, costs about
its fill; the reduced form is unique, so ``dense_analysis`` does not
depend on the order rows go in.  Independence tests peel first
(``first_dependent``), and the certificate costs O(n + nonzeros).

Size caps: the elimination routines refuse instances above
``ORACLE_BOUND`` (512 vertices); the exponential searches have their
own hard caps.
"""

from __future__ import annotations

from collections import namedtuple
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
    """Reduced row echelon form of sparse dict rows, which are left as
    they are: each row goes into one ``_Echelon``, shortest first (a
    leaf's row is a unit vector, so the rows after it lose its column
    with no fill), then, last pivot first, a stored row's tail is
    reduced by the rows after it, already reduced, and the row is set
    back to 1 at its pivot.  Returns the rows and their pivots, in
    ascending pivot order."""
    echelon = _Echelon(field)
    for row in sorted(rows, key=len):
        echelon.insert(SparseVector._trusted(n_cols, field, row))
    stored, one = echelon.rows, field.one
    pivots = sorted(stored)
    for p in reversed(pivots):
        tail = stored[p]
        del tail[p]
        stored[p] = {p: one, **echelon.reduce(SparseVector._trusted(n_cols, field, tail))}
    return [stored[p] for p in pivots], pivots


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


#: What one elimination of m's rows yields: the bases of its null space
#: and row space, its rank, and the vertices its null space reaches.
DenseAnalysis = namedtuple("DenseAnalysis", "null_basis row_basis rank null_support")


def row_echelon(m: AcyclicMatrix) -> "_Echelon":
    """An echelon form of m's rows: they go into one ``_Echelon``,
    shortest first as in ``_rref``, whose rows are then keyed by pivot,
    ascending.  Its rank is ``len(rows)``, and ``contains`` tests
    row-space membership."""
    _check_bound(m.n, ORACLE_BOUND, "dense elimination oracle")
    echelon = _Echelon(m.field)
    for row in sorted(_matrix_rows(m), key=len):
        echelon.insert(SparseVector._trusted(m.n, m.field, row))
    echelon.rows = dict(sorted(echelon.rows.items()))
    return echelon


def dense_analysis(m: AcyclicMatrix) -> DenseAnalysis:
    """One elimination to the reduced form, all the derived data."""
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


class _Echelon:
    """The oracle's one elimination: an echelon form built a vector at a
    time, whose row stored at p is 1 at p and has keys >= p."""

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


def _peel(supports, n: int) -> list:
    """The indices, ascending, of the supports left after peeling:
    removing, again and again, one that holds a coordinate no other
    remaining one holds.  A support lists the coordinates, in [0, n),
    of a vector's nonzero entries (its ``entries``).  A vector peeled
    so has coefficient 0 in every linear dependency among the
    vectors, so every dependency lies among those left, and none are
    left when the vectors peel completely, which proves them
    independent.  A count of the remaining holders of each coordinate,
    and the xor of their indices, name the holder once the count is 1.
    O(n + total nonzeros)."""
    count, owners = [0] * n, [0] * n
    for i, support in enumerate(supports):
        for v in support:
            count[v] += 1
            owners[v] ^= i
    left = [True] * len(supports)
    lone = [v for v, k in enumerate(count) if k == 1]
    while lone:
        w = lone.pop()
        if count[w] != 1:
            continue
        i = owners[w]
        left[i] = False
        for v in supports[i]:
            count[v] -= 1
            owners[v] ^= i
            if count[v] == 1:
                lone.append(v)
    return [i for i, keep in enumerate(left) if keep]


def first_dependent(field, vectors) -> int:
    """The index of the first vector that depends on the vectors before
    it, or -1 when they are independent.  The vectors left by ``_peel``
    hold every dependency, so inserting only them, in order, into one
    ``_Echelon`` rejects the same first vector as inserting all of
    them."""
    ids = {}  # compact coordinates: a parsed basis may be long and nearly empty
    supports = [[ids.setdefault(v, len(ids)) for v in vec.entries] for vec in vectors]
    echelon = _Echelon(field)
    for i in _peel(supports, len(ids)):
        if not echelon.insert(vectors[i]):
            return i
    return -1


def certifies_span(m: AcyclicMatrix, partner, witness: Basis, row_basis=None) -> bool:
    """Whether a certificate proves, with no elimination, that rank(m) is
    the number r of vertices u with ``partner[u] >= 0``, that
    span(witness) = null(m) and, given a row_basis, that span(row_basis)
    = row(m); False is inconclusive: the claims prove nothing, or a
    vector's length is not n or its field not m's.

    Each such u must be paired: p = partner[u] is a vertex other than u
    with partner[p] = u, and the pair is stored in m's CSR arrays, found
    in the row of its smaller end (the pattern is symmetric).  That
    proves rank >= r.  The paired vertices S carry a perfect matching of
    m's pattern, a forest (``AcyclicMatrix`` proves it).  A nonzero term of
    det M[S, S] is a permutation of S along edges whose cycles are all
    2-cycles, as a longer one would be a cycle of the forest: a perfect
    matching of S, and a forest has at most one.  So det M[S, S] =
    +-prod M[u, p] M[p, u] over the pairs, which is not zero.  The
    witness has n - r vectors that peel (``_peel``) and that m
    annihilates (``_annihilated``), so nullity >= n - r.
    A row basis of r vectors that peel and are orthogonal to the witness
    lies in null(m)^perp = row(m), of dimension r."""
    n, neighbors, offsets = m.n, m.pattern.neighbors, m.pattern.offsets
    if len(partner) != n:
        return False
    r = 0
    for u, p in enumerate(partner):  # each pair from its smaller end
        if p > u:
            if p >= n or partner[p] != u or p not in neighbors[offsets[u]:offsets[u + 1]]:
                return False
            r += 2
        elif p >= 0 and (p == u or partner[p] != u):
            return False
    field = m.field
    if (witness.dimension != n - r or not _typed(witness, n, field)
            or _peel([vec.entries for vec in witness.vectors], n)
            or not _annihilated(m, witness)):
        return False
    if row_basis is None:
        return True
    if (row_basis.dimension != r or not _typed(row_basis, n, field)
            or _peel([vec.entries for vec in row_basis.vectors], n)):
        return False
    add, mul, zero = field.add, field.mul, field.zero
    holders = {}  # coordinate -> [(witness index, entry)]
    for k, vec in enumerate(witness.vectors):
        for v, x in vec.entries.items():
            holders.setdefault(v, []).append((k, x))
    for vec in row_basis.vectors:
        dots = {}
        for v, y in vec.entries.items():
            for k, x in holders.get(v, ()):
                dots[k] = add(dots.get(k, zero), mul(x, y))
        if any(dots.values()):
            return False
    return True


def _typed(basis: Basis, n: int, field) -> bool:
    return all(vec.n == n and (vec.field is field or vec.field == field)
               for vec in basis.vectors)


def _annihilated(m: AcyclicMatrix, basis: Basis) -> bool:
    """M x = 0 for every vector x of the basis, in one loop over M's CSR
    arrays and column-side values: nothing the fast path derived from M
    is read."""
    add, mul, zero = m.field.add, m.field.mul, m.field.zero
    neighbors, offsets, col_flat = m.pattern.neighbors, m.pattern.offsets, m.col_flat
    for vec in basis.vectors:
        product = {}
        get = product.get
        for v, x in vec.entries.items():
            for j in range(offsets[v], offsets[v + 1]):
                u = neighbors[j]
                product[u] = add(get(u, zero), mul(col_flat[j], x))
        if any(product.values()):
            return False
    return True


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


def _dp_matching_number(f: Forest, skip: int = -1) -> int:
    """Matching number of the forest f, with vertex ``skip`` deleted when
    it is given, by subtree DP over f's CSR arrays: its own DFS, not the
    stored sweep, and independent of the greedy code."""
    n, neighbors, offsets = f.vertex_count, f.neighbors, f.offsets
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
                for c in neighbors[offsets[v]:offsets[v + 1]]:
                    if c != parent and state[c] == 0:
                        stack.append((c, v))
            else:
                stack.pop()
                state[v] = 2
                base = 0
                gain = 0
                for c in neighbors[offsets[v]:offsets[v + 1]]:
                    if c == parent or c == skip:
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
    nu = _dp_matching_number(f)
    return frozenset(v for v in range(f.vertex_count) if _dp_matching_number(f, skip=v) == nu)


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
