"""Output checks that share no code with the fast path.

The benchmark parses the CLI's output files itself and checks them with
its own arithmetic: M x = 0 by a sparse product over the generated
values, the null dimension against a matching number from a tree DP,
independence through coordinates private to one vector, row-space
membership through orthogonality to null vectors found by leaf-pair
elimination, and (for small inputs) span equality by exact echelon form.
"""

from __future__ import annotations

import json
from fractions import Fraction


class Arith:
    """Exact arithmetic over GF(p) (``prime`` set) or the rationals."""

    def __init__(self, prime):
        self.p = prime

    def parse(self, text):
        return int(text) % self.p if self.p else Fraction(text)

    def norm(self, x):
        return x % self.p if self.p else x

    def inv(self, x):
        return pow(x, -1, self.p) if self.p else 1 / x


def rows_of(inst):
    """Per-vertex {neighbor: M[vertex, neighbor]} maps."""
    rows = [dict() for _ in range(inst.n)]
    for (u, v), x in inst.values.items():
        rows[u][v] = x
    return rows


def matching_number(inst):
    """Maximum matching size by the subtree DP (free / best per vertex)."""
    n = inst.n
    adj = [[] for _ in range(n)]
    for u, v in inst.edges:
        adj[u].append(v)
        adj[v].append(u)
    free = [0] * n   # best in the subtree with the vertex left unmatched
    best = [0] * n   # best in the subtree
    seen = bytearray(n)
    total = 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        order, parent, stack = [], {root: -1}, [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for c in adj[v]:
                if not seen[c]:
                    seen[c] = 1
                    parent[c] = v
                    stack.append(c)
        for v in reversed(order):
            base = sum(best[c] for c in adj[v] if c != parent[v])
            gain = max((1 + free[c] - best[c] for c in adj[v] if c != parent[v]),
                       default=0)
            free[v] = base
            best[v] = base + max(gain, 0)
        total += best[root]
    return total


class NullSolver:
    """Null space of a forest matrix by leaf-pair elimination.

    A leaf l with its only live neighbor p forces x[p] = 0 (row l), and
    row p then fixes x[l] from p's other neighbors.  Removing both
    leaves a forest with the same constraints on the rest; the vertices
    left isolated are free, so the null space has one dimension per free
    vertex.  ``solve`` back-substitutes the pairs in reverse order.
    """

    def __init__(self, inst):
        self.arith = Arith(inst.prime)
        self.rows = rows_of(inst)
        n = inst.n
        degree = [len(r) for r in self.rows]
        alive = bytearray([1]) * n
        leaves = [v for v in range(n) if degree[v] == 1]
        pairs = []
        while leaves:
            leaf = leaves.pop()
            if not alive[leaf] or degree[leaf] != 1:
                continue
            p = next(w for w in self.rows[leaf] if alive[w])
            alive[leaf] = alive[p] = 0
            pairs.append((leaf, p))
            for w in self.rows[p]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        leaves.append(w)
        self.pairs = pairs
        self.free = [v for v in range(n) if alive[v]]

    def solve(self, free_values):
        """The null vector with the given values on free vertices."""
        arith = self.arith
        x = dict(free_values)
        for leaf, p in reversed(self.pairs):
            row = self.rows[p]
            acc = sum(row[w] * x[w] for w in row if w != leaf and w in x)
            acc = arith.norm(acc)
            if acc:
                x[leaf] = arith.norm(-acc * arith.inv(row[leaf]))
        return x


def apply(rows, x, arith):
    """Nonzero coordinates of M x."""
    out = {}
    for v, xv in x.items():
        for u in rows[v]:
            # rows[v] lists v's neighbors; M[u, v] is rows[u][v].
            out[u] = out.get(u, 0) + rows[u][v] * xv
    return {u: s for u, s in ((u, arith.norm(s)) for u, s in out.items()) if s}


def dot(x, y, arith):
    if len(y) < len(x):
        x, y = y, x
    return arith.norm(sum(xv * y[v] for v, xv in x.items() if v in y))


def read_basis(path, arith):
    """(n, [ {vertex: value} ]) from a Matrix Market or JSON basis file."""
    with open(path, encoding="ascii") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        vectors = [{int(k) - 1: arith.parse(x) for k, x in vec.items()}
                   for vec in doc["vectors"]]
        if doc["dimension"] != len(vectors):
            raise ValueError("dimension field disagrees with the vector count")
        return doc["n"], vectors
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("%")]
    n, dim, nnz = (int(t) for t in body[0].split())
    if nnz != len(body) - 1:
        raise ValueError("size line announces %d entries, found %d"
                         % (nnz, len(body) - 1))
    vectors = [dict() for _ in range(dim)]
    for ln in body[1:]:
        v, j, x = ln.split()
        vectors[int(j) - 1][int(v) - 1] = arith.parse(x)
    return n, vectors


def read_vector(path, arith):
    with open(path, encoding="ascii") as handle:
        doc = json.load(handle)
    return doc["n"], {int(k) - 1: arith.parse(x) for k, x in doc["vector"].items()}


def _private_coordinates(vectors):
    """True iff every vector has a coordinate no other vector uses."""
    count = {}
    for vec in vectors:
        for v in vec:
            count[v] = count.get(v, 0) + 1
    return all(any(count[v] == 1 for v in vec) for vec in vectors)


def _peels(vectors):
    """True iff repeatedly removing a vector that owns a coordinate no
    other remaining vector uses empties the list: a triangular order,
    hence linear independence."""
    users = {}
    for i, vec in enumerate(vectors):
        for v in vec:
            users.setdefault(v, set()).add(i)
    left = len(vectors)
    queue = [v for v, us in users.items() if len(us) == 1]
    removed = set()
    while queue:
        v = queue.pop()
        live = users[v] - removed
        if len(live) != 1:
            continue
        i = live.pop()
        removed.add(i)
        left -= 1
        for w in vectors[i]:
            if len(users[w] - removed) == 1:
                queue.append(w)
    return left == 0


def check_null_basis(inst, n, vectors, nu):
    """Errors found in a claimed null basis of ``inst`` (empty if none)."""
    arith = Arith(inst.prime)
    errors = []
    if n != inst.n:
        errors.append("basis has n=%d, matrix has n=%d" % (n, inst.n))
    if len(vectors) != inst.n - 2 * nu:
        errors.append("null dimension %d != n - 2*nu = %d"
                      % (len(vectors), inst.n - 2 * nu))
    rows = rows_of(inst)
    for j, vec in enumerate(vectors):
        if not vec or any(x == 0 for x in vec.values()):
            errors.append("vector %d is zero or stores a zero" % (j + 1))
        elif apply(rows, vec, arith):
            errors.append("vector %d is not annihilated by M" % (j + 1))
            break
    if not _private_coordinates(vectors):
        errors.append("some null vector has no private coordinate")
    return errors


def check_rank_basis(inst, n, vectors, nu, null_vectors):
    """Errors found in a claimed row-space basis of ``inst``.

    Membership is checked as orthogonality to ``null_vectors``, which
    the caller draws from the null space.
    """
    arith = Arith(inst.prime)
    errors = []
    if n != inst.n:
        errors.append("basis has n=%d, matrix has n=%d" % (n, inst.n))
    if len(vectors) != 2 * nu:
        errors.append("row-space dimension %d != 2*nu = %d" % (len(vectors), 2 * nu))
    for j, vec in enumerate(vectors):
        if not vec or any(dot(vec, z, arith) for z in null_vectors):
            errors.append("vector %d is zero or not orthogonal to the null space"
                          % (j + 1))
            break
    if not _peels(vectors):
        errors.append("row-space vectors are not triangular (independence unproven)")
    return errors


def random_null_vectors(solver, rng, count):
    """``count`` null vectors with random values on every free vertex."""
    p = solver.arith.p
    hi = p - 1 if p else 10 ** 6
    return [solver.solve({f: rng.randint(1, hi) for f in solver.free})
            for _ in range(count)]


def null_basis_of(solver):
    """One null vector per free vertex (the full basis; fine for small n)."""
    one = 1 if solver.arith.p else Fraction(1)
    return [solver.solve({f: one}) for f in solver.free]


def check_null_transfer(target, x, y):
    errors = []
    if set(y) != set(x):
        errors.append("null transfer changed the support")
    if apply(rows_of(target), y, Arith(target.prime)):
        errors.append("null transfer is not annihilated by the target matrix")
    return errors


def check_rank_transfer(target, z):
    arith = Arith(target.prime)
    errors = []
    if not z:
        errors.append("rank transfer of a nonzero vector is zero")
    if any(dot(z, b, arith) for b in null_basis_of(NullSolver(target))):
        errors.append("rank transfer is not orthogonal to the target's null basis")
    return errors


def _echelon_rank(vectors, arith):
    pivots = {}   # pivot coordinate -> row with leading 1 there
    for vec in vectors:
        work = dict(vec)
        while work:
            lead = min(work)
            row = pivots.get(lead)
            if row is None:
                scale = arith.inv(work[lead])
                pivots[lead] = {k: arith.norm(x * scale) for k, x in work.items()}
                break
            c = work[lead]
            for k, x in row.items():
                s = arith.norm(work.get(k, 0) - c * x)
                if s:
                    work[k] = s
                else:
                    work.pop(k, None)
    return len(pivots)


def same_span(a, b, arith):
    ra = _echelon_rank(a, arith)
    return ra == len(a) == len(b) == _echelon_rank(b, arith) == _echelon_rank(a + b, arith)
