"""Slow, direct helpers on forests, matrices and vectors that only the
test suite uses: paths between vertices, component lists, induced
subforests, single entries, dense vectors, the null dimension, the null
basis from a matching of its own, the pattern's {-1, 0, +1} null basis,
the supported-neighborhood vectors of the row-space basis, the null
scaling by its own tree walk, the restriction test of a null vector
and the equality of two bases' spans.  They read the public data of
``Forest`` and ``AcyclicMatrix`` (and the oracle's echelon form) and
favour plainness over speed.
``test_forest_helpers.py`` checks the path, induced-subforest,
null-dimension and restriction laws.
"""

from bisect import bisect_left

from forestnull import (QQ, SparseVector, ValidationError, adjacency_matrix, build_forest,
                        maximum_matching, sparsest_null_basis, support)
from forestnull.fields import require_same_field
from forestnull.oracle import _Echelon


def neighbors_of(f, v: int) -> list:
    return list(f.neighbors[f.offsets[v]:f.offsets[v + 1]])


def same_component(f, v: int, w: int) -> bool:
    return f.component_id[v] == f.component_id[w]


def check_vertex(f, v: int):
    if not (0 <= v < f.vertex_count):
        raise ValidationError("vertex %r out of range for %d vertices" % (v, f.vertex_count))


def path(f, v: int, w: int) -> tuple:
    """The unique path from v to w, as a directed vertex sequence."""
    check_vertex(f, v)
    check_vertex(f, w)
    if not same_component(f, v, w):
        raise ValidationError("vertices %d and %d lie in different components" % (v, w))
    if v == w:
        return (v,)
    parent = {v: -1}
    frontier = [v]
    while w not in parent:
        nxt = []
        for cur in frontier:
            for nb in neighbors_of(f, cur):
                if nb not in parent:
                    parent[nb] = cur
                    nxt.append(nb)
        frontier = nxt
    out = []
    cur = w
    while cur != -1:
        out.append(cur)
        cur = parent[cur]
    out.reverse()
    return tuple(out)


def second_vertex(f, v: int, w: int) -> int:
    """The vertex right after v on the path from v to w."""
    if v == w:
        raise ValidationError("second vertex is undefined for v == w (v=%d)" % v)
    return path(f, v, w)[1]


def connected_components(f) -> list:
    """Vertex lists per component, components ordered by smallest member."""
    out = [[] for _ in range(f.component_count)]
    for v in range(f.vertex_count):
        out[f.component_id[v]].append(v)
    return out


class InducedForest:
    __slots__ = ("forest", "to_parent", "from_parent")

    def __init__(self, forest, to_parent, from_parent):
        self.forest = forest
        self.to_parent = to_parent    # new id -> old id (ascending old ids)
        self.from_parent = from_parent  # old id -> new id


def induced_subgraph(f, vertex_set) -> InducedForest:
    """The forest induced on ``vertex_set``, with the old/new id maps."""
    keep = sorted(set(vertex_set))
    for v in keep:
        check_vertex(f, v)
    from_parent = {old: new for new, old in enumerate(keep)}
    edges = [(from_parent[u], from_parent[v]) for u, v in f.edges
             if u in from_parent and v in from_parent]
    return InducedForest(build_forest(len(keep), edges), keep, from_parent)


def null_dimension(f) -> int:
    return f.vertex_count - 2 * maximum_matching(f).nu


def null_basis(m):
    """The sparsest null basis of m, from a matching of its own."""
    return sparsest_null_basis(m, maximum_matching(m.pattern))


def pattern_basis(f, field=QQ):
    """The pattern's {-1, 0, +1} null basis: the null-basis walk on the
    adjacency matrix."""
    return null_basis(adjacency_matrix(f, field))


def supported_neighborhood_vector(m, matching, v: int):
    """Row v of m restricted to v's support neighbors, for a vertex v
    outside the support that the matching of m's pattern gives.  May be
    zero."""
    supp = support(m.pattern, matching).supp
    if v in supp:
        raise ValidationError("vertex %d is a support vertex", v)
    return SparseVector(m.n, m.field, {w: x for w, x in m.row_items(v) if w in supp})


def tree_edges_scaling(m, supp) -> list:
    """The null scaling's diagonal by a walk of its own, D = 1 at each
    component's smallest vertex in supp, stack-driven with neighbors
    pushed ascending: the walk the stored sweep replaced.  It reads
    neither the sweep nor a matching; components without support keep
    D = 1."""
    field = m.field
    neighbors, offsets = m.pattern.neighbors, m.pattern.offsets
    diag = [field.one] * m.n
    seen = bytearray(m.n)
    for r in sorted(supp):
        if seen[r]:
            continue
        seen[r] = 1
        stack = [r]
        while stack:
            s = stack.pop()
            for j in range(offsets[s], offsets[s + 1]):
                t = neighbors[j]
                if seen[t]:
                    continue
                seen[t] = 1
                if t in supp:
                    diag[t] = field.mul(diag[s], m.row_flat[j])
                elif s in supp:
                    diag[t] = field.mul(diag[s], field.inv(m.col_flat[j]))
                else:
                    diag[t] = diag[s]
                stack.append(t)
    return diag


def entry(m, u: int, v: int):
    """M[u, v], found by bisection in row u."""
    offsets, nbs = m.pattern.offsets, m.pattern.neighbors
    lo, hi = offsets[u], offsets[u + 1]
    i = bisect_left(nbs, v, lo, hi)
    if i < hi and nbs[i] == v:
        return m.row_flat[i]
    return m.field.zero


def entries(m) -> dict:
    """(row, col) -> value dict of the stored entries of m."""
    neighbors, offsets = m.pattern.neighbors, m.pattern.offsets
    return {(u, neighbors[j]): m.row_flat[j]
            for u in range(m.n) for j in range(offsets[u], offsets[u + 1])}


def to_list(x) -> list:
    """The dense coordinate list of a sparse vector."""
    return [x.get(v) for v in range(x.n)]


def restriction_check(m, x) -> bool:
    """True iff x vanishes outside supp+core and its restriction there is
    annihilated by the matrix induced on supp+core (equivalent to x in
    Null(m))."""
    if x.n != m.n:
        raise ValidationError("dimension mismatch: %d vs %d" % (m.n, x.n))
    require_same_field(m.field, x.field, "matrix and vector")
    info = support(m.pattern, maximum_matching(m.pattern))
    s_set = info.supp | info.core
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


def same_span(a, b) -> bool:
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
