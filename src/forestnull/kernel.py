"""Combinatorics on the pattern forest.

Maximum matching, the support of the kernel (vertices that can carry a
nonzero coordinate in a null vector), and a sparsest null basis: one
alternating walk per exposed vertex over a matrix's own values, which
on the forest's adjacency matrix is the pattern's {-1, 0, +1} basis.

The results are named tuples (``MatchingInfo``, ``SupportInfo``):
immutable records that unpack like plain tuples.  The matching is the
one pattern structure: ``support``, ``sparsest_null_basis``,
``rank.rank_basis`` and ``scaling.transversal_scaling`` take it as an
argument and each transfer computes it once, so it is never cached on
objects.

Everything here is deterministic.  The matching walks no tree of its
own: it takes vertices in the reverse of the preorder the forest stored
when it was built.  Within each component that is the post-order of a
DFS from the smallest id with neighbors visited ascending (components
come last to first, which cannot change a matching that never crosses
them), so repeated runs produce identical output.
All functions are pure; components could be processed concurrently and
merged in component order without changing any result.
"""

from __future__ import annotations

from collections import namedtuple

from .forest import Forest
from .matrix import AcyclicMatrix, Basis, SparseVector

#: A maximum matching: each vertex's matched ``partner``, -1 when
#: unmatched; the matching number ``nu``; the unmatched vertices
#: ``exposed``, ascending.
MatchingInfo = namedtuple("MatchingInfo", "partner nu exposed")

#: ``supp``: the vertices with a nonzero coordinate in some null vector;
#: ``core``: the neighbors of supp.
SupportInfo = namedtuple("SupportInfo", "supp core")

def maximum_matching(f: Forest) -> MatchingInfo:
    """Greedy leaf-first matching; maximum on forests.

    Vertices are taken in the reversed preorder of the forest's sweep, a
    post-order with children ascending; a vertex is matched to its
    parent exactly when both are still free.  An unmatched vertex keeps
    partner -1, as in ``Forest.parent``; ``exposed`` lists the unmatched
    vertices ascending, in the order one scan over the ids finds them.
    """
    n = f.vertex_count
    parent = f.parent
    partner = [-1] * n
    for v in reversed(f.order):
        p = parent[v]
        if p >= 0 and partner[v] < 0 and partner[p] < 0:
            partner[v] = p
            partner[p] = v
    exposed = tuple(v for v in range(n) if partner[v] < 0)
    return MatchingInfo(partner, (n - len(exposed)) // 2, exposed)


def support(f: Forest, matching: MatchingInfo) -> SupportInfo:
    """Support and core of the forest's null space.

    supp is every vertex reachable from an unmatched vertex by an
    alternating path of even length (non-matching edge first).  This is
    exactly {v : removing v keeps the matching number unchanged}, and
    also the intersection of all maximum independent sets; the test
    suite checks both characterizations against brute force.  The
    matching must be a maximum matching of f.
    """
    n = f.vertex_count
    partner = matching.partner
    neighbors, offsets = f.neighbors, f.offsets
    in_supp = bytearray(n)
    queue = list(matching.exposed)
    for v in queue:
        in_supp[v] = 1
    head = 0
    push = queue.append
    while head < len(queue):
        w = queue[head]
        head += 1
        pw = partner[w]
        for j in range(offsets[w], offsets[w + 1]):
            a = neighbors[j]
            if a == pw:
                continue
            b = partner[a]
            # a is matched: an unmatched a would extend to an augmenting path.
            if b >= 0 and not in_supp[b]:
                in_supp[b] = 1
                push(b)
    supp = frozenset(queue)
    core = set()
    core_add = core.add
    for v in queue:
        for j in range(offsets[v], offsets[v + 1]):
            core_add(neighbors[j])
    core -= supp
    return SupportInfo(supp, frozenset(core))


def sparsest_null_basis(m: AcyclicMatrix, matching: MatchingInfo) -> Basis:
    """Sparsest basis of the null space of m, from the matching that
    ``maximum_matching`` finds on m's pattern: for each exposed vertex
    u, ascending, one alternating walk over m's values from x_u = 1.

    From a vertex w of the vector the walk crosses each edge w - a
    other than w's matching edge, then a's matching edge to
    b = partner[a].  A tree has one path between two vertices, so a has
    exactly two neighbors in the vector's support, w and b, and row a
    of M x = 0 fixes x_b = -M[a, w] x_w / M[a, b]; support vertices lie
    an even distance apart, so no other row of M x has a term.  Each
    vector is 1 at its exposed vertex and 0 at the others, so the
    n - 2 nu vectors are independent.  On the adjacency matrix the walk
    gives the pattern's {-1, 0, +1} basis, with the same supports, whose
    total nonzero count is minimum (verified exhaustively in tests).

    M[a, b] is ``row_flat[parent_slot[b]]``: a is b's parent in the
    sweep.  Were b a's parent, the leaf-first sweep would have matched
    every child of a downward and left a free within its subtree, which
    the walk enters from below, so u ... w - a would augment the sweep's
    maximum matching of that subtree.
    """
    f, field = m.pattern, m.field
    mul, inv, neg = field.mul, field.inv, field.neg
    neighbors, offsets = f.neighbors, f.offsets
    parent_slot = f.parent_slot
    row_flat = m.row_flat  # slot j of vertex s: M[s, neighbors[j]]
    col_flat = m.col_flat  # slot j of vertex s: M[neighbors[j], s]
    partner = matching.partner
    step = [None] * m.n  # -1 / M[a, partner[a]], once a walk reaches a
    vectors = []
    for u in matching.exposed:
        coeff = {u: field.one}
        stack = [u]
        while stack:
            w = stack.pop()
            xw = coeff[w]
            pw = partner[w]
            for j in range(offsets[w], offsets[w + 1]):
                a = neighbors[j]
                if a == pw:
                    continue
                b = partner[a]
                r = step[a]
                if r is None:
                    r = step[a] = neg(inv(row_flat[parent_slot[b]]))
                coeff[b] = mul(mul(col_flat[j], xw), r)
                stack.append(b)
        vectors.append(SparseVector._trusted(m.n, field, coeff))
    return Basis(vectors)
