"""Forests: validated acyclic graphs with deterministic traversal order.

Vertices are 0-based ints.  A forest is stored only as CSR arrays: the
neighbors of all vertices in one flat array with per-vertex offsets,
each row sorted ascending.  Every traversal in the package walks them
in that order, which makes all downstream output reproducible byte for
byte.  ``edges`` is built from the arrays on access.

``build_forest`` is the pattern of ``AcyclicMatrix.from_entries`` on
unit entries, so edge lists and matrices share one set of checks and
texts, and ``matrix._row_offsets`` builds their offsets.  Every forest
is indexed by one component sweep (``_indexed_forest``): components
are started at their smallest vertex, in ascending order, and a stack
walk pushes a vertex's unvisited neighbors ascending and pops the
largest first.  The forest keeps the sweep's preorder (``order``),
every vertex's ``parent`` (-1 at a root) and ``parent_slot``, the slot
j of the vertex in its parent's row.  Reversed, ``order`` is a
post-order with children taken ascending; the kernel's matching runs
over it instead of walking the tree again.  The sweep is also the
symmetry and acyclicity check: it pairs each edge's two slots (twins),
which it can do for every edge only when the layout is a symmetric
forest.  A ``Forest`` is never mutated after it is built; concurrent
reads are safe.
"""

from __future__ import annotations

from array import array

from .errors import ValidationError


class Forest:
    __slots__ = ("vertex_count", "neighbors", "offsets", "component_id",
                 "component_count", "order", "parent", "parent_slot")

    def __init__(self, vertex_count, neighbors, offsets, component_id,
                 component_count, order, parent, parent_slot):
        self.vertex_count = vertex_count
        self.neighbors = neighbors   # flat sorted neighbor array
        self.offsets = offsets       # vertex v owns neighbors[offsets[v]:offsets[v+1]]
        self.component_id = component_id
        self.component_count = component_count
        self.order = order            # preorder of the component sweep
        self.parent = parent          # sweep parent, -1 at component roots
        self.parent_slot = parent_slot  # slot of v in parent[v]'s row, -1 at roots

    @property
    def edges(self) -> list:
        """Canonical (u, v) pairs, u < v, sorted, built afresh on each access."""
        return _edges(self.vertex_count, self.neighbors, self.offsets)

    def __eq__(self, other):
        return (isinstance(other, Forest) and self.offsets == other.offsets
                and self.neighbors == other.neighbors)

    def __repr__(self):
        return ("Forest(n=%d, edges=%d, components=%d)"
                % (self.vertex_count, len(self.neighbors) // 2, self.component_count))


def build_forest(vertex_count: int, edge_list) -> Forest:
    """Validate and index an acyclic edge list as the pattern of the
    matrix with a 1 at both orientations of every edge, so
    ``AcyclicMatrix.from_entries`` refuses what it refuses."""
    from .fields import QQ
    from .matrix import AcyclicMatrix, _malformed  # matrix.py imports this module
    one = QQ.one
    entries = []
    for e in edge_list:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise _malformed(e, "(u, v)") from None
        entries += ((u, v, one), (v, u, one))
    return AcyclicMatrix.from_entries(vertex_count, entries, QQ).pattern


def _indexed_forest(vertex_count, neighbors, offsets, row_flat):
    """The ``Forest`` over a CSR layout, and ``col_flat``: each value of
    ``row_flat`` at the twin of its slot, the slot of the same edge in
    the other endpoint's row.

    The component sweep, in the order the module docstring gives, meets
    each slot of a popped vertex once: it pushes an unvisited neighbor
    or points back at the vertex's parent, and that back slot and the
    parent's slot, ``parent_slot``, are twins.  The sweep thus proves
    the layout a symmetric forest on the way: it meets no other visited
    neighbor, and the n - components pushes leave as many back slots,
    so every tree slot has its twin.  When it fails, ``_refuse_pattern``
    names why.  The per-vertex results are C int arrays.
    """
    component_id = array("i", [-1]) * vertex_count
    parent = array("i", [-1]) * vertex_count
    parent_slot = array("i", [-1]) * vertex_count
    col_flat = [None] * len(neighbors)
    order = array("i")
    visit = order.append
    count = 0
    for r in range(vertex_count):
        if component_id[r] >= 0:
            continue
        component_id[r] = count
        stack = [r]
        pop = stack.pop
        push = stack.append
        while stack:
            x = pop()
            visit(x)
            p = parent[x]
            for j in range(offsets[x], offsets[x + 1]):
                y = neighbors[j]
                if y == p:
                    k = parent_slot[x]
                    col_flat[j] = row_flat[k]
                    col_flat[k] = row_flat[j]
                elif component_id[y] < 0:
                    component_id[y] = count
                    parent[y] = x
                    parent_slot[y] = j
                    push(y)
                else:
                    _refuse_pattern(vertex_count, neighbors, offsets)
        count += 1
    if len(neighbors) != 2 * (vertex_count - count):
        _refuse_pattern(vertex_count, neighbors, offsets)
    return Forest(vertex_count, neighbors, offsets, component_id, count, order,
                  parent, parent_slot), col_flat


def _refuse_pattern(vertex_count, neighbors, offsets):
    """Name why a CSR layout is not a symmetric forest.  A cycle is
    reported before asymmetry: the first edge closing one among the
    u < v positions, when those are half of all positions.  Otherwise
    the first position, in canonical order, whose mirror is missing."""
    edges = _edges(vertex_count, neighbors, offsets)
    if 2 * len(edges) == len(neighbors):
        cycle = _find_cycle_edge(vertex_count, edges)
        if cycle is not None:
            raise ValidationError("cycle detected at edge (%d, %d)", *cycle)
    lower = set(edges)
    upper = {(v, u) for u in range(vertex_count)
             for v in neighbors[offsets[u]:offsets[u + 1]] if v < u}
    only_lower = lower - upper
    if only_lower:
        a, b = min(only_lower)
    else:
        b, a = min(upper - lower)
    raise ValidationError("asymmetric pattern: entry (%d, %d) present but (%d, %d) missing",
                          a, b, b, a)


def _edges(vertex_count, neighbors, offsets) -> list:
    """The u < v pairs of a CSR layout, in row-major order."""
    return [(u, v) for u in range(vertex_count)
            for v in neighbors[offsets[u]:offsets[u + 1]] if u < v]


def _find_cycle_edge(vertex_count, edges):
    """First edge (in canonical order) that closes a cycle, or None."""
    root = list(range(vertex_count))
    for u, v in edges:
        x = u
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        y = v
        while root[y] != y:
            root[y] = root[root[y]]
            y = root[y]
        if x == y:
            return (u, v)
        root[max(x, y)] = min(x, y)
    return None
