"""Forests: validated acyclic graphs with deterministic traversal order.

Vertices are 0-based ints.  A forest is stored only as CSR arrays: the
neighbors of all vertices in one flat array with per-vertex offsets,
each row sorted ascending.  Every traversal in the package walks them
in that order, which makes all downstream output reproducible byte for
byte.  ``adjacency`` and ``edges`` are built from the arrays on access.

``build_forest`` and ``AcyclicMatrix.from_entries`` read the arrays off
row-major sorted positions (``_row_major_csr``) and index them with one
component sweep (``_indexed_forest``): components are started at their
smallest vertex, in ascending order, and a stack walk pushes a vertex's
unvisited neighbors ascending and pops the largest first.  The forest
keeps the sweep's preorder (``order``), every vertex's ``parent`` (-1
at a root) and ``parent_slot``, the slot j of the vertex in its
parent's row.  Reversed, ``order`` is a post-order with children taken
ascending; the kernel's matching and the row scaling run over it
instead of walking the tree again.  A ``Forest`` is never mutated after
it is built; concurrent reads are safe.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import index

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
    def adjacency(self) -> list:
        """Per-vertex sorted neighbor lists, built afresh on each access."""
        nbs, off = self.neighbors, self.offsets
        return [list(nbs[off[v]:off[v + 1]]) for v in range(self.vertex_count)]

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
    """Validate and index an acyclic edge list.

    Rejects non-integer and out-of-range vertices, loops, duplicate
    edges and cycles (a cycle report names the closing edge).
    """
    if vertex_count < 0:
        raise ValidationError("vertex count must be non-negative")
    positions = []
    u = v = 0
    try:
        for u, v in edge_list:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValidationError("edge (%r, %r) out of range for %d vertices"
                                      % (u, v, vertex_count))
            if u == v:
                raise ValidationError("loop edge at vertex %d" % u)
            positions += ((u, v), (v, u))
        positions.sort()
        # a repeated edge's first repeated position is (u, v) with u < v
        neighbors, offsets = _row_major_csr(vertex_count, positions, "duplicate edge (%d, %d)")
    except TypeError:
        _refuse_non_integer_ids(positions + [(u, v)])
        raise
    return _indexed_forest(vertex_count, neighbors, offsets)


def _refuse_non_integer_ids(pairs):
    """Name the first vertex id in the (row, column, ...) tuples pairs
    that is not an integer.  Called only once a TypeError has surfaced,
    so valid input pays for no per-entry type test; returns when every
    id is an integer, and the caller re-raises."""
    for pair in pairs:
        for x in pair[:2]:
            try:
                index(x)
            except TypeError:
                raise ValidationError("vertex ids must be integers, got %r" % (x,)) from None


def _row_major_csr(vertex_count, items, duplicate):
    """Neighbors and offsets of (row, column, ...) tuples sorted
    row-major, refusing a repeated position with ``duplicate``.  C int
    arrays: compact, contiguous, and much kinder to the cache than int
    objects scattered over the heap."""
    degree = [0] * (vertex_count + 1)
    prev_u = prev_v = -1
    for t in items:
        u, v = t[0], t[1]
        if u == prev_u and v == prev_v:
            raise ValidationError(duplicate % (u, v))
        prev_u, prev_v = u, v
        degree[u + 1] += 1
    return array("i", [t[1] for t in items]), array("i", accumulate(degree))


def _indexed_forest(vertex_count, neighbors, offsets) -> Forest:
    """The ``Forest`` over a symmetric CSR layout.

    One component sweep labels the components and records the walk:
    each component starts at its smallest vertex, and a vertex's
    unvisited neighbors are pushed ascending, so the largest is visited
    first.  In a forest the only visited neighbor of a popped vertex is
    its parent; meeting any other one means a cycle, which is then named
    by a second, slower pass.  The per-vertex results are C int arrays.
    """
    component_id = array("i", [-1]) * vertex_count
    parent = array("i", [-1]) * vertex_count
    parent_slot = array("i", [-1]) * vertex_count
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
                if y != p:
                    if component_id[y] >= 0:
                        edges = _edges(vertex_count, neighbors, offsets)
                        raise ValidationError("cycle detected at edge (%d, %d)"
                                              % _find_cycle_edge(vertex_count, edges))
                    component_id[y] = count
                    parent[y] = x
                    parent_slot[y] = j
                    push(y)
        count += 1
    return Forest(vertex_count, neighbors, offsets, component_id, count, order,
                  parent, parent_slot)


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
