"""The paper's linear-time claim, counted in field operations.

Every public operation that does arithmetic runs over a field that
counts its additions, subtractions, negations, multiplications and
inversions, on eight relabelled tree shapes at three sizes.  Each count
must stay within a stated constant times n plus the nonzeros of the
bases and vectors the operation reads, builds or returns, and that
figure must not grow with n.  README states the constants.  Counts are
exact and the same on every host, unlike the wall-time doubling ratio
of acceptance criterion 8.
"""

import random

from forestnull import (SparseVector, build_forest, maximum_matching, rank_basis,
                        sparsest_null_basis, transfer_null, transfer_rank,
                        transversal_scaling)
from forestnull.generate import random_forest_edges
from forestnull.oracle import certifies_span
from test_acceptance import matrix_on
from test_rank import CountingField

SIZES = (1024, 2048, 4096)

# operation -> the stated constant: field operations per vertex and
# nonzero, a little above the largest figure on the shapes below
BOUNDS = {
    "sparsest_null_basis": 1.5,
    "certifies_span (null)": 2.0,
    "certifies_span (rank)": 2.5,
    "transfer_null": 4.0,
    "transfer_rank": 3.5,
    "transversal_scaling": 2.75,
}


def star(n):
    return [(0, i) for i in range(1, n)]


def broom(n):
    """A path of n/2 vertices with the other n/2 as leaves of its end."""
    h = n // 2
    return [(i, i + 1) for i in range(h - 1)] + [(h - 1, i) for i in range(h, n)]


def spider(n):
    """n/2 legs of two vertices on one centre."""
    return [e for i in range(n // 2) for e in ((0, 2 * i + 1), (2 * i + 1, 2 * i + 2))]


def binary(n):
    return [((i - 1) // 2, i) for i in range(1, n)]


def random_tree(n):
    return random_forest_edges(n, random.Random(n))


def leafy_path(n):
    """A path of n/3 vertices, each with two pendant leaves."""
    k = n // 3
    return [(i, i + 1) for i in range(k - 1)] + \
        [e for i in range(k) for e in ((i, k + 2 * i), (i, k + 2 * i + 1))]


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


def caterpillar(n):
    """A path of n/2 vertices, each with one pendant leaf."""
    k = n // 2
    return [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)]


SHAPES = (star, broom, spider, binary, random_tree, leafy_path, path, caterpillar)


def vector_sum(n, field, vectors):
    entries = {}
    for vec in vectors:
        for v, x in vec.entries.items():
            entries[v] = field.add(entries.get(v, field.zero), x)
    return SparseVector(n, field, entries)


def nnz(basis):
    return sum(vec.nnz() for vec in basis.vectors)


def counted_operations(edges, field):
    """operation -> (field operations, n + the nonzeros it reads, builds
    or returns), on a relabelled tree with the given edges."""
    n = max(max(e) for e in edges) + 1
    labels = list(range(n))
    random.Random(n).shuffle(labels)
    f = build_forest(n, [(labels[u], labels[v]) for u, v in edges])
    m, other = matrix_on(f, 1, field), matrix_on(f, 2, field)
    matching = maximum_matching(f)
    nulls, rows = sparsest_null_basis(m, matching), rank_basis(m, matching)
    x, y = vector_sum(n, field, nulls.vectors), vector_sum(n, field, rows.vectors)
    runs = {
        "sparsest_null_basis": (lambda: sparsest_null_basis(m, matching), nnz(nulls)),
        "certifies_span (null)": (lambda: certifies_span(m, matching.partner, nulls),
                                  nnz(nulls)),
        "certifies_span (rank)": (lambda: certifies_span(m, matching.partner, nulls, rows),
                                  nnz(nulls) + nnz(rows)),
        "transfer_null": (lambda: transfer_null(m, other, x), x.nnz()),
        # the row transfer tests membership against m's null basis
        "transfer_rank": (lambda: transfer_rank(m, other, y), y.nnz() + nnz(nulls)),
        "transversal_scaling": (lambda: transversal_scaling(m, matching), 0),
    }
    out = {}
    for name, (run, nonzeros) in runs.items():
        field.ops = field.additions = 0
        assert run() is not False  # both certificates pass
        out[name] = (field.ops + field.additions, n + nonzeros)
    return out


def test_field_operations_are_linear_in_n_plus_nonzeros():
    field = CountingField(1000003)
    for shape in SHAPES:
        figures = {name: [] for name in BOUNDS}
        for size in SIZES:
            for name, (count, scale) in counted_operations(shape(size), field).items():
                assert count <= BOUNDS[name] * scale, (shape.__name__, size, name, count)
                figures[name].append(count / scale)
        for name, figure in figures.items():  # flat across the sizes
            assert max(figure) - min(figure) <= 0.2, (shape.__name__, name, figure)
