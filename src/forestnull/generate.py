"""Seeded random instances.

Trees are drawn uniformly over labeled trees by decoding a uniformly
random attachment sequence (the classic n^(n-2) bijection); a
k-component forest deletes k-1 uniformly chosen edges afterwards.
Entry values: rationals get numerator and denominator uniform in
[-9, 9] minus zero, prime fields uniform in [1, p-1].  Everything is a
pure function of (n, seed, field, components).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ValidationError
from .fields import Field, PrimeField, QQ
from .matrix import MAX_VERTICES, AcyclicMatrix


def _decode_tree(seq, n):
    """Edges of the labeled tree with attachment sequence ``seq``."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def random_forest_edges(n: int, rng: random.Random, components: int = 1):
    """The edges of a random forest on n vertices.  n is checked before
    anything is drawn: an attachment sequence costs O(n)."""
    if n > MAX_VERTICES:
        raise ValidationError("vertex count %d exceeds the limit of %d" % (n, MAX_VERTICES))
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not (1 <= components <= n):
        raise ValidationError("components must be between 1 and n")
    if n == 1:
        edges = []
    elif n == 2:
        edges = [(0, 1)]
    else:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        edges = _decode_tree(seq, n)
    if components > 1:
        drop = set(rng.sample(range(len(edges)), components - 1))
        edges = [e for i, e in enumerate(edges) if i not in drop]
    return edges


def _random_nonzero(field: Field, rng: random.Random):
    if isinstance(field, PrimeField):
        return rng.randrange(1, field.p)
    num = rng.choice([k for k in range(-9, 10) if k != 0])
    den = rng.choice([k for k in range(-9, 10) if k != 0])
    return Fraction(num, den)


def random_entry_triples(n: int, seed: int, field: Field = QQ, components: int = 1):
    """The raw (row, col, value) triples of a random instance.

    Values are drawn edge by edge in canonical order; the returned list
    is row-major sorted, the same layout the file formats use.
    """
    rng = random.Random(seed)
    edges = random_forest_edges(n, rng, components)
    triples = []
    for u, v in sorted((min(e), max(e)) for e in edges):
        triples.append((u, v, _random_nonzero(field, rng)))
        triples.append((v, u, _random_nonzero(field, rng)))
    triples.sort()  # no two triples share a (row, col) pair
    return triples


def random_matrix(n: int, seed: int, field: Field = QQ,
                  components: int = 1) -> AcyclicMatrix:
    """Deterministic random matrix: same arguments, same matrix."""
    return AcyclicMatrix.from_entries(
        n, random_entry_triples(n, seed, field, components), field)
