"""The enumeration helpers must be complete before anything trusts them."""

from treegen import free_canonical, free_forests, free_trees

# Non-isomorphic trees / forests on n unlabeled vertices.
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47]
FOREST_COUNTS = [1, 2, 3, 6, 10, 20, 37, 76, 153, 329, 710, 1601]


def test_tree_counts():
    got = [len(free_trees(n)) for n in range(1, 10)]
    assert got == TREE_COUNTS


def test_forest_counts():
    got = [len(free_forests(n)) for n in range(1, 13)]
    assert got == FOREST_COUNTS


def test_matches_full_attachment_sweep():
    # Every labeled tree on n <= 7 vertices comes from some attachment
    # sequence; the canonical forms must coincide with the enumerator's.
    from itertools import product

    from forestnull.generate import _decode_tree

    for n in range(3, 8):
        brute = set()
        for seq in product(range(n), repeat=n - 2):
            edges = _decode_tree(list(seq), n)
            brute.add(free_canonical(n, edges))
        ours = {free_canonical(n, list(e)) for e in free_trees(n)}
        assert brute == ours


def test_forests_are_valid():
    from forestnull import build_forest

    for n in (1, 4, 7):
        for edges in free_forests(n):
            f = build_forest(n, list(edges))
            assert len(f.edges) == n - f.component_count
