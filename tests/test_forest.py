import random

import pytest

from forestnull import AcyclicMatrix, QQ, ValidationError, build_forest
from forestnull.generate import random_forest_edges
from forest_helpers import connected_components, neighbors_of, path


def test_build_p3(p3):
    assert p3.component_count == 1
    assert p3.edges == [(0, 1), (1, 2)]
    assert list(p3.neighbors) == [1, 0, 2, 1]
    assert list(p3.offsets) == [0, 1, 3, 4]


def test_two_components():
    f = build_forest(4, [(0, 1), (2, 3)])
    assert f.component_count == 2
    assert connected_components(f) == [[0, 1], [2, 3]]


def test_p3_plus_p2_components():
    f = build_forest(5, [(0, 1), (1, 2), (3, 4)])
    assert connected_components(f) == [[0, 1, 2], [3, 4]]


def test_cycle_rejected():
    with pytest.raises(ValidationError, match="cycle"):
        build_forest(3, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("n, edges, message", [
    (2, [(1, 1)], "nonzero diagonal entry at vertex 1"),
    (2, [(0, 1), (0, 1)], "duplicate entry at (0, 1)"),
    (2, [(0, 1), (1, 0)], "duplicate entry at (0, 1)"),
    (2, [(0, 5)], "entry (0, 5) out of range for n=2"),
    (3, [(0, 1), (1, 2), (0, 2)], "cycle detected at edge (1, 2)"),
    (3, [(0, 1.5)], "vertex ids must be integers, got 1.5"),
    (3, [(0, 1), (1.0, 2)], "vertex ids must be integers, got 1.0"),
    (3, [(0, "1")], "vertex ids must be integers, got '1'"),
    (-1, [(0, 1)], "entry (0, 1) out of range for n=-1"),
    (-1, [], "vertex count must be non-negative"),
    (2 ** 31, [], "vertex count 2147483648 exceeds the limit of 2147483647"),
])
def test_build_forest_refuses_as_from_entries(n, edges, message):
    # an edge list is checked as the unit entries of both its orientations
    with pytest.raises(ValidationError) as want:
        AcyclicMatrix.from_entries(n, [e for u, v in edges
                                       for e in ((u, v, QQ.one), (v, u, QQ.one))])
    with pytest.raises(ValidationError) as got:
        build_forest(n, edges)
    assert str(got.value) == str(want.value) == message


@pytest.mark.parametrize("edges, message", [
    ([(0, 1, 2)], "malformed entry (0, 1, 2): expected (u, v)"),
    ([0], "malformed entry 0: expected (u, v)"),
    ([(0, 1), (1,)], "malformed entry (1,): expected (u, v)"),
])
def test_build_forest_names_a_malformed_edge(edges, message):
    with pytest.raises(ValidationError) as exc:
        build_forest(2, edges)
    assert str(exc.value) == message


def test_random_forests_properties():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(1, 60)
        k = rng.randint(1, min(5, n))
        edges = random_forest_edges(n, random.Random(trial), components=k)
        f = build_forest(n, edges)
        assert len(f.edges) == n - f.component_count
        assert f.component_count == k
        # neighbor symmetry and sortedness
        for v in range(n):
            assert neighbors_of(f, v) == sorted(neighbors_of(f, v))
            for w in neighbors_of(f, v):
                assert v in neighbors_of(f, w)
        # path reversal
        comp = connected_components(f)[rng.randrange(f.component_count)]
        v, w = rng.choice(comp), rng.choice(comp)
        assert path(f, v, w) == tuple(reversed(path(f, w, v)))
