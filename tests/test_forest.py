import random

import pytest

from forestnull import ValidationError, build_forest
from forestnull.generate import random_forest_edges
from forest_helpers import connected_components, path


def test_build_p3(p3):
    assert p3.component_count == 1
    assert p3.edges == [(0, 1), (1, 2)]
    assert p3.adjacency == [[1], [0, 2], [1]]


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


def test_loop_and_duplicate_rejected():
    with pytest.raises(ValidationError, match="loop"):
        build_forest(2, [(1, 1)])
    with pytest.raises(ValidationError, match="duplicate"):
        build_forest(2, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError, match="range"):
        build_forest(2, [(0, 5)])


@pytest.mark.parametrize("edges, bad", [([(0, 1.5)], "1.5"), ([(0, 1), (1.0, 2)], "1.0"),
                                        ([(0, "1")], "'1'")])
def test_non_integer_vertex_ids_rejected(edges, bad):
    with pytest.raises(ValidationError) as exc:
        build_forest(3, edges)
    assert str(exc.value) == "vertex ids must be integers, got " + bad


def test_random_forests_properties():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(1, 60)
        k = rng.randint(1, min(5, n))
        edges = random_forest_edges(n, random.Random(trial), components=k)
        f = build_forest(n, edges)
        assert len(f.edges) == n - f.component_count
        assert f.component_count == k
        # adjacency symmetry and sortedness
        for v in range(n):
            assert f.adjacency[v] == sorted(f.adjacency[v])
            for w in f.adjacency[v]:
                assert v in f.adjacency[w]
        # path reversal
        comp = connected_components(f)[rng.randrange(f.component_count)]
        v, w = rng.choice(comp), rng.choice(comp)
        assert path(f, v, w) == tuple(reversed(path(f, w, v)))
