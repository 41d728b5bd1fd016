"""The laws behind the test-only helpers in ``forest_helpers.py``: paths
and second vertices, induced subforests, the null dimension n - 2 nu,
and the restriction test of null vectors on supp + core.
"""

import random

import pytest

from forestnull import QQ, ValidationError, analyze, build_forest
from forestnull.generate import random_matrix
from conftest import sv
from forest_helpers import (induced_subgraph, null_dimension, path,
                            restriction_check, second_vertex)
from test_kernel import path_forest
from test_scaling import random_matrix_on, random_null_vector
from treegen import free_forests


def test_path_direction(p3):
    assert path(p3, 0, 2) == (0, 1, 2)
    assert path(p3, 2, 0) == (2, 1, 0)
    assert path(p3, 1, 1) == (1,)


def test_path_requires_same_component():
    f = build_forest(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError, match="different components"):
        path(f, 0, 3)


def test_second_vertex(p3):
    assert second_vertex(p3, 1, 0) == 0
    assert second_vertex(p3, 0, 2) == 1
    star = build_forest(4, [(0, 1), (0, 2), (0, 3)])
    assert second_vertex(star, 2, 3) == 0
    with pytest.raises(ValidationError):
        second_vertex(p3, 1, 1)


def test_induced_subgraph(p3):
    sub = induced_subgraph(p3, {0, 2})
    assert sub.forest.vertex_count == 2
    assert sub.forest.edges == []
    assert sub.to_parent == [0, 2]
    assert sub.from_parent == {0: 0, 2: 1}


def test_induced_subgraph_of_forest_never_cycles():
    rng = random.Random(3)
    for edges in free_forests(7):
        f = build_forest(7, list(edges))
        keep = [v for v in range(7) if rng.random() < 0.6]
        induced_subgraph(f, keep)  # must not raise


def test_null_dimension():
    assert null_dimension(path_forest(3)) == 1
    assert null_dimension(path_forest(4)) == 0
    assert null_dimension(build_forest(1, [])) == 1


def test_restriction_check(m_p3):
    assert restriction_check(m_p3, sv(3, {0: 5, 2: -3}))
    assert restriction_check(m_p3, sv(3, {}))
    p4 = random_matrix_on(build_forest(4, [(0, 1), (1, 2), (2, 3)]), 2, QQ)
    assert not restriction_check(p4, sv(4, {0: 1}))
    assert restriction_check(p4, sv(4, {}))


def test_restriction_check_iff_null_membership():
    for trial in range(15):
        rng = random.Random(200 + trial)
        n = rng.randint(1, 25)
        m = random_matrix(n, trial, QQ, rng.randint(1, min(3, n)))
        x = random_null_vector(m, rng)
        assert restriction_check(m, x)
        info = analyze(m.pattern).support
        s_set = info.supp | info.core
        outside = [v for v in range(n) if v not in s_set]
        if outside:
            spoiled = x.add(sv(n, {outside[0]: 1}))
            assert not restriction_check(m, spoiled)
