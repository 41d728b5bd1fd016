import random

import pytest

from forestnull import (OracleBoundError, QQ, AcyclicMatrix, Basis,
                        adjacency_matrix, build_forest, maximum_matching)
from forestnull import oracle
from conftest import sv
from treegen import free_trees


def path_matrix(n, field=QQ):
    return adjacency_matrix(build_forest(n, [(i, i + 1) for i in range(n - 1)]), field)


def test_dense_null_space_m_p3(m_p3):
    basis = oracle.dense_null_space(m_p3)
    assert basis.dimension == 1
    assert oracle.same_span(basis, Basis([sv(3, {0: 5, 2: -3})]))


def test_dense_null_space_p4_empty():
    assert oracle.dense_null_space(path_matrix(4)).dimension == 0


def test_dense_null_space_zero_matrix():
    basis = oracle.dense_null_space(AcyclicMatrix.from_entries(1, []))
    assert [v.entries for v in basis.vectors] == [{0: 1}]


def test_rank_values(m_p3):
    assert oracle.rank(m_p3) == 2
    star = adjacency_matrix(build_forest(4, [(0, 1), (0, 2), (0, 3)]))
    assert oracle.rank(star) == 2
    assert oracle.rank(AcyclicMatrix.from_entries(1, [])) == 0


def test_row_space(m_p3):
    rows = oracle.dense_row_space(m_p3)
    assert rows.dimension == 2
    assert oracle.same_span(rows, Basis([sv(3, {1: 1}), sv(3, {0: 3, 2: 5})]))


def test_same_span():
    a = Basis([sv(3, {0: 1, 2: -1})])
    b = Basis([sv(3, {0: 5, 2: -5})])
    assert oracle.same_span(a, a)
    assert oracle.same_span(a, b)
    assert not oracle.same_span(Basis([sv(3, {0: 1})]), Basis([sv(3, {1: 1})]))
    assert not oracle.same_span(a, Basis([]))


def test_min_support_total():
    star = adjacency_matrix(build_forest(4, [(0, 1), (0, 2), (0, 3)]))
    assert oracle.min_support_total(star) == 4
    assert oracle.min_support_total(path_matrix(5)) == 3
    assert oracle.min_support_total(path_matrix(4)) == 0


def test_support_oracles():
    p3 = build_forest(3, [(0, 1), (1, 2)])
    assert oracle.support_by_matching(p3) == {0, 2}
    assert oracle.support_by_mis(p3) == {0, 2}
    p4 = build_forest(4, [(0, 1), (1, 2), (2, 3)])
    assert oracle.support_by_matching(p4) == frozenset()
    assert oracle.support_by_mis(p4) == frozenset()
    single = build_forest(1, [])
    assert oracle.support_by_matching(single) == {0}
    assert oracle.support_by_mis(single) == {0}


def test_bounds_are_enforced(monkeypatch):
    big = path_matrix(11)
    with pytest.raises(OracleBoundError):
        oracle.min_support_total(big)
    with pytest.raises(OracleBoundError):
        oracle.support_by_mis(build_forest(13, [(i, i + 1) for i in range(12)]))
    monkeypatch.setenv("FORESTNULL_ORACLE_BOUND", "5")
    with pytest.raises(OracleBoundError):
        oracle.dense_null_space(path_matrix(6))
    monkeypatch.setenv("FORESTNULL_ORACLE_BOUND", "600")
    assert oracle.oracle_bound() == 600


def test_dp_matching_agrees_with_fast_path():
    from forestnull.generate import random_forest_edges

    for trial in range(30):
        rng = random.Random(trial)
        n = rng.randint(1, 50)
        f = build_forest(n, random_forest_edges(n, rng, rng.randint(1, min(4, n))))
        assert oracle._dp_matching_number(f.adjacency) == maximum_matching(f).nu


def test_dimension_laws_small_trees():
    for n in range(1, 8):
        for idx, edges in enumerate(free_trees(n)):
            f = build_forest(n, list(edges))
            m = random_matrix_on_pattern(f, idx)
            analysis = oracle.dense_analysis(m)
            nu = maximum_matching(f).nu
            assert analysis.rank == 2 * nu
            assert analysis.null_basis.dimension == n - 2 * nu


def random_matrix_on_pattern(f, seed):
    from fractions import Fraction

    rng = random.Random(seed)
    triples = []
    for u, v in f.edges:
        triples.append((u, v, Fraction(rng.randint(1, 9), rng.randint(1, 9))))
        triples.append((v, u, Fraction(rng.randint(1, 9), rng.randint(1, 9))))
    return AcyclicMatrix.from_entries(f.vertex_count, triples, QQ)
