from fractions import Fraction

import pytest

from forestnull import (PrimeField, QQ, Basis, DiagonalScaling, SparseVector,
                        ValidationError, adjacency_matrix, AcyclicMatrix, build_forest)
from conftest import sv
from forest_helpers import entries, entry, to_list


def test_m_p3_pattern(m_p3):
    assert m_p3.pattern.edges == [(0, 1), (1, 2)]
    assert entry(m_p3, 1, 0) == 3
    assert entry(m_p3, 0, 0) == 0


def test_asymmetric_pattern_rejected():
    with pytest.raises(ValidationError, match="asymmetric"):
        AcyclicMatrix.from_entries(2, [(0, 1, 1)])


def test_diagonal_rejected():
    with pytest.raises(ValidationError, match="diagonal"):
        AcyclicMatrix.from_entries(2, [(1, 1, 1)])


def test_explicit_zero_rejected():
    with pytest.raises(ValidationError, match="zero entry"):
        AcyclicMatrix.from_entries(2, [(0, 1, 0), (1, 0, 1)])


def test_cyclic_pattern_rejected():
    triples = [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (0, 2, 1), (2, 0, 1)]
    with pytest.raises(ValidationError, match="cycle"):
        AcyclicMatrix.from_entries(3, triples)


def test_one_by_one_zero_matrix():
    m = AcyclicMatrix.from_entries(1, [])
    assert m.n == 1 and m.nnz() == 0
    assert m.pattern.component_count == 1


def test_apply_null_vector(m_p3):
    assert m_p3.apply(sv(3, {0: 5, 2: -3})).is_zero()


def test_apply_unit_vector(m_p3):
    assert m_p3.apply(sv(3, {0: 1})) == sv(3, {1: 3})
    assert m_p3.apply(SparseVector(3, QQ, {})).is_zero()


def test_apply_checks_dimensions(m_p3):
    with pytest.raises(ValidationError, match="dimension"):
        m_p3.apply(sv(4, {0: 1}))
    gf = PrimeField(5)
    with pytest.raises(ValidationError, match="field mismatch"):
        m_p3.apply(SparseVector(3, gf, {0: 1}))


def test_adjacency_matrix(p3):
    a = adjacency_matrix(p3)
    assert entry(a, 0, 1) == 1 and entry(a, 1, 0) == 1 and entry(a, 0, 2) == 0
    single = adjacency_matrix(build_forest(1, []))
    assert single.nnz() == 0
    p2 = adjacency_matrix(build_forest(2, [(0, 1)]))
    assert entries(p2) == {(0, 1): 1, (1, 0): 1}


def test_pattern_as_ones_equals_adjacency(m_p3):
    ones = AcyclicMatrix.from_entries(
        3, [(u, v, 1) for (u, v) in entries(m_p3)], QQ)
    assert ones == adjacency_matrix(m_p3.pattern)


def test_apply_matches_dense_product():
    import random
    from forestnull.generate import random_matrix

    rng = random.Random(11)
    for trial in range(25):
        n = rng.randint(1, 12)
        m = random_matrix(n, trial, QQ, components=rng.randint(1, min(3, n)))
        x = SparseVector(n, QQ, {v: Fraction(rng.randint(-5, 5))
                                 for v in range(n) if rng.random() < 0.5})
        dense = [[entry(m, u, v) for v in range(n)] for u in range(n)]
        xs = to_list(x)
        expected = [sum(dense[u][v] * xs[v] for v in range(n)) for u in range(n)]
        assert to_list(m.apply(x)) == expected


def test_sparse_vector_drops_zeros():
    x = SparseVector(3, QQ, {0: Fraction(0), 1: Fraction(2)})
    assert x.support() == {1}
    assert x.nnz() == 1


def test_sparse_vector_refuses_ids_and_values_it_cannot_hold():
    for key in (1.0, "a"):
        with pytest.raises(ValidationError) as exc:
            SparseVector(3, QQ, {key: 2})
        assert str(exc.value) == "vertex ids must be integers, got %r" % (key,)
    with pytest.raises(ValidationError, match="floating point"):
        SparseVector(3, QQ, {1: 0.5})
    gf = PrimeField(7)
    assert SparseVector(3, gf, {1: 7}).is_zero()
    assert SparseVector(3, gf, {1: 9}).entries == {1: 2}


@pytest.mark.parametrize("n", [2.5, -1, "3", None])
def test_sparse_vector_refuses_a_length_that_is_not_a_count(n):
    with pytest.raises(ValidationError) as exc:
        SparseVector(n, QQ, {0: 1} if n != -1 else {})
    assert str(exc.value) == "vector length must be a non-negative integer, got %r" % (n,)


def test_value_types_compare_by_value():
    gf = PrimeField(7)
    for make in (lambda n, field: SparseVector(n, field, {0: 1}),
                 lambda n, field: Basis([SparseVector(n, field, {0: 1})]),
                 lambda n, field: DiagonalScaling(n, field, [1] * n)):
        a = make(3, QQ)
        assert a == make(3, QQ)
        assert a != make(4, QQ) and a != make(3, gf)
        with pytest.raises(TypeError):
            hash(a)


def test_vector_dot_and_scale():
    x = sv(4, {0: 2, 2: 3})
    y = sv(4, {2: 5, 3: 1})
    assert x.dot(y) == 15
    assert x.scale(Fraction(1, 2)) == sv(4, {0: 1, 2: Fraction(3, 2)})


def test_transpose(m_p3):
    t = m_p3.transpose()
    assert entry(t, 0, 1) == 3 and entry(t, 1, 0) == 2
    assert t.pattern.edges == m_p3.pattern.edges
    # both objects are immutable, so the transpose shares the value arrays
    assert t.row_flat is m_p3.col_flat and t.col_flat is m_p3.row_flat


def test_same_pattern(m_p3):
    assert m_p3.pattern == m_p3.transpose().pattern
    other_values = AcyclicMatrix.from_entries(
        3, [(2, 1, 9), (1, 2, -4), (1, 0, 1), (0, 1, 1)], PrimeField(11))
    assert m_p3.pattern == other_values.pattern
    assert m_p3.pattern == build_forest(3, [(2, 1), (0, 1)])
    plus_isolated = AcyclicMatrix.from_entries(4, [(0, 1, 2), (1, 0, 3), (1, 2, 5), (2, 1, 7)])
    assert m_p3.pattern != plus_isolated.pattern
    assert plus_isolated.pattern != m_p3.pattern
    other_edges = AcyclicMatrix.from_entries(3, [(0, 1, 2), (1, 0, 3), (0, 2, 5), (2, 0, 7)])
    assert m_p3.pattern != other_edges.pattern and m_p3.pattern != m_p3.pattern.edges


def test_matrix_equality_compares_pattern_and_values(m_p3):
    again = AcyclicMatrix.from_entries(3, [(2, 1, 7), (1, 2, 5), (1, 0, 3), (0, 1, 2)])
    assert again == m_p3
    assert m_p3.transpose() != m_p3
    wider = AcyclicMatrix.from_entries(4, [(0, 1, 2), (1, 0, 3), (1, 2, 5), (2, 1, 7)])
    assert wider != m_p3 and m_p3 != wider
