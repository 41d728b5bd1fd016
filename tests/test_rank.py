import random
from fractions import Fraction

import pytest

from forestnull import (PrimeField, QQ, AcyclicMatrix, Basis, SparseVector,
                        ValidationError, adjacency_matrix, analyze, build_forest,
                        in_row_space, null_basis, rank_basis, rank_normalization,
                        supported_neighborhood_vector, transfer_rank)
from forestnull.generate import random_matrix
from forestnull import kernel, oracle
from forestnull import rank as rank_module, scaling as scaling_module
from conftest import sv
from test_acceptance import Corpus, matrix_on
from treegen import free_trees

GF = PrimeField(10007)


def vertex_normalization(m, v):
    """Diagonal with, at each w in v's component, the entry of row v
    toward w (the entry at v's first step on the path to w); 1 at v and
    outside the component (test-only reference)."""
    diag = [m.field.one] * m.n
    neighbors, offsets = m.pattern.neighbors, m.pattern.offsets
    seen = bytearray(m.n)
    seen[v] = 1
    for t, factor in m.row_items(v):
        # Everything reached through neighbor t gets the (v, t) entry.
        stack = [t]
        seen[t] = 1
        diag[t] = factor
        while stack:
            w = stack.pop()
            for j in range(offsets[w], offsets[w + 1]):
                u = neighbors[j]
                if not seen[u]:
                    seen[u] = 1
                    diag[u] = factor
                    stack.append(u)
    return diag


def product_rank_normalization(m, supp):
    """The row scaling by its definition: the entrywise product of the
    vertex normalizations over all non-support vertices, O(n^2)."""
    mul = m.field.mul
    diag = [m.field.one] * m.n
    for v in range(m.n):
        if v not in supp:
            diag = [mul(a, b) for a, b in zip(diag, vertex_normalization(m, v))]
    return diag


def test_supported_neighborhood_vector(m_p3, m_star):
    analysis = analyze(m_p3.pattern)
    assert supported_neighborhood_vector(m_p3, analysis, 1) == sv(3, {0: 3, 2: 5})
    assert supported_neighborhood_vector(m_star, analyze(m_star.pattern), 0) \
        == sv(4, {1: 1, 2: 2, 3: 3})
    with pytest.raises(ValidationError, match="support"):
        supported_neighborhood_vector(m_p3, analysis, 0)


def p4_matrix():
    return AcyclicMatrix.from_entries(
        4, [(0, 1, 2), (1, 0, 3), (1, 2, 5), (2, 1, 7), (2, 3, 4), (3, 2, 9)])


def test_supported_neighborhood_vector_zero_when_no_support():
    p4 = p4_matrix()
    analysis = analyze(p4.pattern)
    for v in range(4):
        assert supported_neighborhood_vector(p4, analysis, v).is_zero()


def test_rank_basis_m_p3(m_p3):
    basis = rank_basis(m_p3)
    assert [v.entries for v in basis.vectors] == [{1: 1}, {0: 3, 2: 5}]
    assert basis.dimension == 2


def test_rank_basis_adjacency(p3):
    basis = rank_basis(adjacency_matrix(p3))
    assert [v.entries for v in basis.vectors] == [{1: 1}, {0: 1, 2: 1}]


def test_rank_basis_zero_matrix():
    m = AcyclicMatrix.from_entries(1, [])
    assert rank_basis(m).vectors == []


def test_rank_basis_spans_row_space():
    for trial in range(25):
        rng = random.Random(trial)
        n = rng.randint(1, 40)
        field = QQ if trial % 2 else GF
        m = random_matrix(n, 71 * trial + 5, field, rng.randint(1, min(3, n)))
        basis = rank_basis(m)
        nu = analyze(m.pattern).matching.nu
        assert basis.dimension == 2 * nu
        reference = oracle.dense_row_space(m)
        assert oracle.same_span(basis, reference)
        # complementarity
        assert basis.dimension + oracle.dense_null_space(m).dimension == n


def test_core_vertices(m_p3, m_star):
    assert analyze(m_p3.pattern).support.core == {1}
    assert analyze(m_star.pattern).support.core == {0}
    assert analyze(p4_matrix().pattern).support.core == frozenset()


def test_vertex_normalization(m_p3, m_star):
    assert vertex_normalization(m_p3, 1) == [3, 1, 5]
    assert vertex_normalization(m_star, 0) == [1, 1, 2, 3]
    a = adjacency_matrix(m_p3.pattern)
    assert vertex_normalization(a, 1) == [1, 1, 1]


def test_rank_normalization(m_p3):
    r = rank_normalization(m_p3, analyze(m_p3.pattern))
    assert r.diag == [3, 1, 5]
    assert r.apply(sv(3, {0: 1, 2: 1})) == sv(3, {0: 3, 2: 5})
    a = adjacency_matrix(m_p3.pattern)
    assert rank_normalization(a, analyze(a.pattern)).diag == [1, 1, 1]


def test_rank_normalization_is_product_of_vertex_normalizations():
    # rerooting walk == literal product, on every tree up to 8 vertices
    # over both fields and on the acceptance corpus
    instances = []
    for n in range(1, 9):
        for idx, edges in enumerate(free_trees(n)):
            f = build_forest(n, list(edges))
            instances.append(matrix_on(f, 31 * n + idx, QQ))
            instances.append(matrix_on(f, 77 * n + idx, GF))
    instances += Corpus().instances
    for m in instances:
        analysis = analyze(m.pattern)
        assert rank_normalization(m, analysis).diag == \
            product_rank_normalization(m, analysis.support.supp)


def test_rank_normalization_carries_pattern_row_space():
    # scaled pattern row basis spans the matrix row space, vector by vector
    for trial in range(15):
        rng = random.Random(trial)
        n = rng.randint(2, 25)
        m = random_matrix(n, 400 + trial, QQ, rng.randint(1, min(3, n)))
        a = adjacency_matrix(m.pattern)
        analysis = analyze(m.pattern)
        r = rank_normalization(m, analysis)
        scaled = [r.apply(vec) for vec in rank_basis(a).vectors]
        assert oracle.same_span(Basis(scaled), oracle.dense_row_space(m))
        # per-vector: scaled pattern vectors are scalar multiples of the
        # matrix's own structured vectors
        non_supp = [v for v in range(n) if v not in analysis.support.supp]
        for v in non_supp:
            sv_m = supported_neighborhood_vector(m, analysis, v)
            sv_a = r.apply(supported_neighborhood_vector(a, analysis, v))
            if sv_m.is_zero():
                assert sv_a.is_zero()
                continue
            ratios = {sv_a.entries[w] / sv_m.entries[w] for w in sv_m.entries}
            assert len(ratios) == 1 and 0 not in ratios


def test_in_row_space(m_p3):
    assert in_row_space(m_p3, sv(3, {1: 1}))
    assert in_row_space(m_p3, sv(3, {0: 3, 2: 5}))
    assert not in_row_space(m_p3, sv(3, {0: 1}))
    assert in_row_space(m_p3, sv(3, {}))


def test_transfer_rank(m_p3):
    a = adjacency_matrix(m_p3.pattern)
    assert transfer_rank(a, m_p3, sv(3, {0: 1, 2: 1})) == sv(3, {0: 3, 2: 5})
    assert transfer_rank(m_p3, a, sv(3, {0: 3, 2: 5})) == sv(3, {0: 1, 2: 1})
    x = sv(3, {1: 7})
    assert transfer_rank(m_p3, m_p3, x) == x


def test_transfer_rank_validates(m_p3, m_star):
    with pytest.raises(ValidationError, match="pattern"):
        transfer_rank(m_p3, m_star, sv(3, {1: 1}))
    with pytest.raises(ValidationError, match="row space"):
        transfer_rank(m_p3, m_p3, sv(3, {0: 1}))


def test_transfer_rank_round_trip():
    for trial in range(10):
        rng = random.Random(trial)
        n = rng.randint(2, 20)
        m = random_matrix(n, trial, QQ, rng.randint(1, min(2, n)))
        other = random_matrix(n, 1000 + trial, QQ, 1)
        if m.pattern.edges != other.pattern.edges:
            # rebuild the second matrix on m's pattern
            triples = []
            for u, v in m.pattern.edges:
                triples.append((u, v, Fraction(rng.randint(1, 9))))
                triples.append((v, u, Fraction(rng.randint(1, 9))))
            other = AcyclicMatrix.from_entries(n, triples, QQ)
        for row_vec in oracle.dense_row_space(m).vectors:
            out = transfer_rank(m, other, row_vec)
            assert in_row_space(other, out)
            assert transfer_rank(other, m, out) == row_vec


class CountingField(PrimeField):
    """GF(p) that counts its multiplications and inversions."""

    def __init__(self, p):
        super().__init__(p)
        self.ops = 0

    def mul(self, a, b):
        self.ops += 1
        return super().mul(a, b)

    def inv(self, a):
        self.ops += 1
        return super().inv(a)


def test_rank_normalization_is_linear():
    field = CountingField(1000003)
    m = random_matrix(4096, 5, field)
    analysis = analyze(m.pattern)
    field.ops = 0
    rank_normalization(m, analysis)
    assert field.ops <= 6 * m.n


def transfer_rank_through_null_basis(m, n_mat, x):
    """``transfer_rank`` as it was when membership was decided by
    dotting x with m's pulled-back null basis: the reference for the
    rule that decides it on the pattern."""
    if any(x.dot(b) for b in null_basis(m).vectors):
        raise ValidationError("vector is not in the row space of the source matrix")
    analysis = analyze(m.pattern)
    r_m = rank_normalization(m, analysis)
    return rank_normalization(n_mat, analysis).apply(r_m.apply_inverse(x))


def membership_cases():
    """Seeded matrices with n <= 60 and 1-4 components over three fields,
    a second matrix on each pattern, and vectors in and out of the row
    space: random combinations of the oracle's row basis, and such a
    combination plus e_w at a support vertex w (a null vector is
    nonzero at w, so e_w is not in the row space)."""
    for field in (QQ, PrimeField(7), PrimeField(1000003)):
        for trial in range(25):
            rng = random.Random(trial)
            n = rng.randint(1, 60)
            m = random_matrix(n, 500 + trial, field, rng.randint(1, min(4, n)))
            other = matrix_on(m.pattern, 900 + trial, field)
            rows = oracle.dense_row_space(m).vectors
            supp = sorted(analyze(m.pattern).support.supp)
            for _ in range(3):
                x = SparseVector(n, field, {})
                for vec in rows:
                    x = x.add(vec.scale(field.coerce(rng.randint(-5, 5))))
                yield m, other, x
                if supp:
                    yield m, other, x.add(sv(n, {rng.choice(supp): 1}, field))


def echelon_of(m):
    echelon = oracle._Echelon(m.field)
    for vec in oracle.dense_row_space(m).vectors:
        echelon.insert(vec)
    return echelon


def test_row_space_membership_agrees_with_the_oracle(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return kernel.analyze(f)

    for module in (rank_module, scaling_module):
        monkeypatch.setattr(module, "analyze", counted)
    members = outsiders = 0
    for m, other, x in membership_cases():
        member = echelon_of(m).contains(x)
        del calls[:]
        assert in_row_space(m, x) == member
        assert len(calls) == 1
        del calls[:]
        if member:
            members += 1
            got = transfer_rank(m, other, x)
            assert len(calls) == 1
            assert got == transfer_rank_through_null_basis(m, other, x)
            assert echelon_of(other).contains(got)
        else:
            outsiders += 1
            with pytest.raises(ValidationError, match="not in the row space"):
                transfer_rank(m, other, x)
            assert len(calls) == 1
            with pytest.raises(ValidationError, match="not in the row space"):
                transfer_rank_through_null_basis(m, other, x)
    assert members > 100 and outsiders > 100
