import random
from fractions import Fraction

import pytest

from forestnull import (PrimeField, QQ, AcyclicMatrix, Basis, DiagonalScaling,
                        SparseVector, ValidationError, adjacency_matrix, analyze,
                        rank_basis, transfer_rank, transversal_scaling)
from forestnull.generate import random_forest_edges, random_matrix
from forestnull import kernel, oracle
from forestnull import rank as rank_module, scaling as scaling_module
from conftest import F, sv
from forest_helpers import same_span, supported_neighborhood_vector, tree_edges_scaling
from test_acceptance import matrix_on

GF = PrimeField(10007)


def test_supported_neighborhood_vector(m_p3, m_star):
    analysis = analyze(m_p3.pattern)
    assert supported_neighborhood_vector(m_p3, analysis, 1) == sv(3, {0: 3, 2: 5})
    assert supported_neighborhood_vector(m_star, analyze(m_star.pattern), 0) \
        == sv(4, {1: 1, 2: 2, 3: 3})
    with pytest.raises(ValidationError, match="support"):
        supported_neighborhood_vector(m_p3, analysis, 0)


def test_vertex_errors_renumber_from_one(m_p3):
    # the library counts from 0; one_based() restates for the file formats
    with pytest.raises(ValidationError) as exc:
        supported_neighborhood_vector(m_p3, analyze(m_p3.pattern), 2)
    assert str(exc.value) == "vertex 2 is a support vertex"
    assert str(exc.value.one_based()) == "vertex 3 is a support vertex"
    with pytest.raises(ValidationError) as exc:
        DiagonalScaling(3, QQ, [F(1), F(0), F(1)])
    assert str(exc.value) == "singular scaling: zero diagonal entry at vertex 1"
    assert str(exc.value.one_based()) == \
        "singular scaling: zero diagonal entry at vertex 2"


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
        assert same_span(basis, reference)
        # complementarity
        assert basis.dimension + oracle.dense_null_space(m).dimension == n


def test_core_vertices(m_p3, m_star):
    assert analyze(m_p3.pattern).support.core == {1}
    assert analyze(m_star.pattern).support.core == {0}
    assert analyze(p4_matrix().pattern).support.core == frozenset()


def test_transversal_scaling_carries_pattern_row_space():
    # the null scaling D of m maps the pattern's row basis onto a basis
    # of m's row space, vector by vector
    for trial in range(15):
        rng = random.Random(trial)
        n = rng.randint(2, 25)
        m = random_matrix(n, 400 + trial, QQ, rng.randint(1, min(3, n)))
        a = adjacency_matrix(m.pattern)
        analysis = analyze(m.pattern)
        d = transversal_scaling(m, analysis)
        scaled = [d.apply(vec) for vec in rank_basis(a).vectors]
        assert same_span(Basis(scaled), oracle.dense_row_space(m))
        # per-vector: scaled pattern vectors are scalar multiples of the
        # matrix's own structured vectors
        non_supp = [v for v in range(n) if v not in analysis.support.supp]
        for v in non_supp:
            sv_m = supported_neighborhood_vector(m, analysis, v)
            sv_a = d.apply(supported_neighborhood_vector(a, analysis, v))
            if sv_m.is_zero():
                assert sv_a.is_zero()
                continue
            ratios = {sv_a.entries[w] / sv_m.entries[w] for w in sv_m.entries}
            assert len(ratios) == 1 and 0 not in ratios


def test_in_row_space(m_p3):
    echelon = echelon_of(m_p3)
    assert echelon.contains(sv(3, {1: 1}))
    assert echelon.contains(sv(3, {0: 3, 2: 5}))
    assert not echelon.contains(sv(3, {0: 1}))
    assert echelon.contains(sv(3, {}))


def test_transfer_rank(m_p3):
    a = adjacency_matrix(m_p3.pattern)
    # D of m_p3 is (1, 1/3, 5/3); D of a is 1
    assert transfer_rank(a, m_p3, sv(3, {0: 1, 2: 1})) == sv(3, {0: 1, 2: F(5, 3)})
    assert transfer_rank(m_p3, a, sv(3, {0: 3, 2: 5})) == sv(3, {0: 3, 2: 3})
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
            assert echelon_of(other).contains(out)
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


def row_basis_sum(m):
    """The sum of the vectors of ``rank_basis(m)``, in one pass."""
    add, zero = m.field.add, m.field.zero
    entries = {}
    for vec in rank_basis(m).vectors:
        for v, a in vec.entries.items():
            entries[v] = add(entries.get(v, zero), a)
    return SparseVector(m.n, m.field, entries)


def test_transfer_rank_is_linear():
    field = CountingField(1000003)
    m = random_matrix(4096, 5, field, 4)
    other = matrix_on(m.pattern, 6, field)
    x = row_basis_sum(m)
    assert x.nnz() > m.n // 2
    field.ops = 0
    transfer_rank(m, other, x)
    assert field.ops <= 10 * m.n


def wide_rational_matrix(n, edges, rng):
    """Entries over QQ on the given tree with numerators and denominators
    uniform in [1, 10^6], far wider than the generator's [-9, 9]."""
    triples = []
    for u, v in edges:
        triples.append((u, v, F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))))
        triples.append((v, u, F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))))
    return AcyclicMatrix.from_entries(n, triples, QQ)


def test_transfer_rank_bits_grow_sublinearly_on_wide_rationals():
    # an output entry carries the edge factors of one tree path, not a
    # product over the whole component
    largest = []
    for n in (2 ** 11, 2 ** 13):
        rng = random.Random(n)
        edges = random_forest_edges(n, rng)
        m = wide_rational_matrix(n, edges, rng)
        other = wide_rational_matrix(n, edges, rng)
        out = transfer_rank(m, other, row_basis_sum(m))
        largest.append(max(q.numerator.bit_length() + q.denominator.bit_length()
                           for q in out.entries.values()))
    assert largest[1] < 2 * largest[0], largest


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

    # rank.py imports no analyze; set one there anyway, so that no call escapes the count
    for module in (rank_module, scaling_module):
        monkeypatch.setattr(module, "analyze", counted, raising=False)
    members = outsiders = 0
    for m, other, x in membership_cases():
        member = echelon_of(m).contains(x)
        del calls[:]
        if member:
            members += 1
            got = transfer_rank(m, other, x)
            assert len(calls) == 1
            # D_N D_m^-1 x, with D anchored where transfer_rank anchors it
            supp = oracle.dense_analysis(m).null_support
            d_m, d_n = tree_edges_scaling(m, supp), tree_edges_scaling(other, supp)
            mul, inv = m.field.mul, m.field.inv
            assert got == SparseVector(m.n, m.field, {
                v: mul(xv, mul(d_n[v], inv(d_m[v]))) for v, xv in x.entries.items()})
            assert echelon_of(other).contains(got)
        else:
            outsiders += 1
            with pytest.raises(ValidationError, match="not in the row space"):
                transfer_rank(m, other, x)
            assert len(calls) == 1
    assert members > 100 and outsiders > 100


def test_transfer_rank_keeps_support_and_round_trips():
    # D_N D_m^-1 is diagonal and nonsingular, and its inverse is the
    # transfer back
    moved = 0
    for m, other, x in membership_cases():
        if echelon_of(m).contains(x):
            got = transfer_rank(m, other, x)
            assert got.support() == x.support()
            assert transfer_rank(other, m, got) == x
            moved += 1
    assert moved > 100
