import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from forestnull import (PrimeField, QQ, AcyclicMatrix, DiagonalScaling, SparseVector,
                        ValidationError, adjacency_matrix, build_forest, maximum_matching,
                        rank_basis, support, transfer_null, transfer_rank,
                        transversal_scaling)
from forestnull.generate import random_forest_edges, random_matrix
from forestnull import oracle
from conftest import sv
from forest_helpers import (entries, neighbors_of, null_basis, path, pattern_basis,
                            same_component, tree_edges_scaling)
from test_acceptance import Corpus, matrix_on
from test_rank import CountingField
from treegen import free_trees

GF = PrimeField(10007)


def direct_path_scaling(m, supp, v):
    """The scaling anchored at v computed straight from its per-path
    product definition, one full path walk per vertex; 1 outside v's
    component (slow, test-only)."""
    field = m.field
    values = entries(m)
    diag = [field.one] * m.n
    for w in range(m.n):
        if w == v or not same_component(m.pattern, v, w):
            continue
        acc = field.one
        walk = path(m.pattern, v, w)
        for s, t in zip(walk, walk[1:]):
            if t in supp:
                acc = field.mul(acc, values[(s, t)])
            elif s in supp:
                acc = field.mul(acc, field.inv(values[(t, s)]))
        diag[w] = acc
    return diag


def direct_null_scaling(m):
    """Every component with support anchored at its smallest support
    vertex, by per-path products; 1 on components without support."""
    supp = support(m.pattern, maximum_matching(m.pattern)).supp
    component_id = m.pattern.component_id
    anchors = {}
    for v in sorted(supp):
        anchors.setdefault(component_id[v], v)
    diag = [m.field.one] * m.n
    for c, v in anchors.items():
        for w, x in enumerate(direct_path_scaling(m, supp, v)):
            if component_id[w] == c:
                diag[w] = x
    return diag


def random_null_vector(m, rng):
    """A random element of Null(m), assembled from the oracle basis."""
    basis = oracle.dense_null_space(m)
    out = SparseVector(m.n, m.field, {})
    for vec in basis.vectors:
        coef = m.field.coerce(rng.randint(-6, 6)) if m.field == QQ \
            else rng.randrange(GF.p)
        out = out.add(vec.scale(coef))
    return out


def test_vertex_scaling_m_p3(m_p3):
    d = transversal_scaling(m_p3, maximum_matching(m_p3.pattern))
    assert d.diag == [Fraction(1), Fraction(1, 3), Fraction(5, 3)]
    scaled = d.apply(sv(3, {0: 5, 2: -3}))
    assert scaled == sv(3, {0: 5, 2: -5})
    assert adjacency_matrix(m_p3.pattern).apply(scaled).is_zero()


def test_vertex_scaling_m_star(m_star):
    d = transversal_scaling(m_star, maximum_matching(m_star.pattern))
    assert d.diag == [1, 1, 2, 3]
    x = sv(4, {1: -2, 2: 1})
    assert m_star.apply(x).is_zero()
    assert adjacency_matrix(m_star.pattern).apply(d.apply(x)).is_zero()


def test_vertex_scaling_of_adjacency_is_identity(p3):
    a = adjacency_matrix(p3)
    assert transversal_scaling(a, maximum_matching(p3)).diag == [1, 1, 1]


def test_diagonal_scaling_invariants(m_p3):
    from fractions import Fraction as Fr

    with pytest.raises(ValidationError, match="singular"):
        DiagonalScaling(2, QQ, [Fr(1), Fr(0)])
    with pytest.raises(ValidationError, match="vertex 1$"):
        DiagonalScaling(3, PrimeField(7), [1, 7, 1])
    assert DiagonalScaling(2, PrimeField(7), [8, -1]).diag == [1, 6]
    d = DiagonalScaling(3, QQ, [Fr(2), Fr(-1, 3), Fr(5)])
    x = sv(3, {0: 7, 2: -2})
    assert d.apply_inverse(d.apply(x)) == x
    assert d.apply(d.apply_inverse(x)) == x
    assert d.apply_inverse(x) == sv(3, {0: Fr(7, 2), 2: Fr(-2, 5)})


def test_vertex_scaling_matches_direct_path_products():
    # edge walk == literal per-path products, on every tree up to 8
    # vertices over both fields and on the acceptance corpus
    instances = []
    for n in range(1, 9):
        for idx, edges in enumerate(free_trees(n)):
            f = build_forest(n, list(edges))
            instances.append(matrix_on(f, 31 * n + idx, QQ))
            instances.append(matrix_on(f, 77 * n + idx, GF))
    instances += Corpus().instances
    for m in instances:
        got = transversal_scaling(m, maximum_matching(m.pattern))
        assert got.diag == direct_null_scaling(m)


def deep_transversal_matrix(k, field, seed):
    """An odd path of 2k + 1 vertices whose sweep root 0 is its second
    vertex and whose transversal vertex 1 is its far end, 2k - 1 edges
    below the root."""
    rng = random.Random(seed)
    labels = [2, 0] + list(range(3, 2 * k + 1)) + [1]
    triples = []
    for a, b in zip(labels, labels[1:]):
        for u, v in ((a, b), (b, a)):
            x = (Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))
                 if field == QQ else rng.randrange(1, field.p))
            triples.append((u, v, x))
    return AcyclicMatrix.from_entries(2 * k + 1, triples, field)


def test_sweep_scaling_equals_tree_edge_walk():
    # value and type, on the acceptance corpus and on seeded forests up
    # to n = 3000 with up to 7 components over three fields
    instances = list(Corpus().instances)
    rng = random.Random(97)
    for field in (QQ, PrimeField(7), PrimeField(1000003)):
        for trial in range(10):
            n = 3000 if trial == 0 else int(3000 ** rng.random())
            instances.append(random_matrix(n, rng.randrange(10 ** 6), field,
                                           rng.randint(1, min(7, n))))
        instances.append(deep_transversal_matrix(40, field, 3))
    for m in instances:
        matching = maximum_matching(m.pattern)
        scaling = transversal_scaling(m, matching)
        got = scaling.diag
        want = tree_edges_scaling(m, support(m.pattern, matching).supp)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
        # built without the constructor's checks, which it would pass
        assert scaling == DiagonalScaling(m.n, m.field, list(got))


def test_transversal_scaling_is_linear_below_a_deep_transversal():
    field = CountingField(1000003)
    m = deep_transversal_matrix(2048, field, 5)
    f = m.pattern
    matching = maximum_matching(f)
    supp = support(f, matching).supp
    assert min(supp) == 1
    depth, v = 0, 1
    while f.parent[v] >= 0:
        depth, v = depth + 1, f.parent[v]
    assert (v, depth) == (0, m.n - 2)
    field.ops = field.inversions = 0
    d = transversal_scaling(m, matching)
    assert field.ops <= 4 * m.n
    # den changes only at the root and below a step out of the support
    assert field.inversions <= 1 + sum(f.parent[t] in supp for t in range(m.n)) <= m.n // 2 + 1
    assert d.diag[1] == 1


def random_matrix_on(f, seed, field):
    """Random values on a fixed forest pattern."""
    rng = random.Random(seed)
    triples = []
    for u, v in f.edges:
        for a, b in ((u, v), (v, u)):
            if field == QQ:
                val = Fraction(rng.choice([k for k in range(-9, 10) if k]),
                               rng.choice([k for k in range(1, 10)]))
            else:
                val = rng.randrange(1, field.p)
            triples.append((a, b, val))
    return AcyclicMatrix.from_entries(f.vertex_count, triples, field)


def test_proportionality_law():
    # D_w / D_w' == M[u, w] / M[u, w'] for support neighbors w, w' of u
    for n in range(3, 8):
        for idx, edges in enumerate(free_trees(n)):
            f = build_forest(n, list(edges))
            matching = maximum_matching(f)
            supp = support(f, matching).supp
            if not supp:
                continue
            m = random_matrix_on(f, seed=1000 + idx, field=QQ)
            d = transversal_scaling(m, matching).diag
            values = entries(m)
            for u in range(n):
                nbrs = [w for w in neighbors_of(f, u) if w in supp]
                for w, w2 in zip(nbrs, nbrs[1:]):
                    assert d[w] / d[w2] == values[(u, w)] / values[(u, w2)]


def test_support_transversal(m_p3):
    # D = 1 at each component's transversal vertex, its smallest support
    # vertex, and at no other support vertex on these values
    def anchors(m):
        matching = maximum_matching(m.pattern)
        d = transversal_scaling(m, matching).diag
        return tuple(v for v in sorted(support(m.pattern, matching).supp) if d[v] == 1)

    assert anchors(m_p3) == (0,)
    p4 = random_matrix_on(build_forest(4, [(0, 1), (1, 2), (2, 3)]), 5, QQ)
    assert anchors(p4) == ()
    two = two_component_p3_matrix()
    assert anchors(two) == (0, 3)
    # P3 + P2 + P2 + an isolated vertex: the P2s carry no support and keep D = 1
    triples = [(0, 1, 2), (1, 0, 3), (1, 2, 5), (2, 1, 7)]
    triples += [(3, 4, 2), (4, 3, 3), (5, 6, 4), (6, 5, 5)]
    m = AcyclicMatrix.from_entries(8, triples)
    assert anchors(m) == (0, 7)
    assert transversal_scaling(m, maximum_matching(m.pattern)).diag[3:] == [1] * 5


def two_component_p3_matrix():
    triples = [(0, 1, 2), (1, 0, 3), (1, 2, 5), (2, 1, 7)]
    triples += [(u + 3, v + 3, x) for u, v, x in triples]
    return AcyclicMatrix.from_entries(6, triples)


def test_transversal_scaling_componentwise(m_p3):
    d = transversal_scaling(m_p3, maximum_matching(m_p3.pattern))
    assert d.diag == [Fraction(1), Fraction(1, 3), Fraction(5, 3)]

    two = two_component_p3_matrix()
    d2 = transversal_scaling(two, maximum_matching(two.pattern))
    assert d2.diag == [Fraction(1), Fraction(1, 3), Fraction(5, 3)] * 2

    p2 = random_matrix_on(build_forest(2, [(0, 1)]), 9, QQ)
    d3 = transversal_scaling(p2, maximum_matching(p2.pattern))
    assert d3.diag == [1, 1]


def test_null_basis_m_p3(m_p3):
    basis = null_basis(m_p3)
    assert [v.entries for v in basis.vectors] == [{0: 1, 2: Fraction(-3, 5)}]


def test_null_basis_m_star(m_star):
    basis = null_basis(m_star)
    assert [v.entries for v in basis.vectors] == [{2: 1, 1: -2}, {3: 1, 1: -3}]
    for vec in basis.vectors:
        assert m_star.apply(vec).is_zero()


def assert_dual_to_exposed(m, basis):
    """Vector k is 1 at exposed vertex u_k, 0 at every other exposed
    vertex, and annihilated by m."""
    exposed = maximum_matching(m.pattern).exposed
    assert basis.dimension == len(exposed)
    for u, vec in zip(exposed, basis.vectors):
        assert vec.get(u) == m.field.one
        assert not any(vec.get(e) for e in exposed if e != u)
        assert m.apply(vec).is_zero()


def test_null_basis_of_adjacency_is_pattern_basis():
    # a basis of null(A) dual to the exposed vertices is unique, so the
    # pattern's {-1, 0, +1} basis, which has that identity pattern, is
    # exactly the walk's output once it passes these checks
    for n in range(1, 8):
        for edges in free_trees(n):
            f = build_forest(n, list(edges))
            a = adjacency_matrix(f)
            basis = null_basis(a)
            assert basis.dimension == n - oracle.dense_analysis(a).rank
            assert_dual_to_exposed(a, basis)
            for vec in basis.vectors:
                assert set(vec.entries.values()) <= {1, -1}


def test_null_basis_support_and_quality_preserved():
    for trial in range(25):
        rng = random.Random(trial)
        n = rng.randint(1, 60)
        field = QQ if trial % 2 else GF
        m = random_matrix(n, 777 + trial, field, rng.randint(1, min(4, n)))
        fast = null_basis(m)
        pattern = pattern_basis(m.pattern, field)
        assert sum(v.nnz() for v in fast.vectors) == \
            sum(v.nnz() for v in pattern.vectors)
        assert [v.support() for v in fast.vectors] == \
            [v.support() for v in pattern.vectors]
        for vec in fast.vectors:
            assert m.apply(vec).is_zero()


NULL_FIELDS = (QQ, PrimeField(7), PrimeField(1000003))


def random_tree_edges(size, rng, first):
    return [(first + rng.randrange(i), first + i) for i in range(1, size)]


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(NULL_FIELDS),
       st.lists(st.tuples(st.integers(1, 9), st.booleans()), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_null_basis_is_dual_to_the_exposed_vertices(field, components, rng):
    # a component is a random tree, or, when flagged, that tree with a
    # pendant leaf on every vertex: it has a perfect matching, so no
    # exposed vertex and no vector
    edges, perfect, n = [], set(), 0
    for size, has_perfect_matching in components:
        edges += random_tree_edges(size, rng, n)
        if has_perfect_matching:
            edges += [(n + i, n + size + i) for i in range(size)]
            perfect.update(range(n, n + 2 * size))
            size *= 2
        n += size
    labels = list(range(n))
    rng.shuffle(labels)
    f = build_forest(n, [(labels[u], labels[v]) for u, v in edges])
    m = random_matrix_on(f, rng.randrange(2 ** 32), field)
    basis = null_basis(m)
    assert_dual_to_exposed(m, basis)
    assert not set(maximum_matching(f).exposed) & {labels[v] for v in perfect}
    assert [v.support() for v in basis.vectors] == \
        [v.support() for v in pattern_basis(f, field).vectors]


def test_null_basis_is_a_multiple_of_the_pulled_back_pattern_basis():
    # differential check against the route the walk replaced: D^-1 b for
    # the transversal scaling D and the pattern vector b
    for trial in range(60):
        rng = random.Random(trial)
        n = rng.randint(1, 80)
        field = NULL_FIELDS[trial % 3]
        m = random_matrix(n, 4242 + trial, field, rng.randint(1, min(4, n)))
        d = transversal_scaling(m, maximum_matching(m.pattern))
        pattern = pattern_basis(m.pattern, field)
        for x, b in zip(null_basis(m).vectors, pattern.vectors, strict=True):
            y = d.apply_inverse(b)
            assert x.support() == y.support()
            v = next(iter(y.entries))
            c = field.mul(x.get(v), field.inv(y.get(v)))
            assert c and x == y.scale(c)


def test_null_basis_entries_take_linear_bits():
    # every entry of a vector fits in 2 * nnz * b bits, numerator and
    # denominator alike, with b the largest input size; anchoring at a
    # transversal vertex instead carries the edge product of the path
    # from it into every entry
    for seed in range(6):
        for components in (1, 3):
            m = random_matrix(2 ** 11, seed, QQ, components)
            b = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                    for x in m.row_flat)
            for vec in null_basis(m).vectors:
                bound = 2 * vec.nnz() * b
                for x in vec.entries.values():
                    assert abs(x.numerator).bit_length() <= bound
                    assert x.denominator.bit_length() <= bound


def test_null_space_transfer_both_directions():
    # a matrix null vector scales into the pattern's null space and back
    for trial in range(20):
        rng = random.Random(50 + trial)
        n = rng.randint(2, 40)
        field = QQ if trial % 2 else GF
        m = random_matrix(n, 31 * trial, field, rng.randint(1, min(3, n)))
        a = adjacency_matrix(m.pattern, field)
        d = transversal_scaling(m, maximum_matching(m.pattern))
        x = random_null_vector(m, rng)
        assert m.apply(x).is_zero()
        assert a.apply(d.apply(x)).is_zero()
        y = random_null_vector(a, rng)
        assert m.apply(d.apply_inverse(y)).is_zero()
        assert d.apply(x).support() == x.support()


def test_support_equality_across_values():
    # the null support only depends on the pattern
    for trial in range(12):
        rng = random.Random(trial)
        n = rng.randint(1, 30)
        m = random_matrix(n, 900 + trial, QQ, rng.randint(1, min(3, n)))
        a = adjacency_matrix(m.pattern)
        combinatorial = support(m.pattern, maximum_matching(m.pattern)).supp
        assert oracle.dense_analysis(m).null_support == combinatorial
        assert oracle.dense_analysis(a).null_support == combinatorial


def test_transfer_null_is_linear():
    # the walk multiplies only: the transfer inverts one product per
    # entry of x
    field = CountingField(1000003)
    m = random_matrix(4096, 5, field, 4)
    other = matrix_on(m.pattern, 6, field)
    vectors = null_basis(m).vectors
    x = SparseVector(m.n, field, {})
    for vec in vectors:
        x = x.add(vec)
    assert x.nnz() > m.n // 4
    for y in (x, vectors[0]):
        field.ops = field.inversions = 0
        transfer_null(m, other, y)
        assert field.ops <= 10 * m.n
        assert field.inversions <= y.nnz()


def combination(zero, vectors, rng):
    """A random combination of vectors, zero when every draw is 0."""
    out, field = zero, zero.field
    for vec in vectors:
        out = out.add(vec.scale(field.coerce(rng.randint(-2, 2))))
    return out


def test_transfers_equal_two_scalings_applied_in_turn():
    # differential check against the code the one walk replaced: both
    # transversal scalings, then DiagonalScaling.apply and apply_inverse
    without_support = 0  # forests with a component that has no support
    for field in NULL_FIELDS:
        for trial in range(12):
            rng = random.Random(trial)
            k = rng.randint(1, 3 if trial % 2 else 4)
            size = rng.randint(k, 40)
            edges = random_forest_edges(size, rng, k)
            if trial % 2:  # one more component, a path with a perfect matching
                edges += [(size + i, size + i + 1) for i in range(3)]
            f = build_forest(size + 4 * (trial % 2), edges)
            m, other = matrix_on(f, 2 * trial, field), matrix_on(f, 2 * trial + 1, field)
            matching = maximum_matching(f)
            supp = support(f, matching).supp
            d_m, d_n = transversal_scaling(m, matching), transversal_scaling(other, matching)
            # both scalings share the walk under test: pin them to a walk of its own
            for a, d in ((m, d_m), (other, d_n)):
                assert d.diag == tree_edges_scaling(a, supp)
            with_support = {f.component_id[v] for v in supp}
            without_support += len(with_support) < f.component_count
            zero = SparseVector(f.vertex_count, field, {})
            nulls = null_basis(m).vectors
            for x in [zero, combination(zero, nulls, rng)] + nulls[:2]:
                assert transfer_null(m, other, x) == d_n.apply_inverse(d_m.apply(x))
            rows = rank_basis(m, matching).vectors
            for y in [zero, combination(zero, rows, rng)] + rows[:2]:
                assert transfer_rank(m, other, y) == d_n.apply(d_m.apply_inverse(y))
    assert without_support >= 6 * len(NULL_FIELDS)


def test_transfer_null(m_p3):
    a = adjacency_matrix(m_p3.pattern)
    out = transfer_null(m_p3, a, sv(3, {0: 5, 2: -3}))
    assert out == sv(3, {0: 5, 2: -5})
    back = transfer_null(a, m_p3, sv(3, {0: 1, 2: -1}))
    assert back == sv(3, {0: 1, 2: Fraction(-3, 5)})
    same = transfer_null(m_p3, m_p3, sv(3, {0: 5, 2: -3}))
    assert same == sv(3, {0: 5, 2: -3})


def test_transfer_null_validates(m_p3, m_star):
    with pytest.raises(ValidationError, match="pattern"):
        transfer_null(m_p3, m_star, sv(3, {0: 5, 2: -3}))
    with pytest.raises(ValidationError, match="null space"):
        transfer_null(m_p3, m_p3, sv(3, {0: 1}))


GF11_VECTOR = sv(3, {1: 1}, PrimeField(11))


@pytest.mark.parametrize("space, transfer", [("null", transfer_null),
                                             ("row", transfer_rank)])
@pytest.mark.parametrize("target, x, message", [
    # one failing check each, in the order both transfers run them
    ("gf11", sv(3, {1: 1}), "field mismatch: matrices are over rational and gf 11"),
    ("other", sv(3, {1: 1}), "matrices do not share a pattern"),
    ("same", GF11_VECTOR, "field mismatch: matrix and vector are over rational and gf 11"),
    ("same", sv(4, {1: 1}), "dimension mismatch: 3 vs 4"),
    ("same", sv(3, {0: 1}), "vector is not in the %s space of the source matrix"),
    # two failing checks: the earlier one is reported
    ("gf11_other", sv(3, {1: 1}), "field mismatch: matrices are over rational and gf 11"),
    ("other", GF11_VECTOR, "matrices do not share a pattern"),
    ("other", sv(4, {0: 1}), "matrices do not share a pattern"),
    ("same", SparseVector(4, PrimeField(11), {3: 1}),
     "field mismatch: matrix and vector are over rational and gf 11"),
    ("same", sv(4, {0: 1}), "dimension mismatch: 3 vs 4"),
])
def test_transfer_checks_run_in_a_fixed_order(m_p3, space, transfer, target, x, message):
    triples = [(0, 1, 2), (1, 0, 3), (1, 2, 5), (2, 1, 7)]
    targets = {
        "same": m_p3,
        "gf11": AcyclicMatrix.from_entries(3, triples, PrimeField(11)),
        "other": AcyclicMatrix.from_entries(3, [(0, 1, 1), (1, 0, 1)]),
        "gf11_other": AcyclicMatrix.from_entries(3, [(0, 1, 1), (1, 0, 1)], PrimeField(11)),
    }
    with pytest.raises(ValidationError) as exc:
        transfer(m_p3, targets[target], x)
    assert str(exc.value) == message.replace("%s", space)
