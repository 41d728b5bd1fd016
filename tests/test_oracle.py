import copy
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from forestnull import (OracleBoundError, PrimeField, QQ, AcyclicMatrix, Basis,
                        SparseVector, adjacency_matrix, build_forest, maximum_matching)
from forestnull import cli, matrixio, oracle
from forestnull.generate import random_matrix
from forestnull.rank import rank_basis
from forestnull.scaling import null_basis
from conftest import sv
from forest_helpers import same_span
from treegen import free_trees


def path_matrix(n, field=QQ):
    return adjacency_matrix(build_forest(n, [(i, i + 1) for i in range(n - 1)]), field)


def test_dense_null_space_m_p3(m_p3):
    basis = oracle.dense_null_space(m_p3)
    assert basis.dimension == 1
    assert same_span(basis, Basis([sv(3, {0: 5, 2: -3})]))


def test_dense_null_space_p4_empty():
    assert oracle.dense_null_space(path_matrix(4)).dimension == 0


def test_dense_null_space_zero_matrix():
    basis = oracle.dense_null_space(AcyclicMatrix.from_entries(1, []))
    assert [v.entries for v in basis.vectors] == [{0: 1}]


def test_rank_values(m_p3):
    assert oracle.dense_analysis(m_p3).rank == 2
    star = adjacency_matrix(build_forest(4, [(0, 1), (0, 2), (0, 3)]))
    assert oracle.dense_analysis(star).rank == 2
    assert oracle.dense_analysis(AcyclicMatrix.from_entries(1, [])).rank == 0


def test_row_space(m_p3):
    rows = oracle.dense_row_space(m_p3)
    assert rows.dimension == 2
    assert same_span(rows, Basis([sv(3, {1: 1}), sv(3, {0: 3, 2: 5})]))


def test_same_span():
    a = Basis([sv(3, {0: 1, 2: -1})])
    b = Basis([sv(3, {0: 5, 2: -5})])
    assert same_span(a, a)
    assert same_span(a, b)
    assert not same_span(Basis([sv(3, {0: 1})]), Basis([sv(3, {1: 1})]))
    assert not same_span(a, Basis([]))


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
    assert oracle.ORACLE_BOUND == 512
    monkeypatch.setattr(oracle, "ORACLE_BOUND", 5)
    with pytest.raises(OracleBoundError):
        oracle.dense_null_space(path_matrix(6))
    monkeypatch.setattr(oracle, "ORACLE_BOUND", 600)
    assert oracle.dense_null_space(path_matrix(513)).dimension == 1


def test_dp_matching_agrees_with_fast_path():
    from forestnull.generate import random_forest_edges

    for trial in range(30):
        rng = random.Random(trial)
        n = rng.randint(1, 50)
        f = build_forest(n, random_forest_edges(n, rng, rng.randint(1, min(4, n))))
        assert oracle._dp_matching_number(f) == maximum_matching(f).nu


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


# --- differential: the sparse oracle against the former dense code -------
#
# Test-local copies of the elimination, null-vector extraction and span
# reduction of the former dense code, which ``_Echelon`` replaced:
# first-row pivoting over every remaining row, every row visited per
# pivot, a free x pivot double loop, and a re-sort of every stored pivot
# per reduction.


def reference_rref(rows, n_cols, field):
    inv, mul, sub = field.inv, field.mul, field.sub
    zero = field.zero
    pivots = []
    piv_r = 0
    n_rows = len(rows)
    for c in range(n_cols):
        hit = -1
        for r in range(piv_r, n_rows):
            if c in rows[r]:
                hit = r
                break
        if hit < 0:
            continue
        rows[piv_r], rows[hit] = rows[hit], rows[piv_r]
        prow = rows[piv_r]
        scale = inv(prow[c])
        for k in list(prow):
            prow[k] = mul(prow[k], scale)
        for r in range(n_rows):
            if r == piv_r:
                continue
            row = rows[r]
            coef = row.get(c)
            if coef is None:
                continue
            for k, v in prow.items():
                s = sub(row.get(k, zero), mul(coef, v))
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
        pivots.append(c)
        piv_r += 1
    return rows[:piv_r], pivots


def reference_null_vectors(rref_rows, pivots, n_cols, field):
    pivot_set = set(pivots)
    vectors = []
    for fc in (c for c in range(n_cols) if c not in pivot_set):
        entries = {fc: field.one}
        for r, pc in enumerate(pivots):
            coef = rref_rows[r].get(fc)
            if coef is not None:
                entries[pc] = field.neg(coef)
        vectors.append(entries)
    return vectors


class ReferenceEchelon(oracle._Echelon):
    def reduce(self, vec):
        field = self.field
        zero = field.zero
        mul, sub = field.mul, field.sub
        work = dict(vec.entries)
        for p in sorted(self.rows):
            coef = work.get(p)
            if coef is None:
                continue
            for k, v in self.rows[p].items():
                s = sub(work.get(k, zero), mul(coef, v))
                if s:
                    work[k] = s
                else:
                    work.pop(k, None)
        return work


def reference_same_span(a, b):
    if a.dimension != b.dimension:
        return False
    if a.dimension == 0:
        return True
    field = a.vectors[0].field
    ech_a, ech_b = ReferenceEchelon(field), ReferenceEchelon(field)
    for vec in a.vectors:
        ech_a.insert(vec)
    for vec in b.vectors:
        ech_b.insert(vec)
    return (all(ech_b.contains(vec) for vec in a.vectors)
            and all(ech_a.contains(vec) for vec in b.vectors))


def reference_analysis(m, rows, pivots):
    null = [SparseVector(m.n, m.field, e)
            for e in reference_null_vectors(rows, pivots, m.n, m.field)]
    return oracle.DenseAnalysis(
        Basis(null), Basis([SparseVector(m.n, m.field, dict(r)) for r in rows]),
        len(pivots), frozenset(v for vec in null for v in vec.entries))


def assert_same_rref(rows, n_cols, field):
    """The two eliminations agree on rows and pivots, and the null
    vectors read off them agree; returns the reference result."""
    got = oracle._rref(copy.deepcopy(rows), n_cols, field)
    want = reference_rref(copy.deepcopy(rows), n_cols, field)
    assert got == want
    got_null = oracle._null_vectors(*got, n_cols, field)
    want_null = reference_null_vectors(*want, n_cols, field)
    # same vectors, same insertion order: the free column, then pivots ascending
    assert [list(e.items()) for e in got_null] == [list(e.items()) for e in want_null]
    return want


def entries_of(basis):
    return [list(vec.entries.items()) for vec in basis.vectors]


def perturbed(basis, k):
    """basis with one coordinate of vector k % dim raised by one."""
    vectors = list(basis.vectors)
    j = k % len(vectors)
    vec = vectors[j]
    field, v = vec.field, (min(vec.entries) + k) % vec.n
    vectors[j] = vec.add(SparseVector(vec.n, field, {v: field.one}))
    return Basis(vectors)


@pytest.fixture(scope="module")
def acceptance_instances():
    from test_acceptance import Corpus

    return Corpus().instances


def test_sparse_oracle_matches_dense_reference_on_corpus(acceptance_instances):
    fields = set()
    caught = 0
    for i, m in enumerate(acceptance_instances):
        fields.add(m.field)
        rows = [dict(m.row_items(u)) for u in range(m.n)]
        want = reference_analysis(m, *assert_same_rref(rows, m.n, m.field))
        got = oracle.dense_analysis(m)
        assert entries_of(got.null_basis) == entries_of(want.null_basis)
        assert [dict(e) for e in entries_of(got.row_basis)] == \
            [dict(e) for e in entries_of(want.row_basis)]
        assert (got.rank, got.null_support) == (want.rank, want.null_support)
        fast_rows = rank_basis(m, maximum_matching(m.pattern))
        for fast, dense in ((null_basis(m), got.null_basis), (fast_rows, got.row_basis)):
            pairs = [(fast, dense)]
            if fast.dimension:
                pairs.append((perturbed(fast, i), dense))
            for a, b in pairs:
                verdict = same_span(a, b)
                assert verdict == reference_same_span(a, b)
                caught += not verdict
    assert len(acceptance_instances) == 785
    assert fields == {QQ, PrimeField(10007)}
    assert caught > 1000  # most of the 1,528 perturbed bases leave the span


@st.composite
def sparse_rows(draw):
    """Up to 12 sparse rows over Q or GF(7), not forest-patterned: random
    rows, zero rows, repeated rows and combinations of earlier rows."""
    field = draw(st.sampled_from((QQ, PrimeField(7))))
    n_cols = draw(st.integers(1, 12))
    value = st.integers(-3, 3).filter(bool).map(field.coerce)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("random", "random", "zero", "repeat", "combination")))
        if kind == "zero" or (kind != "random" and not rows):
            rows.append({})
        elif kind == "random":
            rows.append(draw(st.dictionaries(st.integers(0, n_cols - 1), value, max_size=4)))
        elif kind == "repeat":
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(value), draw(value)
            combined = {}
            for k in set(a) | set(b):
                s = field.add(field.mul(x, a.get(k, field.zero)),
                              field.mul(y, b.get(k, field.zero)))
                if s:
                    combined[k] = s
            rows.append(combined)
    return field, n_cols, rows


@settings(max_examples=300, deadline=None, database=None)
@given(sparse_rows(), st.randoms(use_true_random=False))
def test_sparse_oracle_matches_dense_reference_on_random_rows(case, rng):
    field, n_cols, rows = case
    assert_same_rref(rows, n_cols, field)
    vectors = [SparseVector(n_cols, field, dict(r)) for r in rows]
    ech, ref = oracle._Echelon(field), ReferenceEchelon(field)
    for vec in vectors:
        assert ech.insert(vec) == ref.insert(vec)
    assert ech.rows == ref.rows
    for vec in vectors:
        assert ech.reduce(vec) == ref.reduce(vec) == {}
    probes = [SparseVector(n_cols, field, {rng.randrange(n_cols): field.one,
                                           rng.randrange(n_cols): field.coerce(2)})
              for _ in range(3)]
    for vec in probes:
        assert ech.reduce(vec) == ref.reduce(vec)
    # same_span takes any two lists of nonzero vectors of equal length
    nonzero = [vec for vec in vectors if vec.entries]
    half = len(nonzero) // 2
    pairs = [(nonzero[:half], nonzero[half:2 * half]),
             (nonzero[:half], probes[:half]),
             (nonzero, list(reversed(nonzero)))]
    for a, b in pairs:
        a, b = Basis(a), Basis(b)
        assert same_span(a, b) == reference_same_span(a, b)


@st.composite
def vector_lists(draw):
    """Up to 12 vectors of length up to 10 over any of the three fields:
    random ones, unit vectors, zero vectors, repeats (some scaled), and
    sums of two earlier vectors."""
    field = draw(st.sampled_from((QQ, PrimeField(7), PrimeField(1000003))))
    n = draw(st.integers(1, 10))
    value = st.integers(-3, 3).filter(bool).map(field.coerce)
    vectors = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("random", "random", "unit", "zero", "repeat", "sum")))
        if kind == "zero" or (kind in ("repeat", "sum") and not vectors):
            vec = SparseVector(n, field, {})
        elif kind == "random":
            vec = SparseVector(n, field, draw(st.dictionaries(st.integers(0, n - 1), value,
                                                              min_size=1, max_size=4)))
        elif kind == "unit":
            vec = SparseVector(n, field, {draw(st.integers(0, n - 1)): field.one})
        elif kind == "repeat":
            vec = draw(st.sampled_from(vectors)).scale(draw(value))
        else:
            vec = draw(st.sampled_from(vectors)).add(draw(st.sampled_from(vectors)))
        vectors.append(vec)
    return field, vectors


def sequential_first_dependent(field, vectors):
    echelon = oracle._Echelon(field)
    return next((i for i, vec in enumerate(vectors) if not echelon.insert(vec)), -1)


@settings(max_examples=400, deadline=None, database=None)
@given(vector_lists())
def test_first_dependent_matches_sequential_insertion(case):
    field, vectors = case
    assert oracle.first_dependent(field, vectors) == sequential_first_dependent(field, vectors)
    # every dependency among the vectors lies among those the peel leaves
    left = [vectors[i] for i in oracle._peel([vec.entries for vec in vectors], 10)]
    assert ((sequential_first_dependent(field, left) >= 0)
            == (sequential_first_dependent(field, vectors) >= 0))


def relabelled(m, rng):
    """m with its vertices renamed by a random permutation."""
    labels = list(range(m.n))
    rng.shuffle(labels)
    return AcyclicMatrix.from_entries(m.n, [(labels[u], labels[v], x) for u in range(m.n)
                                            for v, x in m.row_items(u)], m.field)


def test_oracle_command_prints_the_reference_analysis(tmp_path, capsys):
    path = str(tmp_path / "m.mtx")
    fields = (QQ, PrimeField(7), PrimeField(1000003))
    for i, n in enumerate((9, 33, 100, 257, 512) * 3):
        rng = random.Random(i)
        field = fields[i % 3]
        m = relabelled(random_matrix(n, 700 + i, field, 1 + i % 4), rng)
        matrixio.write_matrix(m, path)
        rows = [dict(m.row_items(u)) for u in range(m.n)]
        want = reference_analysis(m, *reference_rref(rows, m.n, m.field))
        for fmt in ("mm", "json"):
            assert cli.main(["oracle", "null-basis", path, "--format", fmt]) == 0
            assert capsys.readouterr().out == \
                matrixio.format_basis(want.null_basis, m.n, m.field, fmt)
        assert cli.main(["oracle", "rank", path]) == 0
        assert capsys.readouterr().out == \
            "rank: %d\nnull-dimension: %d\n" % (want.rank, n - want.rank)


def test_oracle_doubling_ratio(monkeypatch):
    # guards against a return of the quadratic scans: the former
    # elimination and reduction took 0.09 s -> 0.44 s here (ratio 4.7)
    monkeypatch.setattr(oracle, "ORACLE_BOUND", 2048)
    field = PrimeField(1000003)
    cases = []
    for n in (1024, 2048):
        m = random_matrix(n, n, field)
        cases.append((m, null_basis(m)))

    def seconds(m, fast):
        t0 = time.perf_counter()
        verdict = same_span(fast, oracle.dense_analysis(m).null_basis)
        elapsed = time.perf_counter() - t0
        assert verdict
        return elapsed

    summary = None
    for attempt in range(3):
        small, large = (min(seconds(m, fast) for _ in range(3)) for m, fast in cases)
        summary = "%.4fs -> %.4fs, ratio %.2f" % (small, large, large / small)
        if large / small < 3:
            return
    pytest.fail("oracle doubling ratio not below 3 after 3 attempts: %s" % summary)


def test_row_echelon_doubling_ratio(monkeypatch):
    # the insertions alone, with no back substitution: a reduction that
    # scanned every stored row would be quadratic here
    monkeypatch.setattr(oracle, "ORACLE_BOUND", 2048)
    field = PrimeField(1000003)
    cases = [random_matrix(n, n, field) for n in (1024, 2048)]

    def seconds(m):
        t0 = time.perf_counter()
        rank = len(oracle.row_echelon(m).rows)
        elapsed = time.perf_counter() - t0
        assert rank == oracle.dense_analysis(m).rank
        return elapsed

    summary = None
    for attempt in range(3):
        small, large = (min(seconds(m) for _ in range(3)) for m in cases)
        summary = "%.4fs -> %.4fs, ratio %.2f" % (small, large, large / small)
        if large / small < 3:
            return
    pytest.fail("row_echelon doubling ratio not below 3 after 3 attempts: %s" % summary)


def test_oracle_imports_nothing_from_the_fast_path():
    # the certificate checks what kernel, scaling and rank produce, so
    # it must not run their code
    from test_io_cli import _run_fresh
    script = """
import sys
import forestnull.oracle
print(sorted(name for name in ("forestnull.kernel", "forestnull.scaling", "forestnull.rank")
             if name in sys.modules))
"""
    assert _run_fresh(script).splitlines()[-1] == "[]"
