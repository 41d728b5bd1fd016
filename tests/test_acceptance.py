"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact (zero tolerance) except the wall-clock scaling
criterion, which uses the documented ratio and time bounds.  The
instance corpus covers every non-isomorphic tree up to 9 vertices
(adjacency matrix plus seeded random entries over both fields) and 500
seeded random forests up to 200 vertices.
"""

import gc
import io
import random
import statistics
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from forestnull import (PrimeField, QQ, AcyclicMatrix, Basis, adjacency_matrix,
                        analyze, build_forest, null_basis, rank_basis,
                        transfer_null, transfer_rank, transversal_scaling)
from forestnull.cli import main as cli_main
from forestnull import matrixio, oracle
from forestnull.generate import random_entry_triples
from forest_helpers import pattern_basis, restriction_check, same_span
from treegen import free_forests, free_trees

GF = PrimeField(10007)
BENCH_FIELD = PrimeField(1000003)

FOREST_INSTANCES = 500
FOREST_MAX_N = 200
TRANSFER_PAIRS = 200
TRANSFER_MAX_N = 100


def matrix_on(f, seed, field):
    """Random entries on a fixed forest pattern, deterministic in seed."""
    rng = random.Random(seed)
    triples = []
    for u, v in f.edges:
        for a, b in ((u, v), (v, u)):
            if field == QQ:
                num = rng.choice([k for k in range(-9, 10) if k])
                den = rng.choice([k for k in range(-9, 10) if k])
                triples.append((a, b, Fraction(num, den)))
            else:
                triples.append((a, b, rng.randrange(1, field.p)))
    return AcyclicMatrix.from_entries(f.vertex_count, triples, field)


def random_forest_matrix(i):
    from forestnull.generate import random_matrix

    rng = random.Random(1000 + i)
    n = rng.randint(1, FOREST_MAX_N)
    k = rng.randint(1, min(4, n))
    field = QQ if i % 2 == 0 else GF
    return random_matrix(n, 10_000 + i, field, k)


class Corpus:
    def __init__(self):
        t0 = time.time()
        instances = []
        for n in range(1, 10):
            for idx, edges in enumerate(free_trees(n)):
                f = build_forest(n, list(edges))
                instances.append(adjacency_matrix(f, QQ))
                instances.append(matrix_on(f, 31 * n + idx, QQ))
                instances.append(matrix_on(f, 77 * n + idx, GF))
        for i in range(FOREST_INSTANCES):
            instances.append(random_forest_matrix(i))
        self.instances = instances
        self.build_seconds = time.time() - t0
        self._records = None
        self.analysis_seconds = None

    @property
    def records(self):
        if self._records is None:
            t0 = time.time()
            recs = []
            for m in self.instances:
                analysis = analyze(m.pattern)
                recs.append({
                    "m": m,
                    "analysis": analysis,
                    "matching": analysis.matching,
                    "support": analysis.support,
                    "fast": null_basis(m),
                    "oracle": oracle.dense_analysis(m),
                })
            self._records = recs
            self.analysis_seconds = time.time() - t0
        return self._records


@pytest.fixture(scope="module")
def corpus():
    return Corpus()


def test_criterion_1_null_basis_correctness(corpus):
    t0 = time.time()
    for rec in corpus.records:
        m = rec["m"]
        for vec in rec["fast"].vectors:
            assert m.apply(vec).is_zero()
        assert same_span(rec["fast"], rec["oracle"].null_basis)
    check_seconds = time.time() - t0
    total = corpus.build_seconds + corpus.analysis_seconds + check_seconds
    assert total < 120.0, "criterion 1 runtime budget exceeded: %.1fs" % total
    print("ACCEPTANCE 1 PASS - null basis exact and span-equal to the oracle "
          "on %d instances (%.1fs)" % (len(corpus.records), total))


def test_criterion_2_dimension_laws(corpus):
    for rec in corpus.records:
        n = rec["m"].n
        nu = rec["matching"].nu
        assert rec["oracle"].null_basis.dimension == n - 2 * nu
        assert rec["oracle"].rank == 2 * nu
        assert rec["fast"].dimension == n - 2 * nu
    print("ACCEPTANCE 2 PASS - null dimension n-2nu and rank 2nu on %d instances"
          % len(corpus.records))


def test_criterion_3_support_laws(corpus):
    for rec in corpus.records:
        info = rec["support"]
        f = rec["m"].pattern
        assert info.supp == rec["oracle"].null_support
        assert info.supp == oracle.support_by_matching(f)
        for u, v in f.edges:  # no two support vertices adjacent
            assert not (u in info.supp and v in info.supp)
        assert len(info.supp) - len(info.core) == rec["m"].n - 2 * rec["matching"].nu
    count = 0
    for n in range(1, 13):
        for edges in free_forests(n):
            f = build_forest(n, list(edges))
            assert analyze(f).support.supp == oracle.support_by_mis(f)
            count += 1
    print("ACCEPTANCE 3 PASS - support characterizations agree "
          "(%d instances; %d forests vs exhaustive independent sets)"
          % (len(corpus.records), count))


def test_criterion_4_sparsest_contract():
    trees = 0
    for n in range(1, 9):
        for idx, edges in enumerate(free_trees(n)):
            f = build_forest(n, list(edges))
            pattern = pattern_basis(f)
            assert sum(vec.nnz() for vec in pattern.vectors) == \
                oracle.min_support_total(adjacency_matrix(f, QQ))
            one, minus = QQ.one, QQ.neg(QQ.one)
            for vec in pattern.vectors:
                assert all(x in (one, minus) for x in vec.entries.values())
            for field, seed in ((QQ, 900 + idx), (GF, 1900 + idx)):
                m = matrix_on(f, seed, field)
                fast = null_basis(m)
                assert [v.support() for v in fast.vectors] == \
                    [v.support() for v in pattern.vectors]
            trees += 1
    print("ACCEPTANCE 4 PASS - sparsest {-1,0,1} contract matches brute force "
          "on all %d trees up to 8 vertices" % trees)


def test_criterion_5_transfer_corollaries():
    for i in range(TRANSFER_PAIRS):
        rng = random.Random(3000 + i)
        n = rng.randint(1, TRANSFER_MAX_N)
        field = QQ if i % 2 == 0 else GF
        from forestnull.generate import random_forest_edges
        f = build_forest(n, random_forest_edges(n, rng, rng.randint(1, min(3, n))))
        m = matrix_on(f, 41 * i + 1, field)
        n_mat = matrix_on(f, 67 * i + 2, field)

        null_m = oracle.dense_null_space(m)
        for vec in null_m.vectors:
            moved = transfer_null(m, n_mat, vec)
            assert n_mat.apply(moved).is_zero()
            assert transfer_null(n_mat, m, moved) == vec

        row_m = oracle.dense_row_space(m)
        row_ech_n = oracle._Echelon(field)
        for row_vec in oracle.dense_row_space(n_mat).vectors:
            row_ech_n.insert(row_vec)
        for vec in row_m.vectors:
            moved = transfer_rank(m, n_mat, vec)
            assert row_ech_n.contains(moved)
            assert transfer_rank(n_mat, m, moved) == vec
    print("ACCEPTANCE 5 PASS - null and rank transfers land in the target "
          "spaces and round-trip on %d pattern-sharing pairs" % TRANSFER_PAIRS)


def test_criterion_6_rank_structure(corpus, m_p3):
    for rec in corpus.records:
        m = rec["m"]
        basis = rank_basis(m)
        assert same_span(basis, rec["oracle"].row_basis)
        a = adjacency_matrix(m.pattern, m.field)
        d = transversal_scaling(m, rec["analysis"])
        scaled = [d.apply(vec) for vec in rank_basis(a).vectors]
        assert same_span(Basis(scaled), rec["oracle"].row_basis)
    # the structured basis spans the ROW space; for the standard
    # non-symmetric path fixture it must NOT span the column space
    row_reading = rank_basis(m_p3)
    column_space = oracle.dense_row_space(m_p3.transpose())
    assert not same_span(row_reading, column_space)
    assert same_span(row_reading, oracle.dense_row_space(m_p3))
    print("ACCEPTANCE 6 PASS - rank bases span the row space on %d instances; "
          "column-space reading rejected on the path fixture" % len(corpus.records))


def test_criterion_7_restriction(corpus):
    vectors = 0
    for rec in corpus.records:
        for vec in rec["oracle"].null_basis.vectors:
            assert restriction_check(rec["m"], vec)
            vectors += 1
    print("ACCEPTANCE 7 PASS - every oracle null vector vanishes outside the "
          "S-set and is annihilated by the induced matrix (%d vectors)" % vectors)


def time_null_pipeline(n, triples):
    """Seconds for validation plus the null basis of one instance, with
    collector pauses suspended inside the timed region."""
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        m = AcyclicMatrix.from_entries(n, triples, BENCH_FIELD)
        null_basis(m)
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def test_criterion_8_linear_time_proxy():
    sizes = [2 ** 15, 2 ** 16, 2 ** 17, 2 ** 18]
    triples = {n: random_entry_triples(n, 42, BENCH_FIELD) for n in sizes}
    last_error = None
    for attempt in range(3):
        # One untimed warm-up per size faults pages in.  Repeats are
        # interleaved across the sizes, so a slow spell on a shared
        # machine inflates every size about equally.
        for n in sizes:
            time_null_pipeline(n, triples[n])
        times = {n: [] for n in sizes}
        for _ in range(5):
            for n in sizes:
                times[n].append(time_null_pipeline(n, triples[n]))
        medians = [statistics.median(times[n]) for n in sizes]
        ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
        summary = "medians=%s ratios=%s" % (
            ["%.3f" % x for x in medians], ["%.3f" % r for r in ratios])
        if medians[-1] < 5.0 and all(r <= 2.5 for r in ratios):
            print("ACCEPTANCE 8 PASS - doubling ratios within 2.5 and "
                  "n=2^18 under 5s on attempt %d: %s" % (attempt + 1, summary))
            return
        last_error = summary
    pytest.fail("timing criterion not met after 3 attempts: %s" % last_error)


def test_criterion_9_determinism(tmp_path, m_p3, m_star):
    p3_file = tmp_path / "p3.mtx"
    matrixio.write_matrix(m_p3, p3_file)
    star_file = tmp_path / "star.json"
    matrixio.write_matrix(m_star, star_file, fmt="json")
    a_file = tmp_path / "a_p3.mtx"
    matrixio.write_matrix(adjacency_matrix(m_p3.pattern), a_file)
    vec_file = tmp_path / "x.json"
    vec_file.write_text(matrixio.format_vector(
        matrixio.parse_vector('{"n": 3, "field": "rational", '
                              '"vector": {"1": "5", "3": "-3"}}')))
    row_vec_file = tmp_path / "y.json"
    row_vec_file.write_text(matrixio.format_vector(
        matrixio.parse_vector('{"n": 3, "field": "rational", '
                              '"vector": {"1": "3", "3": "5"}}')))
    commands = [
        ["support", str(p3_file)],
        ["support", str(star_file), "--json"],
        ["null-basis", str(p3_file)],
        ["null-basis", str(star_file), "--format", "json"],
        ["rank-basis", str(p3_file)],
        ["gen", "--n", "64", "--seed", "11", "--field", "gf:7"],
        ["oracle", "rank", str(p3_file)],
        ["oracle", "null-basis", str(star_file)],
        ["transfer", "--space", "null", "--from", str(p3_file),
         "--to", str(a_file), "--vector", str(vec_file)],
        ["transfer", "--space", "rank", "--from", str(p3_file),
         "--to", str(a_file), "--vector", str(row_vec_file)],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli_main(argv)
            assert rc == 0, "command failed: %r" % (argv,)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1], "nondeterministic output: %r" % (argv,)
    # file outputs must be byte-identical as well
    out_a, out_b = tmp_path / "a.out", tmp_path / "b.out"
    assert cli_main(["null-basis", str(p3_file), "-o", str(out_a)]) == 0
    assert cli_main(["null-basis", str(p3_file), "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    print("ACCEPTANCE 9 PASS - byte-identical outputs across repeated runs "
          "of %d commands" % (len(commands) + 1))
