"""Ingest: the CSR arrays of ``from_entries`` and ``build_forest``
against the sorted positions, the stored sweep order against the former
DFS matching, the streaming Matrix Market reader, and fuzz properties
over mutated matrix, basis and vector texts."""

import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from forestnull import (PrimeField, QQ, AcyclicMatrix, ParseError, ValidationError,
                        build_forest, maximum_matching)
from forestnull import matrixio
from forestnull.generate import random_matrix
from forestnull.rank import rank_basis
from forestnull.scaling import null_basis
from forest_helpers import entry
from test_acceptance import Corpus
from treegen import free_forests


@pytest.fixture(scope="module")
def corpus_matrices():
    return Corpus().instances


def triples_of(m):
    return [(u, v, x) for u in range(m.n) for v, x in m.row_items(u)]


def dfs_matching_partner(f):
    """The matching as an explicit DFS computed it: one iterative DFS per
    component (root = smallest id, children ascending), a vertex matched
    to its parent at post-visit time when both are free."""
    n = f.vertex_count
    neighbors, offsets = f.neighbors, f.offsets
    parent = [-2] * n
    partner = [-1] * n
    for r in range(n):
        if parent[r] != -2:
            continue
        parent[r] = -1
        stack = [r]
        cursor = [offsets[r]]
        while stack:
            v = stack[-1]
            j = cursor[-1]
            child = -1
            while j < offsets[v + 1]:
                c = neighbors[j]
                j += 1
                if parent[c] == -2:
                    child = c
                    break
            cursor[-1] = j
            if child >= 0:
                parent[child] = v
                stack.append(child)
                cursor.append(offsets[child])
            else:
                stack.pop()
                cursor.pop()
                p = parent[v]
                if p >= 0 and partner[v] < 0 and partner[p] < 0:
                    partner[v] = p
                    partner[p] = v
    return partner


def labeled_trees(n):
    """Every labeled tree on n >= 2 vertices, decoded from Pruefer codes."""
    for code in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in code:
            degree[v] += 1
        edges = []
        for v in code:
            leaf = min(w for w in range(n) if degree[w] == 1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = [x for x in range(n) if degree[x] == 1]
        edges.append((u, w))
        yield edges


def sorted_positions_csr(n, positions):
    """Neighbors and offsets of the (u, v) positions, sorted, with the
    offsets counted per row: the CSR layout built apart from the package."""
    positions = sorted(positions)
    counts = [0] * n
    for u, _ in positions:
        counts[u] += 1
    offsets = [0]
    for c in counts:
        offsets.append(offsets[-1] + c)
    return [v for _, v in positions], offsets


def assert_csr_of(f, positions):
    neighbors, offsets = sorted_positions_csr(f.vertex_count, positions)
    assert list(f.neighbors) == neighbors
    assert list(f.offsets) == offsets


def test_from_entries_csr_equals_the_sorted_positions(corpus_matrices):
    rng = random.Random(1)
    for m in corpus_matrices:
        triples = triples_of(m)
        rng.shuffle(triples)
        again = AcyclicMatrix.from_entries(m.n, triples, m.field)
        got = again.pattern
        assert_csr_of(got, [(u, v) for u, v, _ in triples])
        assert got.edges == m.pattern.edges
        assert got.component_count == m.n - len(got.edges)
        values = dict(((u, v), x) for u, v, x in triples)
        expected = [values[(got.neighbors[j], v)]
                    for v in range(m.n) for j in range(got.offsets[v], got.offsets[v + 1])]
        assert again.col_flat == expected
        assert again.row_flat == m.row_flat


def test_edges_equal_the_canonical_list_once_stored(corpus_matrices):
    """``Forest.edges``, read off the CSR arrays, against the list the
    forest stored before it kept only the arrays: the u < v positions of
    the entries, sorted, and the sorted (min, max) pairs of an edge list;
    the arrays themselves against the sorted positions."""
    rng = random.Random(0)
    for m in corpus_matrices:
        triples = triples_of(m)
        rng.shuffle(triples)
        want = sorted((u, v) for u, v, _ in triples if u < v)
        got = AcyclicMatrix.from_entries(m.n, triples, m.field).pattern
        assert got.edges == want
        assert_csr_of(got, [(u, v) for u, v, _ in triples])
        edge_list = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in want]
        rng.shuffle(edge_list)
        f = build_forest(m.n, edge_list)
        assert f.edges == sorted((min(e), max(e)) for e in edge_list) == want
        assert_csr_of(f, edge_list + [(v, u) for u, v in edge_list])


def test_sweep_records_parent_slots():
    f = build_forest(6, [(0, 1), (1, 2), (1, 3), (4, 5)])
    assert list(f.order) == [0, 1, 3, 2, 4, 5]
    assert list(f.parent) == [-1, 0, 1, 1, -1, 4]
    for t in range(6):
        s, j = f.parent[t], f.parent_slot[t]
        assert (j == -1) if s < 0 else (f.offsets[s] <= j < f.offsets[s + 1]
                                        and f.neighbors[j] == t)


@pytest.mark.parametrize("n, triples, message", [
    (3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (0, 1, 2)],
     "duplicate entry at (0, 1)"),
    (3, [(0, 1, 1), (1, 0, 1), (1, 2, 1)],
     "asymmetric pattern: entry (1, 2) present but (2, 1) missing"),
    (3, [(0, 1, 1), (2, 1, 1)],
     "asymmetric pattern: entry (0, 1) present but (1, 0) missing"),
    (3, [(1, 0, 1), (2, 1, 1), (0, 2, 1), (2, 0, 1)],
     "asymmetric pattern: entry (1, 0) present but (0, 1) missing"),
    (4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (1, 0, 1), (2, 1, 1), (3, 0, 1)],
     "cycle detected at edge (1, 2)"),
    (4, [(a, b, 1) for u, v in [(0, 1), (1, 2), (2, 3), (0, 3)] for a, b in [(u, v), (v, u)]],
     "cycle detected at edge (2, 3)"),
    (5, [(a, b, 1) for u, v in [(3, 4), (0, 1), (1, 2), (0, 2)] for a, b in [(u, v), (v, u)]],
     "cycle detected at edge (1, 2)"),
    (-1, [], "vertex count must be non-negative"),
    (2, [(0, 2, 1)], "entry (0, 2) out of range for n=2"),
    (2, [(1, 1, 1)], "nonzero diagonal entry at vertex 1"),
    (2, [(0, 1, 0)], "explicit zero entry at (0, 1)"),
    # non-integer vertex ids, found where they first fail
    (3, [(0, 1.0, 1), (1.0, 0, 1)], "vertex ids must be integers, got 1.0"),
    (3, [(0, 1, 1), (1, 0, 1), (1, 2.5, 1)], "vertex ids must be integers, got 2.5"),
    (3, [("0", 1, 1)], "vertex ids must be integers, got '0'"),
    (3, [(0, 1, 1), (1, 0, 1), (2, None, 1)], "vertex ids must be integers, got None"),
    # a row id reaches no int array, and here every row holds entries
    (2, [(0, 1, 1), (1.0, 0, 1)], "vertex ids must be integers, got 1.0"),
    (3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2.0, 1, 1)], "vertex ids must be integers, got 2.0"),
    (3, [(0, 1, 1), (1, 0, 1), (1.0, 2, 1), (2, 1, 1)], "vertex ids must be integers, got 1.0"),
    # entries that are not triples
    (2, [(0, 1)], "malformed entry (0, 1): expected (row, column, value)"),
    (2, [(0, 1, 1), (1, 0, 1, 1)], "malformed entry (1, 0, 1, 1): expected (row, column, value)"),
    (2, [(0, 1, 1), 5], "malformed entry 5: expected (row, column, value)"),
])
def test_rejection_messages(n, triples, message):
    with pytest.raises(ValidationError) as exc:
        AcyclicMatrix.from_entries(n, triples)
    assert str(exc.value) == message


GF7 = PrimeField(7)
CANONICAL_QQ = Fraction(3, 4)


@pytest.mark.parametrize("field, value, expected", [
    (QQ, CANONICAL_QQ, Fraction(3, 4)), (QQ, 5, Fraction(5)), (QQ, 10 ** 30, Fraction(10 ** 30)),
    (QQ, "3/4", Fraction(3, 4)), (QQ, "0.25", Fraction(1, 4)), (QQ, "-2", Fraction(-2)),
    (QQ, Fraction(6, 3), Fraction(2)),
    (GF7, 3, 3), (GF7, 5, 5), (GF7, 10, 3), (GF7, -1, 6), (GF7, "-2", 5), (GF7, "10", 3),
    (GF7, Fraction(6, 3), 2),
])
def test_from_entries_accepts_every_value_form(field, value, expected):
    m = AcyclicMatrix.from_entries(2, [(0, 1, value), (1, 0, value)], field)
    assert m.row_flat == m.col_flat == [expected, expected]
    assert all(type(x) is type(field.one) for x in m.row_flat)
    if value is CANONICAL_QQ:
        assert m.row_flat[0] is value  # a canonical element is kept, not rebuilt


@pytest.mark.parametrize("field, value, message", [
    (QQ, True, "booleans are not field values, got True"),
    (GF7, False, "booleans are not field values, got False"),
    (QQ, 0.5, "floating point values are not accepted; write an exact decimal or p/q string"),
    (GF7, 0.5, "prime-field values must be integers, got 0.5"),
    (GF7, Fraction(1, 2), "prime-field values must be integers, got Fraction(1, 2)"),
    (GF7, "3/4", "bad gf 7 literal '3/4': expected an integer"),
    (QQ, None, "cannot interpret None as a rational"),
] + [(QQ, zero, "explicit zero entry at (0, 1)")
     for zero in (Fraction(0), 0, "0", "0/5", "0.0", "-0")] + [
    (GF7, zero, "explicit zero entry at (0, 1)")
    for zero in (0, 7, -14, "0", "7", "-14", Fraction(0), Fraction(14, 2))
])
def test_from_entries_refuses_bad_values(field, value, message):
    with pytest.raises(ValidationError) as exc:
        AcyclicMatrix.from_entries(2, [(0, 1, value), (1, 0, 1)], field)
    assert str(exc.value) == message


def test_matching_equals_dfs_matching_on_small_trees():
    count = 0
    for n in range(1, 9):
        for edges in free_forests(n):
            f = build_forest(n, list(edges))
            assert maximum_matching(f).partner == dfs_matching_partner(f)
            count += 1
    for n in range(2, 7):
        for edges in labeled_trees(n):
            f = build_forest(n, edges)
            assert maximum_matching(f).partner == dfs_matching_partner(f)
            count += 1
    assert count > 1500


def test_matching_equals_dfs_matching_on_corpus(corpus_matrices):
    for m in corpus_matrices:
        assert maximum_matching(m.pattern).partner == dfs_matching_partner(m.pattern)


# --- streaming reader --------------------------------------------------


def test_parse_matrix_reads_an_open_file(tmp_path):
    m = random_matrix(60, 5, PrimeField(7), 3)
    text = matrixio.format_matrix(m)
    path = tmp_path / "m.mtx"
    path.write_text(text)
    with open(path) as handle:
        assert matrixio.parse_matrix(handle) == m
    assert matrixio.parse_matrix(io.StringIO(text)) == m
    assert matrixio.read_matrix(path) == m
    json_text = matrixio.format_matrix(m, "json")
    assert matrixio.parse_matrix(io.StringIO(json_text)) == m


def test_field_comment_after_size_line_rejected():
    for value in ("5", "1/2"):
        text = ("%%MatrixMarket matrix coordinate integer general\n"
                "2 2 2\n"
                "1 2 " + value + "\n"
                "% field: gf 7\n"
                "2 1 3\n")
        with pytest.raises(ParseError, match="line 4: field comment after the size line"):
            matrixio.parse_matrix(text)
    # before the size line it still selects the field
    m = matrixio.parse_matrix("%%MatrixMarket matrix coordinate integer general\n"
                              "% field: gf 7\n2 2 2\n1 2 5\n% other comment\n2 1 3\n")
    assert m.field == PrimeField(7)


def test_size_line_cap():
    with pytest.raises(ParseError, match="line 2: matrix size 3000000000 exceeds"):
        matrixio.parse_matrix("%%MatrixMarket matrix coordinate rational general\n"
                              "3000000000 3000000000 0\n")
    with pytest.raises(ValidationError, match="exceeds the limit"):
        AcyclicMatrix.from_entries(2 ** 31, [])


def test_comment_lines_with_three_tokens_are_skipped():
    m = matrixio.parse_matrix("%%MatrixMarket matrix coordinate rational general\n"
                              "2 2 2\n"
                              "% a b\n"
                              "1 2 3\n"
                              "\n"
                              "%1 2 3\n"
                              "2 1 4\n")
    assert entry(m, 0, 1) == 3 and entry(m, 1, 0) == 4


# --- fuzz ----------------------------------------------------------------


def _seed_texts():
    texts = []
    for i, field in enumerate((QQ, PrimeField(7), PrimeField(1000003))):
        for n, k in ((1, 1), (5, 1), (9, 3)):
            m = random_matrix(n, 17 * i + n, field, k)
            texts.append(matrixio.format_matrix(m, "mm"))
            texts.append(matrixio.format_matrix(m, "json"))
    return texts


SEED_TEXTS = _seed_texts()
ALPHABET = "0123456789 \n%-/.:{}[],\"abcdefgilnrtux"

edit = st.tuples(st.sampled_from(("delete", "insert", "replace", "swap-lines")),
                 st.integers(0, 10 ** 6), st.sampled_from(ALPHABET))


def mutate(text, edits):
    for kind, pos, char in edits:
        if kind == "swap-lines":
            lines = text.split("\n")
            a, b = pos % len(lines), (pos // 7) % len(lines)
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
            continue
        k = pos % (len(text) + 1)
        if kind == "insert":
            text = text[:k] + char + text[k:]
        elif text and k < len(text):
            text = text[:k] + ("" if kind == "delete" else char) + text[k + 1:]
    return text


def json_variant(text, key, value):
    doc = json.loads(text)
    doc[key] = value
    return json.dumps(doc)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SEED_TEXTS), st.lists(edit, min_size=1, max_size=3))
def test_mutated_matrix_text_parses_or_raises_parse_or_validation_error(seed, edits):
    text = mutate(seed, edits)
    try:
        m = matrixio.parse_matrix(text)
    except (ParseError, ValidationError):
        return
    assert matrixio.parse_matrix(matrixio.format_matrix(m)) == m


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([t for t in SEED_TEXTS if t.startswith("{")]),
       st.sampled_from(("n", "field", "entries")),
       st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False),
                 st.text(ALPHABET, max_size=6),
                 st.lists(st.one_of(st.integers(-2, 12), st.booleans(),
                                    st.text(ALPHABET, max_size=3)),
                          max_size=3)))
def test_json_values_of_wrong_type_raise_parse_or_validation_error(seed, key, value):
    try:
        matrixio.parse_matrix(json_variant(seed, key, value))
    except (ParseError, ValidationError):
        pass


def _basis_and_vector_seed_texts():
    bases, vectors = [], []
    for i, field in enumerate((QQ, PrimeField(7), PrimeField(1000003))):
        for n, k in ((1, 1), (6, 1), (9, 3)):
            m = random_matrix(n, 23 * i + n, field, k)
            for basis in (null_basis(m), rank_basis(m, maximum_matching(m.pattern))):
                for fmt in ("mm", "json"):
                    bases.append(matrixio.format_basis(basis, m.n, m.field, fmt))
                vectors.extend(matrixio.format_vector(vec) for vec in basis.vectors[:2])
    return bases, vectors


BASIS_TEXTS, VECTOR_TEXTS = _basis_and_vector_seed_texts()


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(BASIS_TEXTS), st.lists(edit, min_size=1, max_size=3))
def test_mutated_basis_text_parses_or_raises_parse_or_validation_error(seed, edits):
    text = mutate(seed, edits)
    try:
        basis = matrixio.parse_basis(text)
    except (ParseError, ValidationError):
        return
    for vec in basis.vectors:
        assert all(0 <= v < vec.n and x for v, x in vec.entries.items())


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(VECTOR_TEXTS), st.lists(edit, min_size=1, max_size=3))
def test_mutated_vector_text_parses_or_raises_parse_or_validation_error(seed, edits):
    text = mutate(seed, edits)
    try:
        vec = matrixio.parse_vector(text)
    except (ParseError, ValidationError):
        return
    assert matrixio.parse_vector(matrixio.format_vector(vec)) == vec


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from([t for t in SEED_TEXTS if t.startswith("{")] + VECTOR_TEXTS),
       st.integers(0, 10 ** 6), st.booleans())
def test_json_boolean_value_is_refused(seed, pos, flag):
    # bool is an int subclass; a JSON true must not be read as 1
    doc = json.loads(seed)
    if "entries" in doc:
        assume(doc["entries"])
        doc["entries"][pos % len(doc["entries"])][2] = flag
        parse = matrixio.parse_matrix
    else:
        key = sorted(doc["vector"])[pos % len(doc["vector"])]
        doc["vector"][key] = flag
        parse = matrixio.parse_vector
    with pytest.raises(ValidationError, match="booleans are not field values"):
        parse(json.dumps(doc))
