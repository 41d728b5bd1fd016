"""Scalar I/O: the per-read literal tables of ``Field.reader()`` against
plain ``parse``, and the direct JSON writers against
``json.dumps(doc, indent=2)``."""

import json
from fractions import Fraction

import pytest

from forestnull import (PrimeField, QQ, AcyclicMatrix, Basis, ParseError, SparseVector,
                        ValidationError)
from forestnull import fields, matrixio
from forestnull.fields import RationalField
from forestnull.rank import rank_basis
from forestnull.scaling import null_basis
from forest_helpers import entries
from test_acceptance import Corpus


@pytest.fixture(scope="module")
def corpus_cases():
    """Each corpus matrix with its null and row-space bases."""
    return [(m, (null_basis(m), rank_basis(m))) for m in Corpus().instances]


# --- reference documents: the layouts json.dumps gave before ------------


def dumped(doc):
    return json.dumps(doc, indent=2) + "\n"


def vector_map(vec):
    return {str(v + 1): vec.field.format(x) for v, x in sorted(vec.entries.items())}


def matrix_doc(m):
    entries = [[u + 1, v + 1, m.field.format(x)]
               for u in range(m.n) for v, x in m.row_items(u)]
    return {"n": m.n, "field": m.field.name, "entries": entries}


def basis_doc(basis, n, field):
    return {"n": n, "field": field.name, "dimension": len(basis.vectors),
            "vectors": [vector_map(vec) for vec in basis.vectors]}


def vector_doc(vec):
    return {"n": vec.n, "field": vec.field.name, "vector": vector_map(vec)}


def test_json_writers_match_json_dumps_on_corpus(corpus_cases):
    fields_seen = set()
    for m, bases in corpus_cases:
        fields_seen.add(m.field)
        assert matrixio.format_matrix(m, "json") == dumped(matrix_doc(m))
        for basis in bases:
            assert (matrixio.format_basis(basis, m.n, m.field, "json")
                    == dumped(basis_doc(basis, m.n, m.field)))
            for vec in basis.vectors[:3]:
                assert matrixio.format_vector(vec) == dumped(vector_doc(vec))
    assert fields_seen == {QQ, PrimeField(10007)}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_json_writers_match_json_dumps_when_empty(field):
    for n in (0, 1, 3):
        empty = Basis([])
        assert (matrixio.format_basis(empty, n, field, "json")
                == dumped(basis_doc(empty, n, field)))
        vec = SparseVector(n, field, {})
        assert matrixio.format_vector(vec) == dumped(vector_doc(vec))
        m = AcyclicMatrix.from_entries(n, [], field)
        assert matrixio.format_matrix(m, "json") == dumped(matrix_doc(m))
    basis = Basis([SparseVector(3, field, {}), SparseVector(3, field, {1: field.one})])
    assert (matrixio.format_basis(basis, 3, field, "json")
            == dumped(basis_doc(basis, 3, field)))


# --- interned reads ------------------------------------------------------


def corpus_texts(corpus_cases):
    for m, bases in corpus_cases:
        for fmt in ("mm", "json"):
            yield matrixio.parse_matrix, matrixio.format_matrix(m, fmt)
            for basis in bases:
                if basis.vectors:
                    text = matrixio.format_basis(basis, m.n, m.field, fmt)
                    yield matrixio.parse_basis, text
        for vec in bases[0].vectors[:2]:
            yield matrixio.parse_vector, matrixio.format_vector(vec)


def test_interned_reads_equal_plain_parse_on_corpus(corpus_cases, monkeypatch):
    count = 0
    for parse, text in corpus_texts(corpus_cases):
        interned = parse(text)
        with monkeypatch.context() as patch:
            patch.setattr(RationalField, "reader", lambda self: self.parse)
            plain = parse(text)
        assert interned == plain
        count += 1
    assert count > 3000


def test_reader_equals_parse_and_shares_repeated_values():
    texts = ["1/2", "-3", "0.25", "2/4", "1/2", "-3", "7", "0.25"]
    read = QQ.reader()
    values = [read(t) for t in texts]
    assert values == [QQ.parse(t) for t in texts]
    assert values[4] is values[0] and values[5] is values[1]
    gf = PrimeField(7)
    assert gf.reader() == gf.parse


def test_reader_table_stays_within_its_cap(monkeypatch):
    # all-distinct literals, twice as many as the table may hold, then
    # read again: the texts parsed anew on the second pass are exactly
    # those the table did not keep.
    calls = []
    plain = RationalField.parse
    monkeypatch.setattr(RationalField, "parse",
                        lambda self, text: calls.append(text) or plain(self, text))
    cap = fields.READER_CAP
    texts = ["%d/%d" % (k, 2 * k + 1) for k in range(1, 2 * cap + 1)]
    read = QQ.reader()
    values = [Fraction(k, 2 * k + 1) for k in range(1, 2 * cap + 1)]
    assert [read(t) for t in texts] == values
    assert len(calls) == 2 * cap
    del calls[:]
    assert [read(t) for t in texts] == values
    assert calls == texts[cap:]


def test_all_distinct_rational_matrix_reads_exactly():
    n = 3 * fields.READER_CAP
    triples = []
    for u in range(n - 1):
        triples.append((u, u + 1, Fraction(-(2 * u + 1), 2 * u + 3)))
        triples.append((u + 1, u, Fraction(2 * u + 2, 4 * u + 5)))
    m = AcyclicMatrix.from_entries(n, triples)
    assert matrixio.parse_matrix(matrixio.format_matrix(m)) == m
    assert matrixio.parse_matrix(matrixio.format_matrix(m, "json")) == m


@pytest.mark.parametrize("field, bad", [(QQ, "1/0"), (QQ, "x"), (PrimeField(7), "1/2")])
def test_repeated_bad_literal_reports_its_first_line(field, bad):
    text = ("%%MatrixMarket matrix coordinate integer general\n"
            "% field: " + field.name + "\n"
            "3 3 4\n"
            "1 2 5\n"
            "2 1 " + bad + "\n"
            "2 3 " + bad + "\n"
            "3 2 " + bad + "\n")
    with pytest.raises(ValueError) as plain:
        field.parse(bad)
    with pytest.raises(ParseError) as exc:
        matrixio.parse_matrix(text)
    assert str(exc.value) == "line 5: %s" % plain.value
    assert exc.value.line == 5


@pytest.mark.parametrize("field, expected", [
    (QQ, [Fraction(3), Fraction(-4), Fraction(3), Fraction(1, 2)]),
    (PrimeField(7), [3, 3, 3, 4]),
])
def test_json_integer_values_still_coerce(field, expected):
    last = "1/2" if field == QQ else 11
    doc = {"n": 3, "field": field.name,
           "entries": [[1, 2, 3], [2, 1, -4], [2, 3, "3"], [3, 2, last]]}
    values = entries(matrixio.parse_matrix(json.dumps(doc)))
    assert [values[(0, 1)], values[(1, 0)], values[(1, 2)], values[(2, 1)]] == expected
    vec = matrixio.parse_vector(json.dumps(
        {"n": 3, "field": field.name, "vector": {"1": 3, "2": -4, "3": "3"}}))
    assert vec.entries == {0: expected[0], 1: expected[1], 2: expected[2]}
    basis = matrixio.parse_basis(json.dumps(
        {"n": 3, "field": field.name, "vectors": [{"1": 3, "3": "3"}, {"2": -4}]}))
    assert [vec.entries for vec in basis.vectors] == [{0: expected[0], 2: expected[2]},
                                                      {1: expected[1]}]
    with pytest.raises(ValidationError, match="not accepted|must be integers"):
        matrixio.parse_vector(json.dumps({"n": 1, "field": field.name, "vector": {"1": 0.5}}))
